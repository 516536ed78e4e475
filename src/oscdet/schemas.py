"""JSON schemas for the CLI payloads; kept next to the emitters so the
output contract is versioned with the code."""

DET_SCHEMA = {
    "type": "object",
    "required": ["spec", "shift", "method", "log_abs", "sign", "value"],
    "properties": {
        "method": {"enum": ["shooting", "closed-harmonic"]},
        "log_abs": {
            "type": "object",
            "required": ["even", "odd", "full", "skew"],
            "additionalProperties": {"type": ["number", "null"]},
        },
        "sign": {"type": "object", "required": ["even", "odd"]},
        # null where the value is not finite: beyond double range, or a log
        # at an eigenvalue
        "value": {
            "type": "object",
            "required": ["even", "odd", "full", "skew"],
            "additionalProperties": {"type": ["number", "null"]},
        },
    },
}

ZETA_SCHEMA = {
    "type": "object",
    "required": ["spec", "s", "E", "skew", "value", "tail_fraction"],
    "properties": {
        "s": {"type": "integer", "minimum": 1},
        "value": {"type": "number"},
        "tail_fraction": {"type": "number", "minimum": 0.0},
    },
}

POLE_ENTRY_SCHEMA = {
    "type": "object",
    "required": ["sigma0", "mobile", "source", "index", "d_v", "d_lambda",
                 "d_g", "confluent", "pinching", "double"],
    "properties": {
        "source": {"enum": ["first", "second", "third"]},
        "mobile": {"type": "boolean"},
        "index": {"type": "integer", "minimum": 0},
    },
}

POLES_SCHEMA = {
    "type": "object",
    "required": ["N", "M", "poles", "contributing"],
    "properties": {
        "poles": {"type": "array", "items": POLE_ENTRY_SCHEMA},
        "contributing": {
            "type": "object",
            "required": ["leading", "subleading"],
            "properties": {
                "leading": POLE_ENTRY_SCHEMA,
                "subleading": POLE_ENTRY_SCHEMA,
            },
        },
    },
}

ACTION_SCHEMA = {
    "type": "object",
    "required": ["spec", "value", "method"],
    "properties": {
        "value": {"type": "number"},
        "method": {"enum": ["closed-normal", "closed-anomalous",
                            "numeric-regularized", "asymptotic"]},
    },
}

VERIFY_SCHEMA = {
    "type": "object",
    "required": ["family", "grid", "predicted", "measured", "residuals",
                 "verdicts", "passed", "notes"],
    "properties": {
        "passed": {"type": "boolean"},
        "verdicts": {"type": "object"},
        "grid": {"type": "array", "items": {"type": "number"}},
    },
}

PREDICT_SCHEMA = {
    "type": "object",
    "required": ["family", "g", "E", "v", "Z1", "log_det_ratio"],
}
