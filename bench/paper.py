"""The ``paper`` workload: CLI jobs in fresh interpreters, and their gates.

Each job runs ``oscdet.cli.main(argv)`` through ``worker.py`` in a directory
of its own; its standard output and the files it writes there are its
outputs.  The gates read only those outputs:

* every job: the exit code, 0 for success and 1 exactly when verdicts failed;
* ``verify``: the JSON validates against ``oscdet.schemas.VERIFY_SCHEMA``,
  reports the requested grid and family, and fails no verdict except the
  recorded defect below;
* ``fig2``: both CSVs have the documented columns, and every value equals,
  bit for bit, what the ``verify`` jobs measured at the same coupling in
  other interpreters;
* traced runs: every output is byte-identical to the untraced pass.

Known defect, recorded rather than hidden: ``verify`` grades every family
against the N = 4 slope law ``0.5 log g - 2 log 2``, so ``verify --N 6``
fails ``slope_trend`` and exits 1.  That job passes its gate (its output is
what the program documents for a failed verdict) but does not count as
passed in ``ops_passed``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import runpy
from pathlib import Path

import jsonschema

KNOWN_DEFECTS = {4: set(), 6: {"slope_trend"}}
REGULAR_LIMITS = {"zp1": math.pi / 4.0, "z2": math.pi**2 / 8.0,
                  "zp2": 0.915965594177219015054603514932384110774}   # Catalan
LEFT_HEADER = ["family", "N", "g", "v", "inv_v", "ZP1", "Z2", "ZP2"]
RIGHT_HEADER = ["family", "N", "g", "log_g", "Z1", "Z1_predicted"]
BOOKKEEPING = {"job.json", "result.json", "stderr"}


class GateError(Exception):
    pass


def _require(condition, why):
    if not condition:
        raise GateError(why)


def run_pass(run, jobs, passdir: Path, trace: bool) -> dict:
    records, spans, outputs = [], [], {}
    for job in jobs:
        jobdir = passdir / job["name"]
        result = run.spawn({"argv": job["argv"], "trace": trace}, jobdir)
        rec = {"request": job["request"], "group": job["name"], "kind": job["argv"][0],
               "latency": math.nan, "exit": None, "ok": False, "gap": None, "error": None}
        if result is None:
            rec["error"] = "worker died or ran out of time"
        else:
            op = result["ops"][0]
            rec.update(latency=op["latency"], exit=op["exit"], error=op["error"])
            spans.append(result["spans"])
        outputs[job["name"]] = {p.name: p.read_bytes() for p in sorted(jobdir.iterdir())
                                if p.name not in BOOKKEEPING}
        records.append(rec)
    _check(jobs, records, outputs)
    return {"ops": records, "spans": spans, "outputs": outputs,
            "output_bytes": sum(len(b) for files in outputs.values() for b in files.values())}


def _check(jobs, records, outputs):
    schema = runpy.run_path(str(Path(__file__).resolve().parent.parent
                                / "src" / "oscdet" / "schemas.py"))["VERIFY_SCHEMA"]
    reports = {}
    for job, rec in zip(jobs, records):
        if rec["error"] is None:
            try:
                if rec["kind"] == "verify":
                    N, report = _check_verify(job, rec, outputs[job["name"]], schema)
                    reports[N] = report
                else:
                    _check_fig2(job, rec, outputs[job["name"]], reports)
                rec["ok"] = True
            except Exception as exc:   # any malformed output fails this job only
                rec["why"] = f"{type(exc).__name__}: {exc}"
        rec["passed"] = rec["ok"] and rec["exit"] == 0


def _argv_value(argv, flag):
    return argv[argv.index(flag) + 1]


def _check_verify(job, rec, files, schema):
    argv = job["argv"]
    N = int(_argv_value(argv, "--N"))
    grid = sorted((float(x) for x in _argv_value(argv, "--grid").split(",")), reverse=True)
    report = json.loads(files["stdout"])
    jsonschema.validate(report, schema)
    _require(report["family"] == {"N": N, "M": 2}, f"family {report['family']}")
    _require(report["grid"] == grid, f"grid {report['grid']} != {grid}")
    _require(rec["exit"] == (0 if report["passed"] else 1),
             f"exit {rec['exit']} with passed={report['passed']}")
    failing = {name for name, ok in report["verdicts"].items() if not ok}
    _require(failing <= KNOWN_DEFECTS[N], f"verdicts failed: {sorted(failing)}")
    if failing:
        rec["why"] = f"known defect, verdicts failed: {sorted(failing)}"
    # digits to which the smallest coupling reproduces the regular g -> 0 limits
    rec["limit_gaps"] = [abs(report["measured"][name][-1] - exact) / exact
                         for name, exact in REGULAR_LIMITS.items()]
    return N, report


def _rows(data: bytes, header):
    rows = list(csv.reader(io.StringIO(data.decode())))
    _require(rows and rows[0] == header, f"header {rows[:1]}")
    return rows[1:]


def _check_fig2(job, rec, files, reports):
    argv = job["argv"]
    g = float(_argv_value(argv, "--grid"))
    families = [int(x) for x in _argv_value(argv, "--families").split(",")]
    _require(rec["exit"] == 0, f"exit {rec['exit']}")
    _require(files["stdout"] == b"./fig2_left.csv\n./fig2_right.csv\n", "stdout paths")
    left = _rows(files["fig2_left.csv"], LEFT_HEADER)
    right = _rows(files["fig2_right.csv"], RIGHT_HEADER)
    _require(len(left) == len(right) == len(families), "row count")
    for N, lrow, rrow in zip(families, left, right):
        _require(N in reports, f"no verify report for N={N} to compare against")
        report = reports[N]
        i = report["grid"].index(g)
        m, p = report["measured"], report["predicted"]
        _require(lrow[:3] == [f"q2+gq{N}", str(N), repr(g)], f"left row {lrow[:3]}")
        _require([float(x) for x in lrow[5:]] == [m["zp1"][i], m["z2"][i], m["zp2"][i]],
                 f"fig2_left N={N} differs from verify")
        _require(rrow[:4] == [f"q2+gq{N}", str(N), repr(g), repr(math.log(g))],
                 f"right row {rrow[:4]}")
        _require([float(x) for x in rrow[4:]] == [m["z1"][i], p["z1"][i]],
                 f"fig2_right N={N} differs from verify")


def compare_outputs(untraced: dict, traced: dict):
    """Tracing must not change a byte of what the CLI writes."""
    for rec in traced["ops"]:
        if traced["outputs"][rec["group"]] != untraced["outputs"][rec["group"]]:
            rec["ok"] = rec["passed"] = False
            rec["why"] = "traced outputs differ from untraced"
