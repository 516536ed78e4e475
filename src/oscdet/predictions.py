"""Headline asymptotic formulas and the numeric verification harness.

Predictions assemble the closed large-v forms of the determinant
prefactors and the small-g law for the resolvent trace; the harness
measures the same quantities from raw numerics (shooting determinants on
the rescaled side, eigenvalue sums on the direct side) over a decreasing
coupling grid and grades the residual trends.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

from .actions import level_one_log_correction, binomial_action
from .errors import DomainError
from .potential import PotentialSpec, classify, symanzik_map
from .spectral import (
    harmonic_det,
    shooting_det,
    zeta0_value,
    zeta_from_det,
    zeta_full,
    zeta_skew,
)
from .special_functions import CATALAN, EULER_GAMMA, LOG2, digamma

_PI = math.pi
_LOG_SQRT2 = 0.5 * math.log(2.0)
# log D and log D^P of the unit harmonic oscillator at lam = 0
_HARMONIC0 = harmonic_det(1.0, 0.0)
_HARMONIC_SKEW0 = _HARMONIC0.log_abs_skew


@dataclass(frozen=True)
class VerifyConfig:
    """Frozen thresholds for the pass/fail verdicts (calibrated once)."""

    grid: tuple[float, ...] = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4)
    z1_abs_max: float = 0.05          # |Z_g(1) - prediction| at the smallest g
    slope_rel_max: float = 0.02       # E-slope relative deviation at slope_check_g
    slope_check_g: float = 1e-3
    route_flag_tol: float = 1e-4      # shooting vs product-determinant discrepancy
    spectrum_count: int = 256
    spectrum_tol: float = 1e-6
    jobs: int = 1

    @staticmethod
    def from_file(path) -> "VerifyConfig":
        """key=value overrides, '#' comments allowed."""
        known = {f.name for f in fields(VerifyConfig)}
        overrides = {}
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, value = line.partition("=")
                key = key.strip()
                value = value.strip()
                if key not in known:
                    raise DomainError(f"unknown config key {key!r} in {path}")
                try:
                    if key == "grid":
                        overrides[key] = tuple(float(x) for x in value.split(","))
                    elif key in ("spectrum_count", "jobs"):
                        overrides[key] = int(value)
                    else:
                        overrides[key] = float(value)
                except ValueError as exc:
                    raise DomainError(f"bad value for config key {key!r}: {exc}") from exc
        cfg = VerifyConfig(**overrides)
        for g in cfg.grid:
            if g <= 0.0:
                raise DomainError("grid couplings must be positive")
        return cfg


def predict_det_asymptotic(N: int, M: int, v: float, lam: float) -> float:
    """log of the large-v prefactor relating the coupled determinant to the
    uncoupled one: the binomial action plus the level-1 term when M = 2."""
    if not (N > M >= 2):
        raise DomainError("need even N > M >= 2")
    total = binomial_action(1.0, v, N, M).value
    if M == 2 and lam != 0.0:
        total += (N / (N - 2.0)) * level_one_log_correction(lam, v)
    return total


def predict_det_ratio_g(N: int, M: int, g: float, E: float) -> float:
    """log of det(q^M + g q^N - E) / det(q^M - E) for g -> 0.

    Twice the binomial action, an E-linear term when M = 2, and an extra
    power of v when the coupled problem is anomalous.
    """
    if not (N > M >= 2):
        raise DomainError("need even N > M >= 2")
    v, _ = symanzik_map(M, N, g, E)
    total = 2.0 * binomial_action(1.0, v, N, M).value
    if M == 2:
        total -= (1.0 / (N - 2.0)) * (0.25 * (N + 2.0) * math.log(v) + N * LOG2) * E
    anomaly = classify(PotentialSpec.trinomial(N, M, v))
    if anomaly.is_anomalous:
        total -= 4.0 * anomaly.beta_m1.value / (N * (M + 2.0)) * math.log(v)
    return total


def predict_Z1(N: int, g: float, E: float = 0.0) -> float:
    """g -> 0 law of the resolvent trace of q^2 + g q^N at energy E."""
    if N < 4 or N % 2:
        raise DomainError("need even N >= 4")
    if g <= 0.0:
        raise DomainError("g must be positive")
    return ((1.0 / (N - 2.0)) * (-math.log(g) + N * LOG2)
            - 0.5 * (digamma(0.5 * (1.0 - E)) + LOG2))


# --------------------------------------------------------------------------
# measurements
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PointMeasurement:
    """Everything the harness extracts at a single coupling."""

    g: float
    v: float
    z1: float                 # Z_g(1;0), determinant route
    zp1_det: float            # Z_g^P(1;0), determinant route
    z2_det: float             # Z_g(2;0), determinant route
    zp1: float                # Z_g^P(1;0), spectrum route
    z2: float                 # Z_g(2;0), spectrum route
    zp2: float                # Z_g^P(2;0), spectrum route
    slope: float              # d/dE log[det_g(E)/det_0(E)] at E = 0
    ratio0: float             # log[det_g(0)/det_0(0)]
    skew_ratio0: float        # log[det^P_g(0)/det^P_0(0)]


def measure_point(N: int, g: float, *, count: int = 256, tol: float = 1e-6) -> PointMeasurement:
    """Measure the M = 2 family q^2 + g q^N at one coupling.

    s >= 1 zeta values and determinant data come from the shooting
    determinant of the Symanzik partner q^N + v q^2 (exact eigenvalue
    correspondence E_k(g) = v^{-1/2} lam_k(v)); the regular quantities are
    also summed directly over the computed spectrum of q^2 + g q^N.
    """
    v, _ = symanzik_map(2, N, g, 0.0)
    root = math.sqrt(v)
    spec_v = PotentialSpec.trinomial(N, 2, v)

    z1 = root * zeta_from_det(spec_v, 1, 0.0).value
    zp1_det = root * zeta_from_det(spec_v, 1, 0.0, skew=True).value
    z2_det = v * zeta_from_det(spec_v, 2, 0.0).value

    # determinant data at E = 0
    z0 = zeta0_value(spec_v)
    d0 = shooting_det(spec_v, 0.0)
    ratio0 = z0 * (-0.5 * math.log(v)) + d0.log_abs_full - _LOG_SQRT2
    skew_ratio0 = -0.25 * math.log(v) + d0.log_abs_skew - _HARMONIC_SKEW0
    slope = -root * zeta_from_det(spec_v, 1, 0.0).value + 0.5 * (EULER_GAMMA + LOG2)

    # direct spectrum route on q^2 + g q^N
    spec_g = PotentialSpec(N, 2, g, 1.0, 0.0)
    zp1 = zeta_skew(spec_g, 1, 0.0, count=count, tol=tol).value
    z2 = zeta_full(spec_g, 2, 0.0, count=count, tol=tol).value
    zp2 = zeta_skew(spec_g, 2, 0.0, count=count, tol=tol).value

    return PointMeasurement(g=g, v=v, z1=z1, zp1_det=zp1_det, z2_det=z2_det,
                            zp1=zp1, z2=z2, zp2=zp2, slope=slope,
                            ratio0=ratio0, skew_ratio0=skew_ratio0)


def _monotone_decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


@dataclass
class PredictionReport:
    family: tuple[int, int]
    grid: list[float]
    predicted: dict[str, list[float]]
    measured: dict[str, list[float]]
    residuals: dict[str, list[float]]
    verdicts: dict[str, bool]
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def to_json(self) -> str:
        payload = {
            "family": {"N": self.family[0], "M": self.family[1]},
            "grid": self.grid,
            "predicted": self.predicted,
            "measured": self.measured,
            "residuals": self.residuals,
            "verdicts": self.verdicts,
            "passed": self.passed,
            "notes": self.notes,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_csv_rows(self):
        names = sorted(self.residuals.keys())
        yield ["g"] + [f"{n}_{kind}" for n in names
                       for kind in ("predicted", "measured", "residual")]
        for i, g in enumerate(self.grid):
            row = [repr(g)]
            for n in names:
                row += [repr(self.predicted[n][i]), repr(self.measured[n][i]),
                        repr(self.residuals[n][i])]
            yield row


def verify(N: int, config: VerifyConfig | None = None) -> PredictionReport:
    """Run the full comparison for the family q^2 + g q^N.

    Measures each grid point, forms residuals against the closed
    predictions, and grades: monotone shrinking of the singular-quantity
    residual with a final absolute gate, monotone regular limits, and the
    determinant-ratio slope/value trends.
    """
    cfg = config or VerifyConfig()
    grid = sorted(cfg.grid, reverse=True)
    if cfg.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            points = list(pool.map(_measure_for_pool,
                                   [(N, g, cfg.spectrum_count, cfg.spectrum_tol)
                                    for g in grid]))
    else:
        points = [measure_point(N, g, count=cfg.spectrum_count, tol=cfg.spectrum_tol)
                  for g in grid]

    predicted = {
        "z1": [predict_Z1(N, g) for g in grid],
        "zp1": [_PI / 4.0] * len(grid),
        "z2": [_PI * _PI / 8.0] * len(grid),
        "zp2": [CATALAN] * len(grid),
        "slope": [(math.log(g) - N * LOG2) / (N - 2.0) for g in grid],
        "ratio0": [predict_det_ratio_g(N, 2, g, 0.0) for g in grid],
        "skew_ratio0": [0.0] * len(grid),
    }
    measured = {
        "z1": [p.z1 for p in points],
        "zp1": [p.zp1 for p in points],
        "z2": [p.z2 for p in points],
        "zp2": [p.zp2 for p in points],
        "slope": [p.slope for p in points],
        "ratio0": [p.ratio0 for p in points],
        "skew_ratio0": [p.skew_ratio0 for p in points],
    }
    residuals = {k: [m - q for m, q in zip(measured[k], predicted[k])]
                 for k in predicted}

    abs_z1 = [abs(r) for r in residuals["z1"]]
    slope_rel = [abs(r / q) for r, q in zip(residuals["slope"], predicted["slope"])]
    islope = min(range(len(grid)), key=lambda i: abs(grid[i] - cfg.slope_check_g))
    ratio_g = [abs(r) * g for r, g in zip(residuals["ratio0"], grid)]

    verdicts = {
        "z1_monotone": _monotone_decreasing(abs_z1),
        "z1_final": abs_z1[-1] <= cfg.z1_abs_max,
        "zp1_regular": _monotone_decreasing([abs(r) for r in residuals["zp1"]]),
        "z2_regular": _monotone_decreasing([abs(r) for r in residuals["z2"]]),
        "zp2_regular": _monotone_decreasing([abs(r) for r in residuals["zp2"]]),
        "skew_det_stable": _monotone_decreasing([abs(r) for r in residuals["skew_ratio0"]]),
        "slope_trend": (_monotone_decreasing(slope_rel[:islope + 1])
                        and slope_rel[islope] <= cfg.slope_rel_max),
        "ratio0_trend": _monotone_decreasing(ratio_g),
    }

    notes = []
    for p in points:
        if abs(p.zp1_det - p.zp1) > cfg.route_flag_tol:
            notes.append(f"g={p.g:g}: skew-zeta route discrepancy "
                         f"{abs(p.zp1_det - p.zp1):.2e}")
        if abs(p.z2_det - p.z2) > cfg.route_flag_tol:
            notes.append(f"g={p.g:g}: s=2 zeta route discrepancy "
                         f"{abs(p.z2_det - p.z2):.2e}")

    return PredictionReport(family=(N, 2), grid=list(grid), predicted=predicted,
                            measured=measured, residuals=residuals,
                            verdicts=verdicts, notes=notes)


def _measure_for_pool(args):
    N, g, count, tol = args
    return measure_point(N, g, count=count, tol=tol)


# --------------------------------------------------------------------------
# Fig. 2 datasets
# --------------------------------------------------------------------------

def fig2_left_rows(families=(4, 6), config: VerifyConfig | None = None):
    """family,N,g,v,inv_v,ZP1,Z2,ZP2 rows (header first)."""
    cfg = config or VerifyConfig()
    yield ["family", "N", "g", "v", "inv_v", "ZP1", "Z2", "ZP2"]
    for N in families:
        for g in sorted(cfg.grid, reverse=True):
            p = measure_point(N, g, count=cfg.spectrum_count, tol=cfg.spectrum_tol)
            yield [f"q2+gq{N}", str(N), repr(g), repr(p.v), repr(1.0 / p.v),
                   repr(p.zp1), repr(p.z2), repr(p.zp2)]


def fig2_right_rows(families=(4, 6), config: VerifyConfig | None = None):
    """family,N,g,log_g,Z1,Z1_predicted rows (header first)."""
    cfg = config or VerifyConfig()
    yield ["family", "N", "g", "log_g", "Z1", "Z1_predicted"]
    for N in families:
        for g in sorted(cfg.grid, reverse=True):
            p = measure_point(N, g, count=cfg.spectrum_count, tol=cfg.spectrum_tol)
            yield [f"q2+gq{N}", str(N), repr(g), repr(math.log(g)),
                   repr(p.z1), repr(predict_Z1(N, g))]
