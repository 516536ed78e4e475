"""Headline asymptotic formulas and the numeric verification harness.

Predictions assemble the closed small-g laws of the determinant ratio
and of the resolvent trace; the harness measures the same quantities from
raw numerics (one sensitivity shot of q^2 + g q^N itself per coupling)
over a decreasing coupling grid and grades the residual trends.  The grid
is the only input besides the family; the verdict thresholds are fixed
module constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .actions import binomial_action
from .errors import DomainError
from .potential import PotentialSpec, symanzik_map
from .spectral import _check_energy, det_jet, harmonic_det
from .special_functions import CATALAN, EULER_GAMMA, LOG2, digamma

_PI = math.pi
_LOG_SQRT2 = 0.5 * math.log(2.0)
# log D and log D^P of the unit harmonic oscillator at lam = 0
_HARMONIC0 = harmonic_det(1.0, 0.0)
_HARMONIC_SKEW0 = _HARMONIC0.log_abs_skew

GRID = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4)   # default couplings

# frozen thresholds for the pass/fail verdicts (calibrated once)
_Z1_ABS_MAX = 0.05          # |Z_g(1) - prediction| at the smallest g
_SLOPE_REL_MAX = 0.02       # E-slope relative deviation at _SLOPE_CHECK_G
_SLOPE_CHECK_G = 1e-3


def _check_grid(grid) -> list[float]:
    """The couplings largest first; each must be positive, finite and
    distinct (the trend verdicts are strict)."""
    if not grid or not all(math.isfinite(g) and g > 0.0 for g in grid):
        raise DomainError("grid couplings must be positive and finite")
    if len(set(grid)) != len(grid):
        raise DomainError("grid couplings must be distinct")
    return sorted(grid, reverse=True)


def _check_family(N: int) -> None:
    """Raise DomainError unless q^2 + g q^N is a family the harness measures:
    an even N > 2."""
    PotentialSpec.trinomial(N, 2, 1.0)


def _check_below_q2(E: float) -> None:
    """Raise DomainError unless E is finite and below 1, q^2's ground state."""
    _check_energy(E)
    if not E < 1.0:
        raise DomainError("E must lie below the ground state of q^2 (E < 1)")


def predict_det_ratio_g(N: int, M: int, g: float, E: float) -> float:
    """log of det(q^M + g q^N - E) / det(q^M - E) for g -> 0.

    Twice the regularized action of q^M + g q^N itself (its anomalous
    branch where the family is anomalous), plus the E-linear term
    (log g - N log 2)/(N - 2) E when M = 2, where E must lie below 1.
    """
    if not (N > M >= 2) or N % 2 or M % 2:
        raise DomainError("need even N > M >= 2")
    if g <= 0.0:
        raise DomainError("coupling g must be positive")
    (_check_below_q2 if M == 2 else _check_energy)(E)
    total = 2.0 * binomial_action(g, 1.0, N, M).value
    if M == 2:
        total += (math.log(g) - N * LOG2) / (N - 2.0) * E
    return total


def predict_Z1(N: int, g: float, E: float = 0.0) -> float:
    """g -> 0 law of the resolvent trace of q^2 + g q^N at an energy E < 1."""
    if N < 4 or N % 2:
        raise DomainError("need even N >= 4")
    if g <= 0.0:
        raise DomainError("g must be positive")
    _check_below_q2(E)
    return ((1.0 / (N - 2.0)) * (-math.log(g) + N * LOG2)
            - 0.5 * (digamma(0.5 * (1.0 - E)) + LOG2))


# --------------------------------------------------------------------------
# measurements
# --------------------------------------------------------------------------

# The graded quantities: each one's g -> 0 law at (N, g), its reader of the
# shot's (det, full, skew) at E = 0, and the name of the verdict that its
# |residual| falls monotonically, or None for slope (graded by slope_trend).
# ratio0 is log[det_g(0)/det_0(0)], slope its d/dE at E = 0.
_QUANTITIES = {
    "z1": (predict_Z1, lambda det, full, skew: full[0], "z1_monotone"),
    "zp1": (lambda N, g: _PI / 4.0, lambda det, full, skew: skew[0], "zp1_regular"),
    "z2": (lambda N, g: _PI * _PI / 8.0, lambda det, full, skew: full[1], "z2_regular"),
    "zp2": (lambda N, g: CATALAN, lambda det, full, skew: skew[1], "zp2_regular"),
    "slope": (lambda N, g: (math.log(g) - N * LOG2) / (N - 2.0),
              lambda det, full, skew: -full[0] + 0.5 * (EULER_GAMMA + LOG2), None),
    "ratio0": (lambda N, g: predict_det_ratio_g(N, 2, g, 0.0),
               lambda det, full, skew: det.log_abs_full - _LOG_SQRT2, "ratio0_trend"),
    "skew_ratio0": (lambda N, g: 0.0,
                    lambda det, full, skew: det.log_abs_skew - _HARMONIC_SKEW0,
                    "skew_det_stable"),
}


def measure_point(N: int, g: float, *, count: int = 64, tol: float = 1e-6) -> dict[str, float]:
    """Measure the M = 2 family q^2 + g q^N at one coupling.

    Returns each graded quantity by name, all read from one sensitivity
    shot of q^2 + g q^N at E = 0, and ``v``, the Symanzik partner's
    coupling, for the Fig. 2 axis.
    """
    # count and tol are unused; the benchmark's tracer binds them by name
    shot = det_jet(PotentialSpec(N, 2, g, 1.0, 0.0), 0.0)
    point = {name: read(*shot) for name, (_, read, _) in _QUANTITIES.items()}
    point["v"] = symanzik_map(2, N, g, 0.0)[0]
    return point


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

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def payload(self) -> dict:
        """The report as the JSON object that ``verify --format json`` writes."""
        return {
            "family": {"N": self.family[0], "M": self.family[1]},
            "grid": self.grid,
            "predicted": self.predicted,
            "measured": self.measured,
            "residuals": self.residuals,
            "verdicts": self.verdicts,
            "passed": self.passed,
            "notes": [],
        }

    def to_csv_rows(self):
        names = sorted(self.residuals.keys())
        yield ["g"] + [f"{n}_{kind}" for n in names
                       for kind in ("predicted", "measured", "residual")]
        for i, g in enumerate(self.grid):
            yield [g] + [table[n][i] for n in names
                         for table in (self.predicted, self.measured, self.residuals)]


def verify(N: int, grid=GRID) -> PredictionReport:
    """Run the full comparison for the family q^2 + g q^N.

    Measures each grid point, forms residuals against the closed
    predictions, and grades: monotone shrinking of the singular-quantity
    residual with a final absolute gate, monotone regular limits, and the
    determinant-ratio slope/value trends.
    """
    grid = _check_grid(grid)
    _check_family(N)
    points = [measure_point(N, g) for g in grid]

    predicted = {k: [law(N, g) for g in grid] for k, (law, _, _) in _QUANTITIES.items()}
    measured = {k: [p[k] for p in points] for k in _QUANTITIES}
    residuals = {k: [m - q for m, q in zip(measured[k], predicted[k])]
                 for k in _QUANTITIES}

    slope_rel = [abs(r / q) for r, q in zip(residuals["slope"], predicted["slope"])]
    islope = min(range(len(grid)), key=lambda i: abs(grid[i] - _SLOPE_CHECK_G))

    verdicts = {verdict: _monotone_decreasing([abs(r) for r in residuals[k]])
                for k, (_, _, verdict) in _QUANTITIES.items() if verdict}
    verdicts["z1_final"] = abs(residuals["z1"][-1]) <= _Z1_ABS_MAX
    verdicts["slope_trend"] = (_monotone_decreasing(slope_rel[:islope + 1])
                               and slope_rel[islope] <= _SLOPE_REL_MAX)

    return PredictionReport(family=(N, 2), grid=list(grid), predicted=predicted,
                            measured=measured, residuals=residuals, verdicts=verdicts)


# --------------------------------------------------------------------------
# Fig. 2 datasets
# --------------------------------------------------------------------------

def fig2_rows(families=(4, 6), grid=GRID):
    """Rows of both Fig. 2 datasets, header first, from one measurement of
    each (N, g): family,N,g,v,inv_v,ZP1,Z2,ZP2 (left) and
    family,N,g,log_g,Z1,Z1_predicted (right)."""
    grid = _check_grid(grid)
    for N in families:
        _check_family(N)
    left = [["family", "N", "g", "v", "inv_v", "ZP1", "Z2", "ZP2"]]
    right = [["family", "N", "g", "log_g", "Z1", "Z1_predicted"]]
    for N in families:
        for g in grid:
            p = measure_point(N, g)
            left.append([f"q2+gq{N}", N, g, p["v"], 1.0 / p["v"], p["zp1"], p["z2"], p["zp2"]])
            right.append([f"q2+gq{N}", N, g, math.log(g), p["z1"], predict_Z1(N, g)])
    return left, right
