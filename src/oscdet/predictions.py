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
    if not (N > M >= 2):
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

@dataclass(frozen=True)
class PointMeasurement:
    """Everything the harness extracts at a single coupling."""

    g: float
    v: float
    z1: float                 # Z_g(1;0)
    zp1: float                # Z_g^P(1;0)
    z2: float                 # Z_g(2;0)
    zp2: float                # Z_g^P(2;0)
    slope: float              # d/dE log[det_g(E)/det_0(E)] at E = 0
    ratio0: float             # log[det_g(0)/det_0(0)]
    skew_ratio0: float        # log[det^P_g(0)/det^P_0(0)]


def measure_point(N: int, g: float, *, count: int = 64, tol: float = 1e-6) -> PointMeasurement:
    """Measure the M = 2 family q^2 + g q^N at one coupling.

    Every zeta value and the determinants at E = 0 come from one
    sensitivity shot of q^2 + g q^N.  ``v`` is the Symanzik partner's
    coupling, for the Fig. 2 axis.
    """
    # count and tol are unused; the benchmark's tracer binds them by name
    spec = PotentialSpec(N, 2, g, 1.0, 0.0)

    # the determinants at E = 0 and the zetas Z(1), Z(2) and Z^P(1), Z^P(2)
    det, full, skew = det_jet(spec, 0.0)
    z1 = full[0]
    slope = -z1 + 0.5 * (EULER_GAMMA + LOG2)

    return PointMeasurement(g=g, v=symanzik_map(2, N, g, 0.0)[0], z1=z1, zp1=skew[0],
                            z2=full[1], zp2=skew[1], slope=slope,
                            ratio0=det.log_abs_full - _LOG_SQRT2,
                            skew_ratio0=det.log_abs_skew - _HARMONIC_SKEW0)


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
            row = [repr(g)]
            for n in names:
                row += [repr(self.predicted[n][i]), repr(self.measured[n][i]),
                        repr(self.residuals[n][i])]
            yield row


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

    predicted = {
        "z1": [predict_Z1(N, g) for g in grid],
        "zp1": [_PI / 4.0] * len(grid),
        "z2": [_PI * _PI / 8.0] * len(grid),
        "zp2": [CATALAN] * len(grid),
        "slope": [(math.log(g) - N * LOG2) / (N - 2.0) for g in grid],
        "ratio0": [predict_det_ratio_g(N, 2, g, 0.0) for g in grid],
        "skew_ratio0": [0.0] * len(grid),
    }
    measured = {k: [getattr(p, k) for p in points] for k in predicted}
    residuals = {k: [m - q for m, q in zip(measured[k], predicted[k])]
                 for k in predicted}

    abs_z1 = [abs(r) for r in residuals["z1"]]
    slope_rel = [abs(r / q) for r, q in zip(residuals["slope"], predicted["slope"])]
    islope = min(range(len(grid)), key=lambda i: abs(grid[i] - _SLOPE_CHECK_G))

    verdicts = {
        "z1_monotone": _monotone_decreasing(abs_z1),
        "z1_final": abs_z1[-1] <= _Z1_ABS_MAX,
        "zp1_regular": _monotone_decreasing([abs(r) for r in residuals["zp1"]]),
        "z2_regular": _monotone_decreasing([abs(r) for r in residuals["z2"]]),
        "zp2_regular": _monotone_decreasing([abs(r) for r in residuals["zp2"]]),
        "skew_det_stable": _monotone_decreasing([abs(r) for r in residuals["skew_ratio0"]]),
        "slope_trend": (_monotone_decreasing(slope_rel[:islope + 1])
                        and slope_rel[islope] <= _SLOPE_REL_MAX),
        "ratio0_trend": _monotone_decreasing([abs(r) for r in residuals["ratio0"]]),
    }

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
            left.append([f"q2+gq{N}", str(N), repr(p.g), repr(p.v), repr(1.0 / p.v),
                         repr(p.zp1), repr(p.z2), repr(p.zp2)])
            right.append([f"q2+gq{N}", str(N), repr(p.g), repr(math.log(p.g)),
                          repr(p.z1), repr(predict_Z1(N, p.g))])
    return left, right
