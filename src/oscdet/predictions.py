"""Headline asymptotic formulas and the numeric verification harness.

Predictions assemble the closed large-v forms of the determinant
prefactors and the small-g law for the resolvent trace; the harness
measures the same quantities from raw numerics (a shooting determinant
and eigenvalue sums, both of q^2 + g q^N itself) over a decreasing coupling
grid and grades the residual trends.  The grid is the only input
besides the family; the verdict thresholds are fixed module constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .actions import binomial_action
from .errors import DomainError
from .potential import PotentialSpec, beta_coefficients, symanzik_map
from .spectral import _check_energy, det_jet, harmonic_det, zeta_full, zeta_skew
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
_ROUTE_FLAG_TOL = 1e-4      # gap between the determinant and spectrum zeta routes


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


def predict_det_ratio_g(N: int, M: int, g: float, E: float) -> float:
    """log of det(q^M + g q^N - E) / det(q^M - E) for g -> 0.

    Twice the binomial action, an E-linear term when M = 2, and an extra
    power of v when the coupled problem is anomalous: beta_{-1} log v, with
    the residue of its large-q series, which is 0 on a normal family.
    """
    if not (N > M >= 2):
        raise DomainError("need even N > M >= 2")
    _check_energy(E)
    v, _ = symanzik_map(M, N, g, E)
    total = 2.0 * binomial_action(1.0, v, N, M).value
    if M == 2:
        total -= (1.0 / (N - 2.0)) * (0.25 * (N + 2.0) * math.log(v) + N * LOG2) * E
    residue = beta_coefficients(PotentialSpec.trinomial(N, M, v), -1).residue()
    if residue.value:
        total -= 4.0 * residue.value / (N * (M + 2.0)) * math.log(v)
    return total


def predict_Z1(N: int, g: float, E: float = 0.0) -> float:
    """g -> 0 law of the resolvent trace of q^2 + g q^N at energy E."""
    if N < 4 or N % 2:
        raise DomainError("need even N >= 4")
    if g <= 0.0:
        raise DomainError("g must be positive")
    _check_energy(E)
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


def measure_point(N: int, g: float, *, count: int = 64, tol: float = 1e-6) -> PointMeasurement:
    """Measure the M = 2 family q^2 + g q^N at one coupling.

    s >= 1 zeta values and the determinants at E = 0 come from one
    sensitivity shot of q^2 + g q^N; the regular quantities are also summed
    directly over its first ``count`` levels.  The second-order
    Bohr-Sommerfeld tail of Z(2) leaves it within 1e-11 of its value at 512
    levels on N = 4, 6 and g = 1e-1 to 1e-4, and the alternating sums of
    Z^P(1), Z^P(2) need no tail.  ``v`` is the Symanzik partner's coupling,
    for the Fig. 2 axis.
    """
    spec = PotentialSpec(N, 2, g, 1.0, 0.0)

    # the determinants at E = 0 and the mu-derivatives of log D and of
    # log D+ - log D-, which give Z(1), Z^P(1), Z(2)
    det, full, skew = det_jet(spec, 0.0)
    z1 = full[0]
    slope = -z1 + 0.5 * (EULER_GAMMA + LOG2)

    zp1 = zeta_skew(spec, 1, 0.0, count=count, tol=tol).value
    z2 = zeta_full(spec, 2, 0.0, count=count, tol=tol).value
    zp2 = zeta_skew(spec, 2, 0.0, count=count, tol=tol).value

    return PointMeasurement(g=g, v=symanzik_map(2, N, g, 0.0)[0], z1=z1, zp1_det=skew[0],
                            z2_det=-full[1], zp1=zp1, z2=z2, zp2=zp2, slope=slope,
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
    notes: list[str] = field(default_factory=list)

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
            "notes": self.notes,
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
    islope = min(range(len(grid)), key=lambda i: abs(grid[i] - _SLOPE_CHECK_G))
    ratio_g = [abs(r) * g for r, g in zip(residuals["ratio0"], grid)]

    verdicts = {
        "z1_monotone": _monotone_decreasing(abs_z1),
        "z1_final": abs_z1[-1] <= _Z1_ABS_MAX,
        "zp1_regular": _monotone_decreasing([abs(r) for r in residuals["zp1"]]),
        "z2_regular": _monotone_decreasing([abs(r) for r in residuals["z2"]]),
        "zp2_regular": _monotone_decreasing([abs(r) for r in residuals["zp2"]]),
        "skew_det_stable": _monotone_decreasing([abs(r) for r in residuals["skew_ratio0"]]),
        "slope_trend": (_monotone_decreasing(slope_rel[:islope + 1])
                        and slope_rel[islope] <= _SLOPE_REL_MAX),
        "ratio0_trend": _monotone_decreasing(ratio_g),
    }

    notes = []
    for p in points:
        if abs(p.zp1_det - p.zp1) > _ROUTE_FLAG_TOL:
            notes.append(f"g={p.g:g}: skew-zeta route discrepancy "
                         f"{abs(p.zp1_det - p.zp1):.2e}")
        if abs(p.z2_det - p.z2) > _ROUTE_FLAG_TOL:
            notes.append(f"g={p.g:g}: s=2 zeta route discrepancy "
                         f"{abs(p.z2_det - p.z2):.2e}")

    return PredictionReport(family=(N, 2), grid=list(grid), predicted=predicted,
                            measured=measured, residuals=residuals,
                            verdicts=verdicts, notes=notes)


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
