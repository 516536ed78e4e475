"""Spectral zeta functions, determinants, and the shooting evaluator.

Determinants are zeta-regularized and carried in log/sign form: the
canonical recessive solution picks up hundreds of e-folds between the WKB
matching point and the origin, and the interesting regimes push the
determinants themselves far outside double range.

The shooting evaluator integrates the recessive solution inward in a WKB
gauge: A = Psi e^{-phi}, Bhat = Psi' e^{-phi} / Pi with
phi = -(1/4) log P + T(q), where T is the zeta-regularized tail action.
Both components stay O(1) all the way down, nodes of Psi pass through
A = 0 with their sign intact, and the boundary data at the origin are the
parity determinants.  The other mode decays in the gauge at rate 2 sqrt(P),
so the system is stiff where P is large; scipy's LSODA (``odeint``) switches
to its BDF branch there, and its steps follow how fast P varies rather than
1/sqrt(P) (Petzold, SIAM J. Sci. Stat. Comput. 4 (1983) 136).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.special
from scipy.integrate import ODEintWarning, odeint, quad

from .actions import adaptive_tail
from .errors import AccuracyError, DivergenceError, DomainError
from .potential import PotentialSpec, classify, expansion_parameter
from .spectrum import (
    DEFAULT_MAX_COUNT,
    SpectrumResult,
    bs_level,
    bs_tail,
    eigenvalues,
    turning_point,
)
from .special_functions import LOG2, digamma, log_gamma

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


# --------------------------------------------------------------------------
# value containers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DeterminantValue:
    """Parity determinants in log/sign form; full and skew are derived."""

    log_abs_even: float
    sign_even: float
    log_abs_odd: float
    sign_odd: float
    method: str            # "product" | "closed-harmonic" | "shooting"

    @property
    def log_abs_full(self) -> float:
        return self.log_abs_even + self.log_abs_odd

    @property
    def sign_full(self) -> float:
        return self.sign_even * self.sign_odd

    @property
    def log_abs_skew(self) -> float:
        return self.log_abs_even - self.log_abs_odd

    @property
    def even(self) -> float:
        return self.sign_even * math.exp(self.log_abs_even)

    @property
    def odd(self) -> float:
        return self.sign_odd * math.exp(self.log_abs_odd)

    @property
    def full(self) -> float:
        return self.sign_full * math.exp(self.log_abs_full)

    @property
    def skew(self) -> float:
        if self.sign_odd == 0.0:
            return math.inf
        return self.sign_even / self.sign_odd * math.exp(self.log_abs_skew)


@dataclass(frozen=True)
class ZetaValue:
    s: int
    E: float
    value: float
    tail_fraction: float


# --------------------------------------------------------------------------
# shooting determinant
# --------------------------------------------------------------------------

def _wkb_next_correction(work: PotentialSpec, q: float) -> float:
    """w2/Pi: relative size of the second log-derivative correction."""
    p = work.value(q)
    dp = work.deriv(q)
    d2p = work.deriv2(q)
    w2 = -d2p / (8.0 * p**1.5) + 5.0 * dp * dp / (32.0 * p**2.5)
    return abs(w2) / math.sqrt(p)


def _choose_q_max(work: PotentialSpec, threshold: float = 1e-8) -> float:
    """Matching point: WKB residual below threshold and the tail expansion
    parameter small enough for a fast-converging series."""
    scale = max(1.0,
                (work.v / work.u) ** (1.0 / (work.N - work.M)) if work.v > 0 else 0.0,
                (abs(work.lam) / work.u) ** (1.0 / work.N) if work.lam != 0 else 0.0)
    q = 2.0 * scale
    while (_wkb_next_correction(work, q) > threshold
           or expansion_parameter(work, q) > 0.2):
        q *= 1.2
    return q


_PLAIN_THRESHOLD = 4.0   # drop the WKB gauge once P falls below this
_RTOL = 1e-11            # LSODA tolerances of both sweeps
_ATOL = 1e-13
_MXSTEP = 10000          # LSODA's default of 500 is below the 540-860 steps of
                         # the stiff sweeps (q^4 + v q^2 at v = 464 to 10^6)


def _sweep(rhs, q0: float, q1: float, y0) -> np.ndarray:
    """Integrate the two-component system y' = rhs(q, y) from q0 to q1 with
    LSODA; a solver failure is an accuracy error, not a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ODEintWarning)
        ys, info = odeint(rhs, y0, [q0, q1], tfirst=True, rtol=_RTOL, atol=_ATOL,
                          mxstep=_MXSTEP, full_output=True)
    if info["message"] != "Integration successful.":
        raise AccuracyError(f"shooting integrator failed: {info['message']}")
    return ys[-1]


def shooting_det(spec: PotentialSpec, lam: float = 0.0, *,
                 q_max: float | None = None) -> DeterminantValue:
    """Parity determinants of -d^2/dq^2 + u q^N + v q^M + (spec.lam + lam).

    The recessive solution is normalized at q_max by its regularized WKB
    form (including the first two log-derivative corrections, which keep
    q_max moderate) and integrated inward; D- = Psi(0), D+ = -Psi'(0).
    Both sweeps run through LSODA; a solver failure raises AccuracyError.
    """
    work = spec.with_shift(lam)
    if q_max is None:
        q_max = _choose_q_max(work)
    elif _wkb_next_correction(work, q_max) > 1e-6:
        raise DomainError(f"q_max = {q_max} too small: WKB residual test fails")

    P, dP, d2P = work.value, work.deriv, work.deriv2

    def pi(q):
        return math.sqrt(P(q))

    # initialization at q_max: w through second order, ell through ell_2
    p0 = P(q_max)
    w_init = (-math.sqrt(p0) - dP(q_max) / (4.0 * p0)
              - d2P(q_max) / (8.0 * p0**1.5)
              + 5.0 * dP(q_max) ** 2 / (32.0 * p0**2.5))
    tail_int, _ = quad(lambda q: dP(q) ** 2 / P(q) ** 2.5, q_max, np.inf,
                       epsabs=1e-14, epsrel=1e-12, limit=200)
    ell2 = -dP(q_max) / (8.0 * p0**1.5) + tail_int / 32.0
    a0 = math.exp(ell2)
    bh0 = w_init / math.sqrt(p0) * a0

    # gauged sweep down to where P drops to order one
    q_cut = 0.0 if P(0.0) >= _PLAIN_THRESHOLD else turning_point(work, _PLAIN_THRESHOLD)

    uu, vv, cc, NN, MM = work.u, work.v, work.lam, work.N, work.M

    def rhs_gauged(q, y):
        a, bh = y
        p = uu * q**NN + vv * q**MM + cc
        root = math.sqrt(p)
        r = (NN * uu * q ** (NN - 1) + (MM * vv * q ** (MM - 1) if MM > 0 else 0.0)) / (4.0 * p)
        s = root * (a + bh)
        return s + r * a, s - r * bh

    a_c, bh_c = _sweep(rhs_gauged, q_max, q_cut, (a0, bh0))

    if q_cut > 0.0:
        def rhs_plain(q, y):
            return y[1], (uu * q**NN + vv * q**MM + cc) * y[0]

        y0, dy0 = _sweep(rhs_plain, q_cut, 0.0, (a_c, pi(q_cut) * bh_c))
    else:
        y0, dy0 = a_c, pi(0.0) * bh_c

    bridge, _ = quad(pi, q_cut, q_max, epsabs=1e-13, epsrel=1e-12, limit=400)
    c_norm = -0.25 * math.log(P(q_cut)) + adaptive_tail(work, q_max) + bridge

    if y0 == 0.0:
        log_odd, sign_odd = -math.inf, 0.0
    else:
        log_odd, sign_odd = c_norm + math.log(abs(y0)), math.copysign(1.0, y0)
    dplus = -dy0
    if dplus == 0.0:
        log_even, sign_even = -math.inf, 0.0
    else:
        log_even, sign_even = c_norm + math.log(abs(dplus)), math.copysign(1.0, dplus)
    return DeterminantValue(log_even, sign_even, log_odd, sign_odd, "shooting")


# --------------------------------------------------------------------------
# harmonic closed forms
# --------------------------------------------------------------------------

def harmonic_det(v: float, lam: float) -> DeterminantValue:
    """det^pm(-d^2/dq^2 + v q^2 + lam) in closed form.

    Parity spectra sqrt(v)(4k + a), a = 1, 3, are Hurwitz ladders, so each
    zeta-regularized parity determinant is an explicit Gamma expression;
    eigenvalues of the full problem give determinant zero.
    """
    if v <= 0.0:
        raise DomainError("v must be positive")
    w = lam / math.sqrt(v)
    base = math.log(4.0) + 0.5 * math.log(v)   # log of the ladder spacing
    out = {}
    for a, name in ((1.0, "even"), (3.0, "odd")):
        x = (a + w) / 4.0
        if x <= 0.0 and x == round(x):
            out[name] = (-math.inf, 0.0)
            continue
        lg, sg = log_gamma(x)
        out[name] = ((0.5 - x) * base + _HALF_LOG_2PI - lg, sg)
    return DeterminantValue(out["even"][0], out["even"][1],
                            out["odd"][0], out["odd"][1], "closed-harmonic")


def harmonic_resolvent_reg(E: float) -> float:
    """Regularized -d/dE log det(-d^2/dq^2 + q^2 - E), the g = 0 limit of
    the singular s = 1 zeta value."""
    return -0.5 * (digamma(0.5 * (1.0 - E)) + LOG2)


# --------------------------------------------------------------------------
# spectral zeta functions over computed spectra
# --------------------------------------------------------------------------

_TAIL_CAP = 0.1              # largest tail fraction zeta_full accepts
_DEPTH = 12                  # averaging passes over a computed spectrum


def _check_below_ground(spectrum: SpectrumResult, E: float):
    if E >= spectrum.entries[0].value:
        raise DomainError("E must lie below the lowest eigenvalue")


def zeta_full(spec: PotentialSpec, s: int, E: float = 0.0, *,
              count: int = 128, tol: float = 1e-6) -> ZetaValue:
    """sum_k (lam_k - E)^{-s}: head over computed levels plus a tail over the
    Bohr-Sommerfeld levels (``bs_tail``).

    The eigenvalue count doubles, up to DEFAULT_MAX_COUNT, until the tail is
    at most a tenth of the total.
    """
    if s < 1:
        raise DomainError("s must be a positive integer")
    growth = 2.0 * spec.N / (spec.N + 2.0)
    if s * growth <= 1.0:
        raise DivergenceError(f"zeta(s={s}) diverges for growth exponent {growth}")

    def f(lam):
        return (lam - E) ** (-float(s))

    def df(lam):
        return -s * (lam - E) ** (-float(s) - 1.0)

    while True:
        spectrum = eigenvalues(spec, count, tol)
        _check_below_ground(spectrum, E)
        head = float(np.sum(f(spectrum.values())))
        tail = bs_tail(spec, len(spectrum), f, df)
        total = head + tail
        frac = abs(tail) / abs(total)
        if frac <= _TAIL_CAP:
            return ZetaValue(s, E, float(total), float(frac))
        if count >= DEFAULT_MAX_COUNT:
            raise AccuracyError(
                f"tail fraction {frac:.3f} above {_TAIL_CAP} at the count cap",
                best_estimate=total, err_est=abs(tail))
        count = min(2 * count, DEFAULT_MAX_COUNT)


def _alternating_sum(terms) -> tuple[float, float]:
    """sum_k (-1)^k terms_k by iterated averaging of the last partial sums,
    and the fraction of the value that the averaging added."""
    partials = np.cumsum((-1.0) ** np.arange(len(terms)) * terms)
    row = list(partials[-(2 * _DEPTH + 8):])
    for _ in range(_DEPTH):
        if len(row) < 2:
            break
        row = [0.5 * (a + b) for a, b in zip(row, row[1:])]
    value = row[-1]
    frac = abs(value - partials[-1]) / abs(value) if value else 0.0
    return float(value), float(frac)


def zeta_skew(spec: PotentialSpec, s: int, E: float = 0.0, *,
              count: int = 160, tol: float = 1e-6) -> ZetaValue:
    """sum_k (-1)^k (lam_k - E)^{-s}, alternating tail accelerated by
    iterated averaging of the partial sums."""
    if s < 1:
        raise DomainError("s must be a positive integer")
    spectrum = eigenvalues(spec, count, tol)
    _check_below_ground(spectrum, E)
    value, frac = _alternating_sum((spectrum.values() - E) ** (-float(s)))
    return ZetaValue(s, E, value, frac)


# exact harmonic references ------------------------------------------------

def _harmonic_offset(E: float, v: float) -> tuple[float, float]:
    """r = sqrt(v) and a = (r - E)/(2r): the ladder r(2k+1) - E is 2r(k + a)."""
    root = math.sqrt(v)
    if E >= root:
        raise DomainError("E must lie below the ground state")
    return root, (root - E) / (2.0 * root)


def harmonic_zeta_full(s: int, E: float = 0.0, v: float = 1.0) -> ZetaValue:
    """Full zeta over the exact ladder sqrt(v)(2k+1): (2r)^{-s} zeta(s, a)."""
    if s < 2:
        raise DivergenceError("harmonic full zeta diverges at s = 1")
    root, a = _harmonic_offset(E, v)
    value = (2.0 * root) ** (-float(s)) * float(scipy.special.zeta(s, a))
    return ZetaValue(s, E, value, 0.0)


def harmonic_zeta_skew(s: int, E: float = 0.0, v: float = 1.0) -> ZetaValue:
    """Skew zeta over the exact ladder: the even and odd levels are Hurwitz
    ladders of spacing 4r, so it is (4r)^{-s} [zeta(s, a/2) - zeta(s, (a+1)/2)],
    and [psi((a+1)/2) - psi(a/2)] / (4r) at s = 1."""
    if s < 1:
        raise DomainError("s must be a positive integer")
    root, a = _harmonic_offset(E, v)
    if s == 1:
        value = (digamma(0.5 * (a + 1.0)) - digamma(0.5 * a)) / (4.0 * root)
    else:
        value = (4.0 * root) ** (-float(s)) * float(
            scipy.special.zeta(s, 0.5 * a) - scipy.special.zeta(s, 0.5 * (a + 1.0)))
    return ZetaValue(s, E, value, 0.0)


# --------------------------------------------------------------------------
# Weierstrass-product determinant ratios (zero-free form, N > 2)
# --------------------------------------------------------------------------

def _log_factors(spec: PotentialSpec, lam: float, count: int,
                 tol: float) -> tuple[np.ndarray, float]:
    """log|1 + lam/lam_k| over the computed levels and the sign of their
    product; the sign is 0 when a factor vanishes."""
    if spec.N == 2:
        raise DomainError("N = 2 is not zero-free; use harmonic_det")
    factors = 1.0 + lam / eigenvalues(spec, count, tol).values()
    if np.any(np.abs(factors) < 1e-12):
        return factors, 0.0
    sign = -1.0 if int(np.sum(factors < 0.0)) % 2 else 1.0
    return np.log(np.abs(factors)), sign


def det_ratio(spec: PotentialSpec, lam: float, *,
              count: int = 384, tol: float = 1e-6) -> float:
    """D(lam)/D(0) = prod_k (1 + lam/lam_k): computed levels plus the tail
    over the Bohr-Sommerfeld levels (``bs_tail``), which converges for N > 2."""
    logs, sign = _log_factors(spec, lam, count, tol)
    if sign == 0.0:
        return 0.0
    tail = bs_tail(spec, len(logs), lambda x: math.log1p(lam / x),
                   lambda x: -lam / (x * (x + lam)))
    return sign * math.exp(float(np.sum(logs)) + tail)


def det_ratio_skew(spec: PotentialSpec, lam: float, *,
                   count: int = 384, tol: float = 1e-6) -> float:
    """D^P(lam)/D^P(0) = prod_k (1 + lam/lam_k)^{(-1)^k}, accelerated."""
    logs, sign = _log_factors(spec, lam, count, tol)
    if sign == 0.0:
        return 0.0
    value, _ = _alternating_sum(logs)
    return sign * math.exp(value)


# --------------------------------------------------------------------------
# spectral dilation laws
# --------------------------------------------------------------------------

def zeta0_value(ref_spec: PotentialSpec) -> float:
    """Z(0, lam) = -2 beta_{-1}(0) / N of the reference problem."""
    return -2.0 * classify(ref_spec).beta_m1.value / ref_spec.N


def dilate_det(det: DeterminantValue, r: float, ref_spec: PotentialSpec) -> DeterminantValue:
    """Map det^pm of the reference (argument lam/r folded into ref_spec.lam)
    to the determinant of the dilated spectrum lam_k -> r lam_k.

    D -> r^{Z(0)} D, D^P -> r^{1/2} D^P; the parity exponents follow from
    Z^pm(0) = (Z(0) +- 1/2)/2.
    """
    if r <= 0.0:
        raise DomainError("dilation factor must be positive")
    z0 = zeta0_value(ref_spec)
    logr = math.log(r)
    return DeterminantValue(
        det.log_abs_even + 0.5 * (z0 + 0.5) * logr, det.sign_even,
        det.log_abs_odd + 0.5 * (z0 - 0.5) * logr, det.sign_odd,
        det.method)


def dilate_zeta(z: ZetaValue, r: float) -> ZetaValue:
    """Z(s; E) of the dilated spectrum at argument r E: r^{-s} Z(s; E)."""
    if r <= 0.0:
        raise DomainError("dilation factor must be positive")
    return ZetaValue(z.s, r * z.E, r ** (-float(z.s)) * z.value, z.tail_fraction)


# --------------------------------------------------------------------------
# zeta values through determinant derivatives
# --------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def _shoot_logs(spec: PotentialSpec, mu: float) -> tuple[float, float]:
    d = shooting_det(spec, mu)
    return d.log_abs_full, d.log_abs_skew


def _stencil_derivative(fvals, delta: float, order: int) -> float:
    fm2, fm1, f0, fp1, fp2 = fvals
    if order == 1:
        return (8.0 * (fp1 - fm1) - (fp2 - fm2)) / (12.0 * delta)
    if order == 2:
        return (-(fp2 + fm2) + 16.0 * (fp1 + fm1) - 30.0 * f0) / (12.0 * delta**2)
    raise DomainError("only first and second derivatives are supported")


_STENCIL_TOL = 2e-5   # largest relative change between two stencil widths


def zeta_from_det(spec: PotentialSpec, s: int, E: float = 0.0, *,
                  skew: bool = False) -> ZetaValue:
    """Z(s; E) = -(1/(s-1)!) d^s/dE^s log det(H - E) by central differences
    of the shooting log-determinant in the spectral argument.

    Two stencil widths are compared; the width halves up to three times, and
    a disagreement still beyond 2e-5 (relative above 1) raises an accuracy
    error.
    """
    if s < 1:
        raise DomainError("s must be a positive integer")
    lam0_est = bs_level(spec, 1.0)
    if E >= 0.8 * lam0_est:
        raise DomainError("E must lie safely below the ground state")
    delta = min(0.04 * max(0.5, lam0_est), 0.2 * (0.8 * lam0_est - E) + 1e-9)
    mu0 = -E
    idx = 1 if skew else 0

    def f(mu):
        return _shoot_logs(spec, mu)[idx]

    sign = -1.0 if s % 2 == 0 else 1.0   # (-1)^{s+1} from d/dE = -d/dmu
    fact = math.factorial(s - 1)

    def estimate(d):
        vals = [f(mu0 + j * d) for j in (-2, -1, 0, 1, 2)]
        return sign * _stencil_derivative(vals, d, s) / fact

    z1 = estimate(delta)
    for _ in range(3):
        z2 = estimate(0.5 * delta)
        err = abs(z1 - z2)
        if err <= _STENCIL_TOL * max(1.0, abs(z2)):
            return ZetaValue(s, E, z2, 0.0)
        delta *= 0.5
        z1 = z2
    raise AccuracyError("finite-difference step failure in zeta_from_det",
                        best_estimate=z2, err_est=err)
