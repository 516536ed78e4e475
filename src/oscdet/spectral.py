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
parity determinants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .actions import adaptive_tail, expansion_parameter
from .errors import AccuracyError, DivergenceError, DomainError
from .potential import PotentialSpec, classify
from .spectrum import (
    DEFAULT_MAX_COUNT,
    SpectrumResult,
    bs_level,
    eigenvalue_tail_model,
    eigenvalues,
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
# embedded Dormand-Prince 4(5) stepper on plain floats
# --------------------------------------------------------------------------

def _integrate_dp45(f, t0, t1, y0, rtol, atol, hmax_fn):
    """Adaptive embedded Dormand-Prince 4(5) pair for two-component systems.

    ``f(t, u, w) -> (du, dw)``.  The stages are unrolled on plain floats;
    hmax_fn caps the step so the fast-decaying WKB mode stays inside the
    explicit stability region instead of thrashing the error control.
    """
    t = t0
    u, w = y0
    direction = 1.0 if t1 > t0 else -1.0
    span = abs(t1 - t0)
    if span == 0.0:
        return u, w
    h = direction * min(hmax_fn(t0), 0.01 * span)
    while (t1 - t) * direction > 0.0:
        if abs(h) > abs(t1 - t):
            h = t1 - t
        k1u, k1w = f(t, u, w)
        k2u, k2w = f(t + 0.2 * h, u + h * 0.2 * k1u, w + h * 0.2 * k1w)
        k3u, k3w = f(t + 0.3 * h,
                     u + h * (0.075 * k1u + 0.225 * k2u),
                     w + h * (0.075 * k1w + 0.225 * k2w))
        k4u, k4w = f(t + 0.8 * h,
                     u + h * (0.9777777777777777 * k1u - 3.7333333333333334 * k2u
                              + 3.5555555555555554 * k3u),
                     w + h * (0.9777777777777777 * k1w - 3.7333333333333334 * k2w
                              + 3.5555555555555554 * k3w))
        k5u, k5w = f(t + 0.8888888888888888 * h,
                     u + h * (2.9525986892242035 * k1u - 11.595793324188385 * k2u
                              + 9.822892851699436 * k3u - 0.2908093278463649 * k4u),
                     w + h * (2.9525986892242035 * k1w - 11.595793324188385 * k2w
                              + 9.822892851699436 * k3w - 0.2908093278463649 * k4w))
        k6u, k6w = f(t + h,
                     u + h * (2.8462752525252526 * k1u - 10.757575757575758 * k2u
                              + 8.906422717743473 * k3u + 0.2784090909090909 * k4u
                              - 0.2735313036020583 * k5u),
                     w + h * (2.8462752525252526 * k1w - 10.757575757575758 * k2w
                              + 8.906422717743473 * k3w + 0.2784090909090909 * k4w
                              - 0.2735313036020583 * k5w))
        u5 = u + h * (0.09114583333333333 * k1u + 0.44923629829290207 * k3u
                      + 0.6510416666666666 * k4u - 0.322376179245283 * k5u
                      + 0.13095238095238096 * k6u)
        w5 = w + h * (0.09114583333333333 * k1w + 0.44923629829290207 * k3w
                      + 0.6510416666666666 * k4w - 0.322376179245283 * k5w
                      + 0.13095238095238096 * k6w)
        k7u, k7w = f(t + h, u5, w5)
        # b5 - b4 error weights
        eu = h * (0.0012326388888888888 * k1u - 0.0042527702905061394 * k3u
                  + 0.03697916666666667 * k4u - 0.05086379716981132 * k5u
                  + 0.0419047619047619 * k6u - 0.025 * k7u)
        ew = h * (0.0012326388888888888 * k1w - 0.0042527702905061394 * k3w
                  + 0.03697916666666667 * k4w - 0.05086379716981132 * k5w
                  + 0.0419047619047619 * k6w - 0.025 * k7w)
        scu = atol + rtol * max(abs(u), abs(u5))
        scw = atol + rtol * max(abs(w), abs(w5))
        err = math.sqrt(0.5 * ((eu / scu) ** 2 + (ew / scw) ** 2))
        if err <= 1.0:
            t += h
            u, w = u5, w5
        factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        h *= factor
        cap = hmax_fn(t)
        if abs(h) > cap:
            h = direction * cap
        if abs(h) < 1e-14 * max(1.0, abs(t)):
            raise AccuracyError("step size underflow in the shooting integrator")
    return u, w


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


def shooting_det(spec: PotentialSpec, lam: float = 0.0, *,
                 rtol: float = 1e-11, q_max: float | None = None) -> DeterminantValue:
    """Parity determinants of -d^2/dq^2 + u q^N + v q^M + (spec.lam + lam).

    The recessive solution is normalized at q_max by its regularized WKB
    form (including the first two log-derivative corrections, which keep
    q_max moderate) and integrated inward; D- = Psi(0), D+ = -Psi'(0).
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
    if P(0.0) >= _PLAIN_THRESHOLD:
        q_cut = 0.0
    else:
        lo, hi = 0.0, q_max
        while hi - lo > 1e-13 * q_max:
            mid = 0.5 * (lo + hi)
            if P(mid) < _PLAIN_THRESHOLD:
                lo = mid
            else:
                hi = mid
        q_cut = hi

    uu, vv, cc, NN, MM = work.u, work.v, work.lam, work.N, work.M

    def rhs_gauged(q, a, bh):
        p = uu * q**NN + vv * q**MM + cc
        root = math.sqrt(p)
        r = (NN * uu * q ** (NN - 1) + (MM * vv * q ** (MM - 1) if MM > 0 else 0.0)) / (4.0 * p)
        s = root * (a + bh)
        return s + r * a, s - r * bh

    def hmax_gauged(q):
        return 1.0 / math.sqrt(max(P(q), _PLAIN_THRESHOLD))

    a_c, bh_c = _integrate_dp45(rhs_gauged, q_max, q_cut, (a0, bh0),
                                rtol, 1e-13, hmax_gauged)

    if q_cut > 0.0:
        def rhs_plain(q, y, dy):
            return dy, (uu * q**NN + vv * q**MM + cc) * y

        def hmax_plain(q):
            return 0.25 / math.sqrt(max(abs(P(q)), 1.0))

        y0, dy0 = _integrate_dp45(rhs_plain, q_cut, 0.0,
                                  (a_c, pi(q_cut) * bh_c), rtol, 1e-13, hmax_plain)
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

def _check_below_ground(spectrum: SpectrumResult, E: float):
    if E >= spectrum.entries[0].value:
        raise DomainError("E must lie below the lowest eigenvalue")


def zeta_full(spec: PotentialSpec, s: int, E: float = 0.0, *,
              count: int = 128, tol: float = 1e-6,
              max_count: int = DEFAULT_MAX_COUNT,
              tail_cap: float = 0.1) -> ZetaValue:
    """sum_k (lam_k - E)^{-s}: head over computed levels plus a model tail.

    The tail integrates the fitted power law with the first Euler-Maclaurin
    correction; the eigenvalue count grows until the tail contributes less
    than ``tail_cap`` of the total.
    """
    if s < 1:
        raise DomainError("s must be a positive integer")
    growth = 2.0 * spec.N / (spec.N + 2.0)
    if s * growth <= 1.0:
        raise DivergenceError(f"zeta(s={s}) diverges for growth exponent {growth}")
    while True:
        spectrum = eigenvalues(spec, count, tol)
        _check_below_ground(spectrum, E)
        model = eigenvalue_tail_model(spec, spectrum)
        lam = spectrum.values()
        head = float(np.sum((lam - E) ** (-float(s))))
        K = len(spectrum)

        def f(k):
            return (model.level(k) - E) ** (-float(s))

        integral, _ = quad(f, K, np.inf, epsrel=1e-10, limit=200)
        tail = float(integral + 0.5 * f(K))
        total = head + tail
        frac = abs(tail) / abs(total)
        if frac <= tail_cap:
            return ZetaValue(s, E, float(total), float(frac))
        if count >= max_count:
            raise AccuracyError(
                f"tail fraction {frac:.3f} above {tail_cap} at the count cap",
                best_estimate=total, err_est=abs(tail))
        count = min(2 * count, max_count)


def _alternating_sum(terms, depth: int) -> tuple[float, float]:
    """sum_k (-1)^k terms_k by iterated averaging of the last partial sums,
    and the fraction of the value that the averaging added."""
    partials = np.cumsum((-1.0) ** np.arange(len(terms)) * terms)
    row = list(partials[-(2 * depth + 8):])
    for _ in range(depth):
        if len(row) < 2:
            break
        row = [0.5 * (a + b) for a, b in zip(row, row[1:])]
    value = row[-1]
    frac = abs(value - partials[-1]) / abs(value) if value else 0.0
    return float(value), float(frac)


def zeta_skew(spec: PotentialSpec, s: int, E: float = 0.0, *,
              count: int = 160, tol: float = 1e-6, depth: int = 12) -> ZetaValue:
    """sum_k (-1)^k (lam_k - E)^{-s}, alternating tail accelerated by
    iterated averaging of the partial sums."""
    if s < 1:
        raise DomainError("s must be a positive integer")
    spectrum = eigenvalues(spec, count, tol)
    _check_below_ground(spectrum, E)
    value, frac = _alternating_sum((spectrum.values() - E) ** (-float(s)), depth)
    return ZetaValue(s, E, value, frac)


# exact harmonic references ------------------------------------------------

def harmonic_zeta_full(s: int, E: float = 0.0, v: float = 1.0, *,
                       terms: int = 20000) -> ZetaValue:
    """Full zeta over the exact ladder sqrt(v)(2k+1)."""
    if s < 2:
        raise DivergenceError("harmonic full zeta diverges at s = 1")
    root = math.sqrt(v)
    if E >= root:
        raise DomainError("E must lie below the ground state")
    k = np.arange(terms)
    lam = root * (2.0 * k + 1.0)
    head = float(np.sum((lam - E) ** (-float(s))))

    def f(kk):
        return (root * (2.0 * kk + 1.0) - E) ** (-float(s))

    top = root * (2.0 * terms + 1.0) - E
    integral = top ** (1.0 - s) / (2.0 * root * (s - 1.0))
    fprime = -2.0 * root * s * top ** (-float(s) - 1.0)
    tail = integral + 0.5 * f(terms) - fprime / 12.0
    total = head + tail
    return ZetaValue(s, E, total, abs(tail) / abs(total))


def harmonic_zeta_skew(s: int, E: float = 0.0, v: float = 1.0, *,
                       terms: int = 400, depth: int = 24) -> ZetaValue:
    """Skew zeta over the exact ladder, accelerated."""
    root = math.sqrt(v)
    if E >= root:
        raise DomainError("E must lie below the ground state")
    lam = root * (2.0 * np.arange(terms) + 1.0)
    value, frac = _alternating_sum((lam - E) ** (-float(s)), depth)
    return ZetaValue(s, E, value, frac)


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
    """D(lam)/D(0) = prod_k (1 + lam/lam_k), computed levels plus a tail
    integrated over the Bohr-Sommerfeld level model."""
    logs, sign = _log_factors(spec, lam, count, tol)
    if sign == 0.0:
        return 0.0
    head = float(np.sum(logs))
    K = len(logs)

    def f(k):
        return math.log1p(lam / bs_level(spec, float(k)))

    integral, _ = quad(f, K, np.inf, epsrel=1e-9, limit=200)
    tail = integral + 0.5 * f(K)
    return sign * math.exp(head + tail)


def det_ratio_skew(spec: PotentialSpec, lam: float, *,
                   count: int = 384, tol: float = 1e-6, depth: int = 12) -> float:
    """D^P(lam)/D^P(0) = prod_k (1 + lam/lam_k)^{(-1)^k}, accelerated."""
    logs, sign = _log_factors(spec, lam, count, tol)
    if sign == 0.0:
        return 0.0
    value, _ = _alternating_sum(logs, depth)
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


def zeta_from_det(spec: PotentialSpec, s: int, E: float = 0.0, *,
                  skew: bool = False, delta: float | None = None,
                  tol: float = 2e-5, check: bool = True) -> ZetaValue:
    """Z(s; E) = -(1/(s-1)!) d^s/dE^s log det(H - E) by central differences
    of the shooting log-determinant in the spectral argument.

    Two stencil widths are compared; disagreement beyond ``tol`` raises an
    accuracy error.
    """
    if s < 1:
        raise DomainError("s must be a positive integer")
    lam0_est = bs_level(spec, 1.0)
    if E >= 0.8 * lam0_est:
        raise DomainError("E must lie safely below the ground state")
    if delta is None:
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
    if not check:
        return ZetaValue(s, E, z1, 0.0)
    for _ in range(3):
        z2 = estimate(0.5 * delta)
        err = abs(z1 - z2)
        if err <= tol * max(1.0, abs(z2)):
            return ZetaValue(s, E, z2, 0.0)
        delta *= 0.5
        z1 = z2
    raise AccuracyError("finite-difference step failure in zeta_from_det",
                        best_estimate=z2, err_est=err)
