"""Regularized improper action integrals of momentum functions.

Closed Eulerian forms for binomials u q^N + v q^M (normal and anomalous
branches), the regularized tail integral from a finite point to infinity,
and the numeric finite-part evaluation (quadrature to a split point plus
the tail) that cross-validates the closed forms and extends them to
trinomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError
from .numerics import increasing_root, integrate
from .potential import (
    PotentialSpec,
    beta_coefficients,
    binomial_series,
    expansion_parameter,
    residue_level_coefficient,
)
from .special_functions import LOG2, log_gamma

_FINITE_PART_SHIFT = 2.0 * (1.0 - LOG2)  # finite-part normalization constant


@dataclass(frozen=True)
class ActionValue:
    value: float
    method: str            # "closed-normal" | "closed-anomalous" | "numeric-regularized"
    level: int | None      # anomaly level when closed-anomalous
    residue: float         # beta_{-1}, the log term's coefficient: 0 on a normal family


def _is_near_nonpositive_int(x: float, tol: float = 1e-9) -> bool:
    return x < 0.5 and abs(x - round(x)) < tol and round(x) <= 0


def binomial_action_s(u: float, v: float, N: float, M: float, s: float) -> float:
    """Analytic continuation of int_0^inf (u q^N + v q^M)^{1/2-s} dq.

    Gamma(a_s) Gamma(-b_s) / ((N-M) Gamma(s-1/2)) u^{-a_s} v^{b_s} with
    a_s = (M(1-2s)+2)/(2(N-M)), b_s = (N(1-2s)+2)/(2(N-M)).  Raises
    DomainError when either numerator Gamma sits at a pole; at s = 0 that is
    an anomalous configuration, which binomial_action sends to the
    finite-part form before it gets here.
    """
    if not (N > M >= 0):
        raise DomainError("need N > M >= 0")
    if u <= 0.0 or v <= 0.0:
        raise DomainError("need u, v > 0")
    a_s = (M * (1.0 - 2.0 * s) + 2.0) / (2.0 * (N - M))
    b_s = (N * (1.0 - 2.0 * s) + 2.0) / (2.0 * (N - M))
    if _is_near_nonpositive_int(a_s):
        raise DomainError(f"Gamma({a_s}) pole in the M-factor")
    if _is_near_nonpositive_int(-b_s):
        raise DomainError(f"Gamma({-b_s}) pole in the N-factor")
    if s - 0.5 <= 0.0 and (s - 0.5) == round(s - 0.5):
        return 0.0  # reciprocal Gamma zero
    l1, s1 = log_gamma(a_s)
    l2, s2 = log_gamma(-b_s)
    l3, s3 = log_gamma(s - 0.5)
    log_mag = l1 + l2 - l3 - math.log(N - M) - a_s * math.log(u) + b_s * math.log(v)
    return s1 * s2 * s3 * math.exp(log_mag)


def _harmonic_number(j: int) -> float:
    return sum(1.0 / m for m in range(1, j + 1))


def _odd_reciprocal_sum(j: int) -> float:
    return sum(1.0 / (2 * m - 1) for m in range(1, j + 1))


def anomalous_binomial_action(u: float, v: float, N: float, M: float, j: int) -> ActionValue:
    """Closed anomalous-branch value at level j (even the exponents may be real).

    The residue u^{1/2-j} v^j is formed as (u^{(1/2-j)/j} v)^j, which
    overflows or underflows only when the residue does; a residue below
    double range raises AccuracyError."""
    beta0 = residue_level_coefficient(j) * (u ** ((0.5 - j) / j) * v) ** j
    if beta0 == 0.0:
        raise AccuracyError(f"the residue of {u!r} q^{N} + {v!r} q^{M} is below double range")
    bracket = (-math.log(v) + _harmonic_number(j)
               + (2.0 * M / N) * (LOG2 + 0.5 * math.log(u) - _odd_reciprocal_sum(j - 1)))
    value = 2.0 * j * beta0 / (N + 2.0) * bracket
    return ActionValue(value, "closed-anomalous", j, beta0)


def binomial_action(u: float, v: float, N: float, M: float) -> ActionValue:
    """int_0^inf (u q^N + v q^M)^{1/2} dq, regularized.

    Dispatches on (N+2)/(2(N-M)): the Eulerian closed form when it is not a
    positive integer, the anomalous finite-part form at level j otherwise.
    A value beyond double range raises AccuracyError.
    """
    if not (N > M >= 0):
        raise DomainError("need N > M >= 0")
    if u <= 0.0 or v <= 0.0:
        raise DomainError("need u, v > 0")
    jr = (N + 2.0) / (2.0 * (N - M))
    j = round(jr)
    try:
        if abs(jr - j) < 1e-9 and j >= 1:
            action = anomalous_binomial_action(u, v, N, M, j)
        else:
            action = ActionValue(binomial_action_s(u, v, N, M, 0.0), "closed-normal", None, 0.0)
    except OverflowError:
        action = None
    if action is None or not math.isfinite(action.value):
        raise AccuracyError(f"the action of {u!r} q^{N} + {v!r} q^{M} is beyond double range")
    return action


def adaptive_tail(spec: PotentialSpec, q: float, lam_deriv: int = 0) -> float:
    """int_q^inf Pi dq with the zeta-regularized finite-part normalization,
    or its lam_deriv-th derivative n = 0, 1, 2 in lam = spec.lam, to rounding.

    Integrates the orders of ``binomial_series`` (of the n-th lam-derivative)
    term by term, beta_rho q^rho -> -beta_rho q^{rho+1} / (rho + 1), and stops
    after the first order with 3 bound q^{N/2+1} <= 2^-54 of the magnitudes
    summed so far, bound the order's cap from ``binomial_series``, which
    bounds its integrated terms (|rho + 1| >= 1).  Each later bound is at most
    (3/2) x <= 3/4 times the one before, x = expansion_parameter(spec, q) <= 1/2
    (DomainError otherwise; the q of ``choose_split_point`` has x <= 0.2), so
    the orders left out add at most 3 bound q^{N/2+1}.  The rho = -1
    term is replaced by its finite part, read off the residue jet of
    ``beta_coefficients``; only for N = 2 does that residue depend on lam.
    """
    if not 0.0 < q < math.inf:
        raise DomainError(f"tail point q must be positive and finite, not {q}")
    x = expansion_parameter(spec, q)
    if not x <= 0.5:
        raise DomainError(f"large-q series not decreasing at q = {q} (expansion parameter {x:.3g})")
    scale = q ** (spec.N // 2 + 1)
    total = magnitude = 0.0
    for bound, terms in binomial_series(spec, q, lam_deriv):
        for rho, value, _ in terms:
            if rho != -1:
                term = value * scale / (rho + 1)
                total -= term
                magnitude += abs(term)
        if 3.0 * bound * scale <= 2.0 ** -54 * magnitude:
            break
    # finite part of the rho = -1 term plus the fixed normalization shift
    residue = beta_coefficients(spec, -1, lam_deriv).residue()
    return total + (-residue.value * math.log(q) + residue.deriv / spec.N
                    + _FINITE_PART_SHIFT * residue.value / spec.N)


def choose_split_point(spec: PotentialSpec) -> float:
    """Split point of improper_action, and where shooting_det starts its walk
    out to the WKB matching point: the smallest q at or beyond the length
    u^{-1/(N+2)} (``PotentialSpec.length``) where the tail series converges
    with expansion parameter x <= 0.2.

    Head and tail cancel and each grows like q^{N/2+1}, so a larger q loses
    digits: for q^10 + 100 q^8 at x = 0.05 (q = 44.7) each is 1.4e9 and
    their sum misses the closed form by 5e-7, and 1e8 q^2 split at q = 1, not
    at its length 1e-2, misses it by 4e-8.  A root bracket beyond double
    range raises AccuracyError.
    """
    q_lo = spec.length()
    if expansion_parameter(spec, q_lo) <= 0.2:
        return q_lo
    # x <= 0.1 there: each of its two terms is at most 0.05
    q_hi = max((4.0 * spec.v / (0.2 * spec.u)) ** (1.0 / (spec.N - spec.M)),
               (4.0 * abs(spec.lam) / (0.2 * spec.u) + 1e-30) ** (1.0 / spec.N), q_lo)
    if not math.isfinite(q_hi):
        raise AccuracyError(f"the tail point of {spec.to_text()!r} is beyond double range")
    N, M, u = spec.N, spec.M, spec.u

    def slope(q):    # -d/dq of the expansion parameter
        return ((N - M) * (spec.v / u) * q ** (M - N) + N * (abs(spec.lam) / u) * q**-N) / q

    return increasing_root(lambda q: -expansion_parameter(spec, q), slope, -0.2)


def improper_action(spec: PotentialSpec) -> ActionValue:
    """int_0^inf Pi dq = quadrature on [0, Q] + regularized tail from Q,
    Q = ``choose_split_point(spec)``.  The panel rule (``integrate``) takes
    the head to 1e-14 or to rounding, in t with q = s sinh t, s the q where
    P is twice P(0), at least 1e-8 Q (Q when P(0) = 0): the constant's
    correction to Pi spreads evenly over the decades beyond s, linear in t,
    where in q it lies below every point of a panel (at 1e-8 + 464 q^2,
    where s = 4.6e-6, the head in q missed 1.9e-9).  The tail series
    (``adaptive_tail``) is summed to rounding.  A value, or a Pi on the way,
    beyond double range raises AccuracyError."""
    # V is nondecreasing on [0, inf) for u > 0, v >= 0, so the minimum is at 0
    if spec.lam < 0.0:
        raise DomainError("Pi^2 vanishes on the integration path (lam < 0)")
    try:
        q_split = choose_split_point(spec)
        # below 1e-8 Q the constant's share of the head is below 1e-16 of
        # it, and with s there the head takes at most 39 panels at first
        p0, s = spec.value(0.0), q_split
        if p0 > 0.0:
            s = max(1e-8 * q_split, increasing_root(spec.value, spec.deriv, 2.0 * p0))
        head = float(integrate(lambda t: np.sqrt(spec.value(s * np.sinh(t))) * s * np.cosh(t),
                               0.0, math.asinh(q_split / s)))
        value = head + adaptive_tail(spec, q_split)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise AccuracyError(f"the action of {spec.to_text()!r} is beyond double range")
    return ActionValue(value, "numeric-regularized", None,
                       beta_coefficients(spec, -1).residue().value)


def level_one_log_correction(lam: float, v: float) -> float:
    """The level-1 anomaly correction (1/4) v^{-1/2} lam (log v + 2 log 2)."""
    return 0.25 * lam / math.sqrt(v) * (math.log(v) + 2.0 * LOG2)


def trinomial_action_asymptotic(N: int, M: int, v: float, lam: float) -> float:
    """Large-v form of int_0^inf (q^N + v q^M + lam)^{1/2} dq.

    Coupled binomial action plus the uncoupled one, plus the level-1
    correction that survives only when the uncoupled problem is harmonic.
    """
    if not (N > M >= 2):
        raise DomainError("need even N > M >= 2")
    total = binomial_action(1.0, v, N, M).value
    if lam == 0.0:
        return total
    if lam < 0.0:
        raise DomainError("lam must be nonnegative in the asymptotic form")
    total += binomial_action(v, lam, M, 0).value
    if M == 2:
        total += (N / (N - 2.0)) * level_one_log_correction(lam, v)
    return total
