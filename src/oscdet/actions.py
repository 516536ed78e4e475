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

from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import DomainError, PoleError, TailPreconditionError
from .potential import (
    PotentialSpec,
    beta_coefficients,
    binomial_series,
    expansion_parameter,
    residue_level_coefficient,
)
from .special_functions import LOG2, Jet1, digamma, log_gamma

_FINITE_PART_SHIFT = 2.0 * (1.0 - LOG2)  # finite-part normalization constant


@dataclass(frozen=True)
class ActionValue:
    value: float
    method: str            # "closed-normal" | "closed-anomalous" | "numeric-regularized"
    level: int | None      # anomaly level when closed-anomalous
    residue_used: Jet1

    def __post_init__(self):
        if self.method == "closed-anomalous" and self.residue_used.value == 0.0:
            raise DomainError("anomalous closed form requires a nonzero residue")


def _is_near_nonpositive_int(x: float, tol: float = 1e-9) -> bool:
    return x < 0.5 and abs(x - round(x)) < tol and round(x) <= 0


def binomial_action_s(u: float, v: float, N: float, M: float, s: float) -> float:
    """Analytic continuation of int_0^inf (u q^N + v q^M)^{1/2-s} dq.

    Gamma(a_s) Gamma(-b_s) / ((N-M) Gamma(s-1/2)) u^{-a_s} v^{b_s} with
    a_s = (M(1-2s)+2)/(2(N-M)), b_s = (N(1-2s)+2)/(2(N-M)).  Raises
    PoleError when either numerator Gamma sits at a pole; callers use that
    to detect the anomalous configurations.
    """
    if not (N > M >= 0):
        raise DomainError("need N > M >= 0")
    if u <= 0.0 or v <= 0.0:
        raise DomainError("need u, v > 0")
    a_s = (M * (1.0 - 2.0 * s) + 2.0) / (2.0 * (N - M))
    b_s = (N * (1.0 - 2.0 * s) + 2.0) / (2.0 * (N - M))
    if _is_near_nonpositive_int(a_s):
        raise PoleError(f"Gamma({a_s}) pole in the M-factor", factor="first")
    if _is_near_nonpositive_int(-b_s):
        raise PoleError(f"Gamma({-b_s}) pole in the N-factor", factor="second")
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
    """Closed anomalous-branch value at level j (even the exponents may be real)."""
    beta0 = residue_level_coefficient(j) * u ** (0.5 - j) * v**j
    bracket = (-math.log(v) + _harmonic_number(j)
               + (2.0 * M / N) * (LOG2 + 0.5 * math.log(u) - _odd_reciprocal_sum(j - 1)))
    value = 2.0 * j * beta0 / (N + 2.0) * bracket
    # jet of beta_{-1}(s) including the u^{1/2-s-j} dependence
    deriv = beta0 * (digamma(j - 0.5) - digamma(-0.5) - math.log(u))
    return ActionValue(value, "closed-anomalous", j, Jet1(beta0, deriv))


def binomial_action(u: float, v: float, N: float, M: float) -> ActionValue:
    """int_0^inf (u q^N + v q^M)^{1/2} dq, regularized.

    Dispatches on (N+2)/(2(N-M)): the Eulerian closed form when it is not a
    positive integer, the anomalous finite-part form at level j otherwise.
    """
    if not (N > M >= 0):
        raise DomainError("need N > M >= 0")
    if u <= 0.0 or v <= 0.0:
        raise DomainError("need u, v > 0")
    jr = (N + 2.0) / (2.0 * (N - M))
    j = round(jr)
    if abs(jr - j) < 1e-9 and j >= 1:
        return anomalous_binomial_action(u, v, N, M, j)
    return ActionValue(binomial_action_s(u, v, N, M, 0.0), "closed-normal", None, Jet1.zero())


def _suggest_tail_point(spec: PotentialSpec, target: float) -> float:
    """A q where expansion_parameter(spec, q) is at most target / 2."""
    return max((4.0 * spec.v / (target * spec.u)) ** (1.0 / (spec.N - spec.M)),
               (4.0 * abs(spec.lam) / (target * spec.u) + 1e-30) ** (1.0 / spec.N),
               1.0)


def adaptive_tail(spec: PotentialSpec, q: float, abs_tol: float = 1e-11) -> float:
    """int_q^inf Pi dq with the zeta-regularized finite-part normalization.

    Integrates the orders of ``binomial_series`` term by term,
    beta_rho q^rho -> -beta_rho q^{rho+1} / (rho + 1), and stops after the
    first order k with sqrt(u) |binom(1/2, k)| x^k q^{N/2+1} <= abs_tol,
    x = expansion_parameter(spec, q).  That bounds the order's integrated
    terms (|rho + 1| >= 1), and each later bound is at most x times the one
    before, so the orders left out add at most abs_tol x / (1 - x), below
    abs_tol since x <= 1/2 is required.  The rho = -1 term is replaced by its
    finite part, read off the residue jet of ``beta_coefficients``.
    """
    if q <= 0.0:
        raise DomainError("tail point q must be positive")
    x = expansion_parameter(spec, q)
    if x > 0.5:
        raise TailPreconditionError(
            f"large-q series not decreasing at q = {q} (expansion parameter {x:.3g})",
            suggested_q=_suggest_tail_point(spec, 0.5))
    scale = q ** (spec.N // 2 + 1)
    total = 0.0
    for bound, terms in binomial_series(spec, q):
        for rho, value, _ in terms:
            if rho != -1:
                total -= value * scale / (rho + 1)
        if bound * scale <= abs_tol:
            break
    # finite part of the rho = -1 term plus the fixed normalization shift
    residue = beta_coefficients(spec, -1).residue()
    return total + (-residue.value * math.log(q) + residue.deriv / spec.N
                    + _FINITE_PART_SHIFT * residue.value / spec.N)


def _momentum(spec: PotentialSpec):
    def pi(q):
        return math.sqrt(spec.value(q))
    return pi


def _check_positive_momentum(spec: PotentialSpec):
    # V is nondecreasing on [0, inf) for u > 0, v >= 0, so the minimum is at 0
    if spec.lam < 0.0:
        raise DomainError("Pi^2 vanishes on the integration path (lam < 0)")


def choose_split_point(spec: PotentialSpec) -> float:
    """Split point of improper_action: the smallest q >= 1 where the tail
    series converges with expansion parameter x <= 0.2.

    Head and tail cancel and each grows like q^{N/2+1}, so a larger q loses
    digits: for q^10 + 100 q^8 at x = 0.05 (q = 44.7) each is 1.4e9 and
    their sum misses the closed form by 5e-7.
    """
    if expansion_parameter(spec, 1.0) <= 0.2:
        return 1.0
    return brentq(lambda q: expansion_parameter(spec, q) - 0.2,
                  1.0, _suggest_tail_point(spec, 0.4))


def improper_action(spec: PotentialSpec, tol: float = 1e-9,
                    split_q: float | None = None) -> ActionValue:
    """int_0^inf Pi dq = quadrature on [0, Q] + regularized tail from Q,
    each to tol / 10."""
    _check_positive_momentum(spec)
    q_split = choose_split_point(spec) if split_q is None else split_q
    head, _ = quad(_momentum(spec), 0.0, q_split,
                   epsabs=tol / 10.0, epsrel=1e-12, limit=200)
    tail = adaptive_tail(spec, q_split, tol / 10.0)
    residue = beta_coefficients(spec, -1).residue()
    return ActionValue(head + tail, "numeric-regularized", None, residue)


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
