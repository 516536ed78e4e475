"""Real-argument special functions behind the closed-form evaluators.

Scalar log-gamma with explicit sign tracking (negative arguments such as
Gamma(-5/4) occur routinely in the action formulas), digamma, the zeta sum
over an arithmetic ladder and its alternating sibling, generalized binomial
coefficients with their derivative in the upper argument (by recurrence in k).

Digamma and the two ladder zetas share one table of Bernoulli numbers: each
shifts the argument up until the large-argument series converges to
rounding, so that scipy.special, and the import time it costs every
interpreter, is not needed for three scalar functions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

EULER_GAMMA = 0.57721566490153286061
CATALAN = 0.91596559417721901505
LOG2 = 0.69314718055994530942

# B_n for even n; the odd ones past B_1 vanish
BERNOULLI = {2: Fraction(1, 6), 4: Fraction(-1, 30), 6: Fraction(1, 42),
             8: Fraction(-1, 30), 10: Fraction(5, 66), 12: Fraction(-691, 2730),
             14: Fraction(7, 6), 16: Fraction(-3617, 510)}
# psi(y) ~ log y - 1/(2y) - sum_n B_n/(n y^n); from y = 10 on, the first
# omitted term is 3e-18
_PSI_SERIES = tuple(float(b / n) for n, b in BERNOULLI.items())
_PSI_SHIFT = 10.0
# Euler-Maclaurin weights B_n/n!, and Boole's (2^n - 1) B_n/n! for alternating sums
_EM_SERIES = tuple(float(b / math.factorial(n)) for n, b in BERNOULLI.items())
_BOOLE_SERIES = tuple(float((2**n - 1) * b / math.factorial(n)) for n, b in BERNOULLI.items())


@dataclass(frozen=True)
class Jet1:
    """Value and first s-derivative of a function of s, taken at s = 0."""

    value: float
    deriv: float

    def __post_init__(self):
        if not (math.isfinite(self.value) and math.isfinite(self.deriv)):
            raise DomainError("Jet1 fields must be finite")

    @staticmethod
    def zero() -> "Jet1":
        return Jet1(0.0, 0.0)


def _is_nonpositive_integer(x: float) -> bool:
    # -inf, where the poles accumulate, counts as one
    return x <= 0.0 and (x == -math.inf or x == math.floor(x))


def _cotpi(x: float) -> float:
    """cos(pi*x)/sin(pi*x) with the argument reduced to a half period."""
    r = math.remainder(x, 1.0)  # r in [-0.5, 0.5]
    if r == 0.0:
        raise DomainError("cot(pi x) pole at integer x")
    return math.cos(math.pi * r) / math.sin(math.pi * r)


def log_gamma(x: float) -> tuple[float, float]:
    """Return (log|Gamma(x)|, sign of Gamma(x)).

    Raises DomainError at the poles x = 0, -1, -2, ...
    """
    if _is_nonpositive_integer(x):
        raise DomainError(f"Gamma pole at x = {x}")
    # Gamma changes sign at each pole: negative on (-1, 0), (-3, -2), ...
    sign = -1.0 if x < 0.0 and math.floor(x) % 2 else 1.0
    return math.lgamma(x), sign


def gamma(x: float) -> float:
    """Signed Gamma(x) for moderate arguments."""
    lg, sign = log_gamma(x)
    return sign * math.exp(lg)


def _psi_positive(x: float) -> float:
    """psi(x) for x > 0: psi(x) = psi(x + n) - sum_k<n 1/(x + k), with x + n
    at least _PSI_SHIFT, where the asymptotic series is exact to rounding."""
    n = math.ceil(_PSI_SHIFT - x) if x < _PSI_SHIFT else 0
    y = x + n
    w = 1.0 / y
    series = 0.0
    for c in reversed(_PSI_SERIES):
        series = series * (w * w) + c
    psi = math.log(y) - 0.5 * w - series * (w * w)
    return psi - math.fsum(1.0 / (x + k) for k in range(n))


def digamma(x: float) -> float:
    """psi(x) = Gamma'(x)/Gamma(x).

    Negative arguments go through psi(x) = psi(1-x) - pi cot(pi x) with the
    cotangent's argument reduced first, which keeps full relative accuracy
    next to the poles.
    """
    if _is_nonpositive_integer(x):
        raise DomainError(f"digamma pole at x = {x}")
    if x < 0.0:
        return _psi_positive(1.0 - x) - math.pi * _cotpi(x)
    return _psi_positive(x)


def _inverse_power(x: float, s: int) -> float:
    """x^-s, inf once it is beyond double range."""
    try:
        return x ** -s
    except OverflowError:
        return math.inf


def _sum_or_inf(terms) -> float:
    """Correctly rounded sum of non-negative terms, inf beyond double range."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def ladder_zeta(s: int, first: float, step: float) -> float:
    """sum_k>=0 (first + k step)^-s for an integer s >= 2.

    The sum is taken in the ladder's own units, with no factor step^-s
    (which underflows where the Hurwitz zeta it multiplies overflows): the
    levels below y = s + 10 steps are summed directly, and the rest by
    Euler-Maclaurin, Y^(1-s)/step [1/(s-1) + 1/(2y) + sum_n B_n/n! (s)_(n-1)
    y^-n] with Y the first level left out, y = Y/step and (s)_m the rising
    factorial.  The direct sum stops once what is left is below rounding, so
    the cost does not grow with s.
    """
    if s < 2:
        raise DomainError("ladder zeta needs s >= 2")
    if not (first > 0.0 and step > 0.0):
        raise DomainError("ladder zeta needs a positive first level and step")
    y_min = s + 10.0
    terms = []
    total = 0.0
    level, y = first, first / step
    while y < y_min:
        term = _inverse_power(level, s)
        terms.append(term)
        total += term
        # what is left is at most the integral term y/(s-1) beyond this level
        if term * y / (s - 1) <= 2.0 ** -54 * total:
            return _sum_or_inf(terms)
        level = first + len(terms) * step
        y = level / step
    w = 1.0 / y
    rising = s * w                      # (s)_(n-1) y^-(n-1), from n = 2
    series = 0.0
    for n, c in zip(BERNOULLI, _EM_SERIES):
        series += c * rising
        rising *= (s + n - 1) * (s + n) * (w * w)
    bracket = 1.0 / (s - 1) + w * (0.5 + series)
    terms.append(_inverse_power(level, s - 1) / step * bracket)
    return _sum_or_inf(terms)


def alternating_ladder_zeta(s: int, first: float, step: float) -> float:
    """sum_k>=0 (-1)^k (first + k step)^-s for an integer s >= 1.

    Summed in units of the first level, as first^-s times the ratio
    sum_k (-1)^k (1 + k t)^-s, t = step/first, which lies in [1/2, 1].  Each
    term is exp(-s log1p(k t)): a level rounded before its s-th power would
    carry s times its rounding into the term.  As ``ladder_zeta`` sums
    its ladder, the levels below y = 3 (s + 16) steps are summed directly,
    until a term is below rounding, and the rest by Boole's summation
    (Euler-Maclaurin for alternating sums), (-1)^K Y^-s [1/2 +
    sum_n (2^n - 1) B_n/n! (s)_(n-1) y^(1-n)], with Y the K-th level and
    y = Y/step; from that y on, the first term left out, n = 18, is below
    2^-54 of the bracket.  A first^-s beyond double range is taken in two
    factors, so the result is inf only where the sum is.
    """
    if s < 1:
        raise DomainError("alternating ladder zeta needs s >= 1")
    if not (first > 0.0 and step > 0.0):
        raise DomainError("alternating ladder zeta needs a positive first level and step")
    t, y0 = step / first, first / step

    def term(k):     # (-1)^k (1 + k t)^-s; t = inf leaves the first level alone
        return (-1.0) ** k * (math.exp(-s * math.log1p(k * t)) if k else 1.0)

    terms = []
    total = 0.0
    while y0 + len(terms) < 3.0 * (s + 16):
        terms.append(term(len(terms)))
        total += terms[-1]
        # what is left is at most the next term, which is below this one
        if abs(terms[-1]) <= 2.0 ** -54 * abs(total):
            break
    else:
        w = 1.0 / (y0 + len(terms))
        rising = s * w                  # (s)_(n-1) y^-(n-1), from n = 2
        series = 0.0
        for n, c in zip(BERNOULLI, _BOOLE_SERIES):
            series += c * rising
            rising *= (s + n - 1) * (s + n) * (w * w)
        terms.append(term(len(terms)) * (0.5 + series))
    ratio = math.fsum(terms)
    scale = _inverse_power(first, s)
    if scale < math.inf:
        return ratio * scale
    try:
        return ratio / first ** (s - s // 2) * first ** -(s // 2)
    except (OverflowError, ZeroDivisionError):
        return math.inf


def binomial_jets(alpha: float):
    """(binom(alpha, k), d/d(alpha) binom(alpha, k)) for k = 0, 1, 2, ...

    binom(alpha, k+1) = binom(alpha, k) (alpha - k) / (k + 1), differentiated
    by the product rule, so the derivative stays exact where a factor
    alpha - k vanishes.
    """
    value, deriv = 1.0, 0.0
    for k in itertools.count():
        yield value, deriv
        value, deriv = value * (alpha - k) / (k + 1), (deriv * (alpha - k) + value) / (k + 1)
