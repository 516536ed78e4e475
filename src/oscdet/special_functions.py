"""Real-argument special functions behind the closed-form evaluators.

Scalar log-gamma with explicit sign tracking (negative arguments such as
Gamma(-5/4) occur routinely in the action formulas), digamma, generalized
binomial coefficients with their derivative in the upper argument (by
recurrence in k), and the odd harmonic partial sums of the sharp-cutoff
regularization.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import scipy.special

from .errors import DomainError

EULER_GAMMA = 0.57721566490153286061
CATALAN = 0.91596559417721901505
LOG2 = 0.69314718055994530942


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

    def __add__(self, other: "Jet1") -> "Jet1":
        return Jet1(self.value + other.value, self.deriv + other.deriv)

    def scaled(self, c: float) -> "Jet1":
        return Jet1(c * self.value, c * self.deriv)

    @property
    def is_zero(self) -> bool:
        return self.value == 0.0 and self.deriv == 0.0


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


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


def digamma(x: float) -> float:
    """psi(x) = Gamma'(x)/Gamma(x).

    Negative arguments go through psi(x) = psi(1-x) - pi cot(pi x) with the
    cotangent's argument reduced first, which keeps full relative accuracy
    next to the poles, where scipy's own reflection loses digits.
    """
    if _is_nonpositive_integer(x):
        raise DomainError(f"digamma pole at x = {x}")
    if x < 0.0:
        return float(scipy.special.digamma(1.0 - x)) - math.pi * _cotpi(x)
    return float(scipy.special.digamma(x))


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


def odd_harmonic_partial(K: int) -> float:
    """sum_{k=0}^{K-1} 1/(2k+1)."""
    if K < 1:
        raise DomainError("K must be a positive integer")
    # backwards summation keeps the rounding error at the 1e-16 level
    total = 0.0
    for k in range(K - 1, -1, -1):
        total += 1.0 / (2 * k + 1)
    return total
