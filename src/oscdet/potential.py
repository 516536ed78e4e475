"""Momentum-squared polynomials u q^N + v q^M + lambda.

Holds the potential record consumed by every other module, the large-q
expansion coefficients as order-1 jets at s = 0 (a family is anomalous where
the rho = -1 residue does not vanish), and the coordinate-dilation map
between the (q^M + g q^N, E) and (q^N + v q^M, lambda) parametrizations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

from .errors import AccuracyError, DomainError
from .special_functions import Jet1, binomial_jets


@dataclass(frozen=True)
class PotentialSpec:
    """u q^N + v q^M + lam, with N > M even and u > 0.

    ``lam`` is the constant term (minus the classical energy).  Uncoupled
    problems v q^M + lam are represented with the M-power promoted to the
    leading slot: PotentialSpec(N=M, M=0, u=v, v=0, lam=lam).
    """

    N: int
    M: int
    u: float
    v: float
    lam: float

    def __post_init__(self):
        if self.N < 2 or self.N % 2 != 0:
            raise DomainError(f"leading exponent N={self.N} must be even and >= 2")
        if self.M < 0 or self.M % 2 != 0 or self.M >= self.N:
            raise DomainError(f"subleading exponent M={self.M} must be even, >= 0, < N")
        if not self.u > 0.0:
            raise DomainError("leading coefficient u must be positive")
        if self.v < 0.0:
            raise DomainError("subleading coefficient v must be nonnegative")
        if not all(math.isfinite(x) for x in (self.u, self.v, self.lam)):
            raise DomainError("coefficients u, v and lambda must be finite")

    # --- evaluation -------------------------------------------------------

    def value(self, q):
        return self.u * q**self.N + self.v * q**self.M + self.lam

    def deriv(self, q, k=1):
        """The k-th derivative in q."""
        out = 0.0
        for power, coef in ((self.N, self.u), (self.M, self.v)):
            if power >= k:
                out = out + math.perm(power, k) * coef * q ** (power - k)
        return out

    def length(self) -> float:
        """u^{-1/(N+2)}, the length at which u q^N and the kinetic term
        -d^2/dq^2 balance; 1 for u = 1."""
        return self.u ** (-1.0 / (self.N + 2))

    def with_shift(self, dlam: float) -> "PotentialSpec":
        return replace(self, lam=self.lam + dlam)

    # --- CLI text format: "N M u v lambda" --------------------------------

    @staticmethod
    def from_text(text: str) -> "PotentialSpec":
        parts = text.split()
        if len(parts) != 5:
            raise DomainError("potential spec must be 'N M u v lambda'")
        try:
            N, M = int(parts[0]), int(parts[1])
            u, v, lam = (float(x) for x in parts[2:])
        except ValueError as exc:
            raise DomainError(f"bad potential spec {text!r}: {exc}") from exc
        return PotentialSpec(N, M, u, v, lam)

    def to_text(self) -> str:
        return f"{self.N} {self.M} {self.u!r} {self.v!r} {self.lam!r}"

    @staticmethod
    def trinomial(N: int, M: int, v: float, lam: float = 0.0) -> "PotentialSpec":
        return PotentialSpec(N=N, M=M, u=1.0, v=v, lam=lam)


@dataclass(frozen=True)
class BetaTable:
    """Coefficients of (V + lam)^{1/2-s} ~ sum_rho beta_rho(s) q^{rho - N s}.

    Entries are order-1 jets at s = 0, keyed by the integer rho from N/2 down
    to rho_min; a rho that no term reaches has no entry and reads as zero.
    """

    entries: dict  # int -> Jet1, descending rho

    def at(self, rho: int) -> Jet1:
        return self.entries.get(rho, Jet1.zero())

    def residue(self) -> Jet1:
        """beta_{-1}, the coefficient of the log term: zero on a normal family."""
        return self.at(-1)


def residue_level_coefficient(j: int) -> float:
    """(-1)^{j-1} (2j-2)! / (2^{2j-1} (j-1)! j!) -- the u=v=1 residue value."""
    return ((-1) ** (j - 1) * math.factorial(2 * j - 2)
            / (2 ** (2 * j - 1) * math.factorial(j - 1) * math.factorial(j)))


def expansion_parameter(spec: PotentialSpec, q: float) -> float:
    """x = (v/u) q^{M-N} + (|lam|/u) q^{-N}, the size of the small quantity
    the large-q binomial series expands in.

    Order k of the series at q is at most sqrt(u) |binom(1/2, k)| x^k q^{N/2}
    in magnitude, so the orders decay at least geometrically at rate x.
    """
    return (spec.v / spec.u) * q ** (spec.M - spec.N) + (abs(spec.lam) / spec.u) * q ** (-spec.N)


def binomial_series(spec: PotentialSpec, q: float, lam_deriv: int = 0):
    """The large-q series of (u q^N + v q^M + lam)^{1/2-s} at q, one order at a time,
    or of its lam_deriv-th derivative in lam.

    (u q^N)^{1/2-s} (1 + X + Y)^{1/2-s} with X = (v/u) q^{M-N} and
    Y = (lam/u) q^{-N} expands by the generalized binomial theorem; the term
    X^a Y^b of order k = a + b carries q^{rho - N s} with the integer
    rho = N/2 + a(M-N) - bN.  Its n-th lam-derivative replaces Y^b by
    b!/(b-n)! Y^{b-n} y^n, y = q^{-N}/u, so orders below n = lam_deriv have
    none.  Yields, for k = n, n+1, ..., the pair (bound, terms).  terms lists
    (rho, value, deriv), the s = 0 jet of the coefficient
    u^{1/2-s} binom(1/2-s, k) C(k, a) d^n/dlam^n (X^a Y^b) of each term, which
    is value q^{N/2} at s = 0; a term that vanishes because X = 0 or Y = 0
    is left out.  bound = sqrt(u) |binom(1/2, k)| k!/(k-n)! x^{k-n} y^n,
    x = expansion_parameter(spec, q), caps the sum of the magnitudes of the
    values.  At q = 1 the values are the contributions to beta_rho (or to its
    n-th lam-derivative).  An order whose terms or bound are beyond double
    range raises AccuracyError.
    """
    N, M, n = spec.N, spec.M, lam_deriv
    u_half, logu = math.sqrt(spec.u), math.log(spec.u)
    X = (spec.v / spec.u) * q ** (M - N)
    Y = (spec.lam / spec.u) * q ** (-N)
    y = q ** (-N) / spec.u
    x = expansion_parameter(spec, q)
    for k, (binom, dbinom) in enumerate(binomial_jets(0.5)):
        if k < n:
            continue
        # with one small term zero, only its lowest surviving power is kept
        powers = range(k - n + 1) if X and Y else ((k - n,) if X else (0,))
        terms = []
        try:
            for a in powers:
                b = k - a
                weight = math.comb(k, a) * X**a * Y ** (b - n) * u_half
                if n:
                    weight *= math.perm(b, n) * y**n
                value = binom * weight
                # d/ds of u^{1/2-s} binom(1/2-s, k) at s = 0
                terms.append((N // 2 + a * (M - N) - b * N, value,
                              -logu * value - dbinom * weight))
            bound = u_half * abs(binom) * math.perm(k, n) * x ** (k - n) * y**n
        except OverflowError:
            bound = math.inf
        # a term, its factors multiplied in another order, can overflow where the bound does not
        if not (bound < math.inf and all(math.isfinite(value) and math.isfinite(deriv)
                                         for _, value, deriv in terms)):
            raise AccuracyError(f"order {k} of the large-q series of {spec.to_text()!r} "
                                f"at q = {q!r} is beyond double range")
        yield bound, terms


def beta_coefficients(spec: PotentialSpec, rho_min: int, lam_deriv: int = 0) -> BetaTable:
    """Expansion coefficients with rho >= rho_min, as jets at s = 0, or their
    lam_deriv-th derivatives in lam.

    Sums the orders of ``binomial_series`` at q = 1 up to the last with a
    rho >= rho_min; each (a, b) lands on rho = N/2 + a(M-N) - bN.  Order k
    reaches at most rho = N/2 - kN + (k - n)M, n = lam_deriv, which falls
    with k, so the orders kept are counted before any is formed: an order
    wholly below rho_min is never formed, and only a kept term beyond double
    range raises AccuracyError.
    """
    N, M, n = spec.N, spec.M, lam_deriv
    if rho_min > N // 2:
        raise DomainError("rho_min must not exceed N/2")
    last = (N // 2 - n * M - rho_min) // (N - M)
    cells: dict[int, list] = {}
    for _, terms in itertools.islice(binomial_series(spec, 1.0, n), max(last - n + 1, 0)):
        for rho, value, deriv in terms:
            if rho >= rho_min:
                cell = cells.setdefault(rho, [0.0, 0.0])
                cell[0] += value
                cell[1] += deriv
    return BetaTable({rho: Jet1(*cells[rho]) for rho in sorted(cells, reverse=True)})


def symanzik_map(M: int, N: int, g: float, E: float) -> tuple[float, float]:
    """(g, E) on q^M + g q^N  ->  (v, lambda) on q^N + v q^M."""
    if g <= 0.0:
        raise DomainError("coupling g must be positive")
    v = g ** (-(M + 2) / (N + 2))
    lam = -(v ** (2.0 / (M + 2))) * E
    return v, lam
