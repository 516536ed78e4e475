"""Momentum-squared polynomials u q^N + v q^M + lambda.

Holds the potential record consumed by every other module, the anomaly
classification, the large-q expansion coefficients as order-1 jets at s = 0,
and the coordinate-dilation map between the (q^M + g q^N, E) and
(q^N + v q^M, lambda) parametrizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import DomainError
from .special_functions import Jet1, binomial_jets, digamma


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

    def deriv(self, q):
        out = self.N * self.u * q ** (self.N - 1)
        if self.M > 0:
            out += self.M * self.v * q ** (self.M - 1)
        return out

    def deriv2(self, q):
        out = self.N * (self.N - 1) * self.u * q ** (self.N - 2)
        if self.M > 1:
            out += self.M * (self.M - 1) * self.v * q ** (self.M - 2)
        return out

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

    @staticmethod
    def uncoupled(M: int, v: float, lam: float = 0.0) -> "PotentialSpec":
        """v q^M + lam with no higher power."""
        return PotentialSpec(N=M, M=0, u=v, v=0.0, lam=lam)


@dataclass(frozen=True)
class AnomalyType:
    """Normal (identically vanishing residue) or Anomalous of level j."""

    tag: str                 # "normal" | "anomalous"
    level: int | None
    beta_m1: Jet1

    @staticmethod
    def normal() -> "AnomalyType":
        return AnomalyType("normal", None, Jet1.zero())

    @staticmethod
    def anomalous(level: int, beta_m1: Jet1) -> "AnomalyType":
        return AnomalyType("anomalous", level, beta_m1)

    @property
    def is_anomalous(self) -> bool:
        return self.tag == "anomalous"


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
        return self.at(-1)


def level_candidate(N: int, M: int) -> int | None:
    """j = (N+2)/(2(N-M)) when that is a positive integer, else None."""
    num, den = N + 2, 2 * (N - M)
    if num % den == 0:
        return num // den
    return None


def residue_level_coefficient(j: int) -> float:
    """(-1)^{j-1} (2j-2)! / (2^{2j-1} (j-1)! j!) -- the u=v=1 residue value."""
    return ((-1) ** (j - 1) * math.factorial(2 * j - 2)
            / (2 ** (2 * j - 1) * math.factorial(j - 1) * math.factorial(j)))


def residue_log_deriv(j: int, u: float) -> float:
    """d/ds log beta_{-1}(s) at s=0: psi(j - 1/2) - psi(-1/2) - log u."""
    return digamma(j - 0.5) - digamma(-0.5) - math.log(u)


def classify(spec: PotentialSpec) -> AnomalyType:
    """Anomaly type of the spec, from the closed-form residue.

    The rho = -1 coefficient can only come from pure powers of the
    subleading term when N > 2; for N = 2 (so M = 0) the constant v + lam
    takes over the role of the harmonic spectral parameter.
    """
    j = level_candidate(spec.N, spec.M)
    if j is None:
        return AnomalyType.normal()
    if spec.N > 2:
        value = residue_level_coefficient(j) * spec.u ** (0.5 - j) * spec.v**j
    else:
        value = 0.5 * (spec.v + spec.lam) / math.sqrt(spec.u)
    if value == 0.0:
        return AnomalyType.normal()
    deriv = value * residue_log_deriv(j, spec.u)
    return AnomalyType.anomalous(j, Jet1(value, deriv))


def expansion_parameter(spec: PotentialSpec, q: float) -> float:
    """x = (v/u) q^{M-N} + (|lam|/u) q^{-N}, the size of the small quantity
    the large-q binomial series expands in.

    Order k of the series at q is at most sqrt(u) |binom(1/2, k)| x^k q^{N/2}
    in magnitude, so the orders decay at least geometrically at rate x.
    """
    return (spec.v / spec.u) * q ** (spec.M - spec.N) + (abs(spec.lam) / spec.u) * q ** (-spec.N)


def binomial_series(spec: PotentialSpec, q: float):
    """The large-q series of (u q^N + v q^M + lam)^{1/2-s} at q, one order at a time.

    (u q^N)^{1/2-s} (1 + X + Y)^{1/2-s} with X = (v/u) q^{M-N} and
    Y = (lam/u) q^{-N} expands by the generalized binomial theorem; the term
    X^a Y^b of order k = a + b carries q^{rho - N s} with the integer
    rho = N/2 + a(M-N) - bN.  Yields, for k = 0, 1, 2, ..., the pair
    (bound, terms).  terms lists (rho, value, deriv), the s = 0 jet of the
    coefficient u^{1/2-s} binom(1/2-s, k) C(k, a) X^a Y^b of each term, which
    is value q^{N/2} at s = 0; a term with a factor X = 0 or Y = 0 is left
    out.  bound = sqrt(u) |binom(1/2, k)| x^k, x = expansion_parameter(spec, q),
    caps the sum of the magnitudes of the values.  At q = 1 the values are
    the contributions to beta_rho.
    """
    N, M = spec.N, spec.M
    u_half, logu = math.sqrt(spec.u), math.log(spec.u)
    X = (spec.v / spec.u) * q ** (M - N)
    Y = (spec.lam / spec.u) * q ** (-N)
    x = expansion_parameter(spec, q)
    for k, (binom, dbinom) in enumerate(binomial_jets(0.5)):
        # with one small term zero, only its zeroth power survives
        powers = range(k + 1) if X and Y else ((k,) if X else (0,))
        terms = []
        for a in powers:
            weight = math.comb(k, a) * X**a * Y ** (k - a) * u_half
            value = binom * weight
            # d/ds of u^{1/2-s} binom(1/2-s, k) at s = 0
            terms.append((N // 2 + a * (M - N) - (k - a) * N, value,
                          -logu * value - dbinom * weight))
        yield u_half * abs(binom) * x**k, terms


def beta_coefficients(spec: PotentialSpec, rho_min: int) -> BetaTable:
    """Expansion coefficients with rho >= rho_min, as jets at s = 0.

    Sums the orders of ``binomial_series`` at q = 1 until every rho of an
    order lies below rho_min; each (a, b) lands on rho = N/2 + a(M-N) - bN.
    """
    if rho_min > spec.N // 2:
        raise DomainError("rho_min must not exceed N/2")
    cells: dict[int, list] = {}
    for _, terms in binomial_series(spec, 1.0):
        if max(rho for rho, _, _ in terms) < rho_min:
            break
        for rho, value, deriv in terms:
            if rho >= rho_min:
                cell = cells.setdefault(rho, [0.0, 0.0])
                cell[0] += value
                cell[1] += deriv
    return BetaTable({rho: Jet1(*cells[rho]) for rho in sorted(cells, reverse=True)})


def order_mu(N: int) -> float:
    """1/2 + 1/N, the growth order of the problem."""
    if N < 2:
        raise DomainError("N must be >= 2")
    return 0.5 + 1.0 / N


def symanzik_map(M: int, N: int, g: float, E: float) -> tuple[float, float]:
    """(g, E) on q^M + g q^N  ->  (v, lambda) on q^N + v q^M."""
    if g <= 0.0:
        raise DomainError("coupling g must be positive")
    v = g ** (-(M + 2) / (N + 2))
    lam = -(v ** (2.0 / (M + 2))) * E
    return v, lam


def symanzik_inverse(M: int, N: int, v: float, lam: float) -> tuple[float, float]:
    """Inverse of symanzik_map."""
    if v <= 0.0:
        raise DomainError("v must be positive")
    g = v ** (-(N + 2) / (M + 2))
    E = -(v ** (-2.0 / (M + 2))) * lam
    return g, E
