"""Momentum-squared polynomials u q^N + v q^M + lambda.

Holds the potential record consumed by every other module, the anomaly
classification, the large-q expansion coefficients as order-1 jets at s = 0,
and the coordinate-dilation map between the (q^M + g q^N, E) and
(q^N + v q^M, lambda) parametrizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import DomainError
from .special_functions import (
    Jet1,
    digamma,
    general_binomial,
    general_binomial_alpha_deriv,
)


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

    Entries are order-1 jets at s = 0, keyed by exact rational rho on the
    lattice N/2, N/2 - step, ... down to rho_min, step = gcd(N - M, N).
    """

    entries: dict  # Fraction -> Jet1, descending rho

    def at(self, rho) -> Jet1:
        return self.entries.get(Fraction(rho), Jet1.zero())

    def residue(self) -> Jet1:
        return self.at(-1)

    def rhos(self):
        return list(self.entries.keys())


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


def beta_coefficients(spec: PotentialSpec, rho_min) -> BetaTable:
    """Expansion coefficients with rho >= rho_min, as jets at s = 0.

    (u q^N)^{1/2-s} (1 + (v/u) q^{M-N} + (lam/u) q^{-N})^{1/2-s} expanded by
    the generalized binomial theorem; the pair (a, b) of powers of the two
    small terms lands on rho = N/2 + a(M-N) - b N.
    """
    rho_min = Fraction(rho_min)
    N, M = spec.N, spec.M
    top = Fraction(N, 2)
    if rho_min > top:
        raise DomainError("rho_min must not exceed N/2")
    step = Fraction(math.gcd(N - M, N))
    logu = math.log(spec.u)
    u_half = math.sqrt(spec.u)
    x = spec.v / spec.u
    y = spec.lam / spec.u

    lattice: dict[Fraction, list] = {}
    rho = top
    while rho >= rho_min:
        lattice[rho] = [0.0, 0.0]
        rho -= step

    a = 0
    while True:
        rho_a = top + a * (M - N)
        if rho_a < rho_min:
            break
        if a > 0 and x == 0.0:
            break
        xa = x**a
        b = 0
        while True:
            rho = rho_a - b * N
            if rho < rho_min:
                break
            if b > 0 and y == 0.0:
                break
            k = a + b
            weight = math.comb(k, a) * xa * y**b
            val = general_binomial(0.5, k) * weight * u_half
            der = (-logu) * val - general_binomial_alpha_deriv(0.5, k) * weight * u_half
            cell = lattice[rho]
            cell[0] += val
            cell[1] += der
            b += 1
        a += 1

    entries = {rho: Jet1(v, d) for rho, (v, d) in lattice.items()}
    return BetaTable(entries)


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
