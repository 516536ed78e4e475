"""Pole structure of the exact Mellin transform of the trinomial action.

The transform of int_0^inf (q^N + v q^M + lam)^{1/2-s} dq in the coupling v
is a ratio of three Gamma factors; its poles form three arithmetic
progressions whose residues encode the large-v expansion.  This module
enumerates the progressions in exact rational arithmetic, names the two
poles that survive the selection rules (the non-vanishing contributions as
the perturbative coupling goes to zero), and evaluates the residue
contributions independently of the action_integrals closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .potential import residue_level_coefficient
from .special_functions import EULER_GAMMA, LOG2, digamma, gamma

FIRST = "first"     # Gamma(-sigma): fixed poles at sigma = 0, 1, 2, ...
SECOND = "second"   # Gamma((M sigma + 1)/N): fixed poles at sigma = -(nN+1)/M
THIRD = "third"     # Gamma(s + sigma - 1/2 - (M sigma + 1)/N): mobile in s


def _degrees(N: int, M: int, sigma0: Fraction):
    mu = Fraction(1, 2) + Fraction(1, N)
    d_v = sigma0
    d_lambda = mu - Fraction(N - M, N) * sigma0
    d_g = -(M * sigma0 + 1) / Fraction(N)
    return d_v, d_lambda, d_g


@dataclass(frozen=True)
class MellinPole:
    sigma0: Fraction              # location at s = 0
    mobile: bool
    source: str                   # FIRST | SECOND | THIRD
    index: int                    # progression index n >= 0
    d_v: Fraction
    d_lambda: Fraction
    d_g: Fraction
    confluent_with: "MellinPole | None" = None

    @property
    def is_confluent(self) -> bool:
        return self.confluent_with is not None

    @property
    def is_pinching(self) -> bool:
        """Confluent with a fixed pole on the far side of the contour."""
        return self.is_confluent and FIRST in (self.source, self.confluent_with.source)

    @property
    def is_double(self) -> bool:
        """Ordinary double pole from a same-side confluence."""
        return self.is_confluent and not self.is_pinching


@dataclass(frozen=True)
class AsymptoticTerm:
    """v^degree (coeff_logv * log v + coeff_const)."""

    degree_v: Fraction
    coeff_const: float
    coeff_logv: float

    def evaluate(self, v: float) -> float:
        return float(v) ** float(self.degree_v) * (
            self.coeff_logv * math.log(v) + self.coeff_const)


def _check_exponents(N: int, M: int):
    if not (N > M >= 2) or N % 2 or M % 2:
        raise DomainError("need even exponents with N > M >= 2")


def _raw_pole(N: int, M: int, source: str, n: int) -> tuple[Fraction, bool]:
    if source == FIRST:
        return Fraction(n), False
    if source == SECOND:
        return Fraction(-(n * N + 1), M), False
    mu = Fraction(1, 2) + Fraction(1, N)
    return Fraction(N, N - M) * (mu - n), True


def enumerate_poles(N: int, M: int, window=(-3, 3)) -> list[MellinPole]:
    """All poles of the three progressions with sigma(0) inside the window."""
    _check_exponents(N, M)
    lo, hi = Fraction(window[0]), Fraction(window[1])
    raw = []
    for source in (FIRST, SECOND, THIRD):
        n = 0
        while True:
            sigma0, mobile = _raw_pole(N, M, source, n)
            if source == FIRST and sigma0 > hi:
                break
            if source != FIRST and sigma0 < lo:
                break
            if lo <= sigma0 <= hi:
                raw.append((sigma0, mobile, source, n))
            n += 1

    by_location: dict[Fraction, list] = {}
    for item in raw:
        by_location.setdefault(item[0], []).append(item)

    poles = []
    for sigma0, mobile, source, n in raw:
        partner = None
        mates = [it for it in by_location[sigma0] if it[2] != source]
        if mates:
            ps, pm, psrc, pn = mates[0][0], mates[0][1], mates[0][2], mates[0][3]
            d = _degrees(N, M, ps)
            partner = MellinPole(ps, pm, psrc, pn, *d)
        d = _degrees(N, M, sigma0)
        poles.append(MellinPole(sigma0, mobile, source, n, *d, confluent_with=partner))
    poles.sort(key=lambda p: (-p.sigma0, p.source, p.index))
    return poles


def contributing_poles(N: int, M: int) -> tuple[MellinPole, MellinPole]:
    """The leading mobile pole and the subleading fixed pole.

    Exactly these two locations survive both selection rules for all even
    2 <= M < N: the first poles of the third and the second progression,
    sigma0 = (N+2)/(2(N-M)) and -1/M, the ends of the window they are taken
    from.  The leading one is confluent with a fixed pole (pinching)
    exactly when the coupled problem is anomalous; the subleading one is
    confluent with the next mobile pole (a true double pole) exactly when
    the uncoupled problem is harmonic, M = 2.
    """
    _check_exponents(N, M)
    poles = enumerate_poles(N, M, (Fraction(-1, M), Fraction(N + 2, 2 * (N - M))))
    first = {p.source: p for p in poles if p.index == 0}
    return first[THIRD], first[SECOND]


def _leading_term(N: int, M: int) -> AsymptoticTerm:
    sigma0 = Fraction(N + 2, 2 * (N - M))
    if sigma0.denominator == 1:
        # pinched configuration: evaluate the lam = 0 finite part at level j
        # (bare finite part of the transform plus the fixed normalization).
        j = int(sigma0)
        b = residue_level_coefficient(j)
        front = 2.0 * j / (N + 2.0)
        const = b * (front * (digamma(j + 1.0) - (M / N) * digamma(j - 0.5))
                     - digamma(-0.5) / N + 2.0 * (1.0 - LOG2) / N)
        return AsymptoticTerm(sigma0, const, -front * b)
    # simple pole: residue of the third Gamma factor against the other two
    s0 = float(sigma0)
    const = gamma(-s0) * gamma((M * s0 + 1.0) / N) / ((N - M) * gamma(-0.5))
    return AsymptoticTerm(sigma0, const, 0.0)


def _subleading_term(N: int, M: int, lam: float) -> AsymptoticTerm:
    sigma1 = Fraction(-1, M)
    if M > 2:
        const = (gamma(1.0 + 1.0 / M) * gamma(-0.5 - 1.0 / M) / gamma(-0.5)
                 * lam ** (0.5 + 1.0 / M))
        return AsymptoticTerm(sigma1, const, 0.0)
    # M = 2: double pole at sigma = -1/2; expand the transform in
    # sigma = -1/2 + eps and read off the residue of the eps^{-1} term.
    a0 = -lam / (2.0 * N)
    c1 = N * ((EULER_GAMMA - 1.0) / 2.0 + EULER_GAMMA / (N - 2.0))
    kappa = N * N / (2.0 * (N - 2.0))
    a1_const = EULER_GAMMA + 2.0 * LOG2 - ((N - 2.0) / N) * math.log(lam)
    return AsymptoticTerm(sigma1, a0 * (c1 - kappa * a1_const), -a0 * kappa)


def assemble_asymptotics(N: int, M: int, v: float, lam: float) -> list[AsymptoticTerm]:
    """Residue contributions of the two selected poles, largest degree first."""
    _check_exponents(N, M)
    if v <= 0.0:
        raise DomainError("v must be positive")
    if lam < 0.0:
        raise DomainError("lam must be nonnegative")
    terms = [_leading_term(N, M)]
    if lam != 0.0:
        terms.append(_subleading_term(N, M, lam))
    return terms


def asymptotic_total(N: int, M: int, v: float, lam: float) -> float:
    return sum(t.evaluate(v) for t in assemble_asymptotics(N, M, v, lam))
