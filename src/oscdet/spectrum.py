"""Parity-split eigenvalues of -d^2/dq^2 + V(q) on the real line.

Rayleigh-Ritz in a harmonic-oscillator (Hermite) basis of frequency omega.
With x = sqrt(omega) q the Hamiltonian reads

    H = omega (2n + 1) - omega x^2 + u omega^{-N/2} x^N + v omega^{-M/2} x^M + lam,

and x^2 couples a basis state n only to n and n +- 2.  So each parity
sector of H is a real symmetric band matrix of half-bandwidth N/2, built
diagonal by diagonal from powers of the tridiagonal x^2 block, and LAPACK's
band solver returns its lowest levels (Hioe & Montroll, J. Math. Phys. 16
(1975) 1945; Banerjee et al., Proc. R. Soc. A 360 (1978) 575).  Ritz values
fall monotonically towards the exact levels as the basis grows; the error
estimate is the change between n and 2n basis states per parity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse
from scipy.integrate import quad
from scipy.linalg import eig_banded
from scipy.optimize import brentq

from .errors import AccuracyError, DomainError, ModelError
from .potential import PotentialSpec

DEFAULT_MAX_COUNT = 512
_DOUBLINGS = 3   # the basis grows to at most 8 times its first size


@dataclass(frozen=True)
class EigenEntry:
    k: int
    parity: str        # "even" | "odd"
    value: float
    err_est: float


@dataclass(frozen=True)
class SolverParams:
    n: int             # basis states per parity sector
    omega: float       # frequency of the harmonic-oscillator basis


@dataclass(frozen=True)
class SpectrumResult:
    entries: tuple[EigenEntry, ...]
    params: SolverParams

    def values(self) -> np.ndarray:
        return np.array([e.value for e in self.entries])

    def parity_values(self, parity: str) -> np.ndarray:
        return np.array([e.value for e in self.entries if e.parity == parity])

    def __len__(self) -> int:
        return len(self.entries)


def turning_point(spec: PotentialSpec, lam: float) -> float:
    if lam <= spec.value(0.0):
        raise DomainError("level below the potential minimum")
    hi = 1.0
    while spec.value(hi) < lam:
        hi *= 2.0
    return brentq(lambda q: spec.value(q) - lam, 0.0, hi, xtol=1e-12)


def bs_level(spec: PotentialSpec, k: float) -> float:
    """Bohr-Sommerfeld eigenvalue model, continuous in the index.

    Solves 2 int sqrt(lam - V) dq = (k + 1/2) pi; the relative error falls
    like (2k+1)^{-2}, which makes it the tail model of choice for products
    and sums over high levels of coupled potentials (a local power-law fit
    extrapolates with a curvature bias through the crossover region).
    """
    def phase(lam):
        qt = turning_point(spec, lam)
        integral, _ = quad(lambda q: math.sqrt(max(lam - spec.value(q), 0.0)),
                           0.0, qt, epsrel=1e-10, limit=300)
        return 2.0 * integral / math.pi - 0.5 - k

    lo = spec.value(0.0) + 1e-12
    hi = max(1.0, 2.0 * abs(lo))
    while phase(hi) < 0.0:
        hi *= 2.0
    return brentq(phase, lo, hi, rtol=1e-10)


def _sector_band(spec: PotentialSpec, omega: float, n: int, parity: int) -> np.ndarray:
    """Lower band storage of one parity block of H on its first n states."""
    half = spec.N // 2
    # quantum numbers of the sector; the padding keeps the kept entries of
    # the powers of x^2 exact
    m = np.arange(parity, 2 * (n + half), 2, dtype=float)
    off = 0.5 * np.sqrt((m[:-1] + 1.0) * (m[:-1] + 2.0))
    x2 = scipy.sparse.diags([off, m + 0.5, off], [-1, 0, 1], format="csr")
    coef = np.zeros(half + 1)    # V - omega^2 q^2 as a polynomial in x^2
    coef[half] += spec.u * omega ** (-half)
    coef[spec.M // 2] += spec.v * omega ** (-(spec.M // 2))
    coef[1] -= omega
    coef[0] += spec.lam
    eye = scipy.sparse.identity(len(m), format="csr")
    poly = coef[half] * eye
    for c in coef[-2::-1]:
        poly = poly @ x2 + c * eye
    band = np.zeros((half + 1, n))
    for d in range(half + 1):
        band[d, :n - d] = poly.diagonal(-d)[:n - d]
    band[0] += omega * (2.0 * m[:n] + 1.0)
    return band


def _ritz_levels(spec: PotentialSpec, omega: float, n: int,
                 count: int) -> tuple[np.ndarray, float]:
    """Lowest ``count`` Ritz values in level order on n states per parity,
    and the larger 1-norm of the two blocks."""
    values = np.empty(count)
    norm = 0.0
    for parity in (0, 1):
        levels = (count + 1 - parity) // 2
        band = _sector_band(spec, omega, n, parity)
        values[parity::2] = eig_banded(band, lower=True, eigvals_only=True, select="i",
                                       select_range=(0, max(levels, 1) - 1))[:levels]
        rows = np.abs(band).sum(axis=0)   # diagonal and right of it, by symmetry
        for d in range(1, len(band)):
            rows[d:] += np.abs(band[d, :n - d])
        norm = max(norm, float(rows.max()))
    return values, norm


def eigenvalues(spec: PotentialSpec, count: int, tol: float = 1e-6,
                max_count: int = DEFAULT_MAX_COUNT) -> SpectrumResult:
    """First ``count`` eigenvalues with parity labels and error estimates.

    ``err_est`` is the change of each level when the basis doubles, floored
    at LAPACK's eigenvalue error bound eps * ||H||_1.  Raises AccuracyError
    with the best estimate attached when ``tol`` is unreachable at the
    largest basis.
    """
    if count < 1:
        raise DomainError("count must be positive")
    if count > max_count:
        raise DomainError(f"count {count} exceeds the configured cap {max_count}")
    tol = float(tol)
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tolerance {tol} must be positive and finite")
    return _eigenvalues_cached(spec, count, tol)


@lru_cache(maxsize=64)
def _eigenvalues_cached(spec: PotentialSpec, count: int, tol: float) -> SpectrumResult:
    # basis matched to the classical region of the top level, measured from
    # the bottom of the well so that a constant in V leaves it alone
    lam_top = bs_level(spec, count + 2)
    omega = math.sqrt(lam_top - spec.value(0.0)) / turning_point(spec, lam_top)
    n = max(count + count % 2, 16)   # twice the levels of the even sector
    coarse, _ = _ritz_levels(spec, omega, n, count)
    for _ in range(_DOUBLINGS):
        n *= 2
        fine, norm = _ritz_levels(spec, omega, n, count)
        err = np.maximum(np.abs(fine - coarse), np.finfo(float).eps * norm)
        best = _assemble(fine, err, SolverParams(n=n, omega=omega))
        if err.max() <= tol:
            if np.any(np.diff(fine) <= 0.0):
                raise AccuracyError("parity interlacing violated", best_estimate=None)
            return best
        coarse = fine
    raise AccuracyError(
        f"eigenvalue tolerance {tol} unreachable with {n} basis states per parity",
        best_estimate=best, err_est=float(err.max()))


def _assemble(values, err, params: SolverParams) -> SpectrumResult:
    entries = tuple(
        EigenEntry(k, "even" if k % 2 == 0 else "odd", float(value),
                   max(float(e), 1e-15 * abs(float(value)), 1e-300))
        for k, (value, e) in enumerate(zip(values, err)))
    return SpectrumResult(entries, params)


@dataclass(frozen=True)
class TailModel:
    """Power-law model lam_k ~ c (2k+1)^exponent for the high levels."""

    c: float
    exponent: float
    k_start: int

    def level(self, k) -> float:
        return self.c * (2.0 * np.asarray(k, dtype=float) + 1.0) ** self.exponent


def eigenvalue_tail_model(spec: PotentialSpec, spectrum: SpectrumResult,
                          rel_band: float = 0.05) -> TailModel:
    """Least-squares fit of log lam_k against log(2k+1) on the top half.

    The fitted exponent is checked against the Bohr-Sommerfeld growth: for a
    pure power q^N it must sit within ``rel_band`` of 2N/(N+2); a coupled
    potential is accepted anywhere between the growth of its two exponents
    (its computed range may still sit in the crossover region).
    """
    m = len(spectrum)
    if m < 32:
        raise DomainError("need at least 32 computed eigenvalues")
    k0 = m // 2
    ks = np.arange(k0, m)
    lam = spectrum.values()[k0:]
    if np.any(lam <= 0.0):
        raise ModelError("nonpositive eigenvalues in the fit window")
    x = np.log(2.0 * ks + 1.0)
    y = np.log(lam)
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    exponent, logc = float(coef[0]), float(coef[1])
    resid = y - A @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    if rms > 0.02:
        raise ModelError(f"tail fit residual too large (rms {rms:.3g})")

    p_top = 2.0 * spec.N / (spec.N + 2.0)
    pure_power = spec.v == 0.0 and spec.lam == 0.0
    if pure_power:
        if abs(exponent - p_top) > rel_band * p_top:
            raise ModelError(
                f"fitted exponent {exponent:.4f} not within {rel_band:.0%} of {p_top:.4f}")
    else:
        m_eff = spec.M if spec.v > 0.0 and spec.M >= 2 else spec.N
        p_low = 2.0 * m_eff / (m_eff + 2.0)
        lo = min(p_low, p_top) * (1.0 - rel_band)
        hi = max(p_low, p_top) * (1.0 + rel_band)
        if not (lo <= exponent <= hi):
            raise ModelError(
                f"fitted exponent {exponent:.4f} outside the growth band "
                f"[{lo:.4f}, {hi:.4f}]")
    return TailModel(c=math.exp(logc), exponent=exponent, k_start=m)
