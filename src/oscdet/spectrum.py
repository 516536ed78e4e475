"""Parity-split eigenvalues of -d^2/dq^2 + V(q) on the real line.

Rayleigh-Ritz in a harmonic-oscillator (Hermite) basis of frequency omega.
With x = sqrt(omega) q the Hamiltonian reads

    H = omega (2n + 1) - omega x^2 + u omega^{-N/2} x^N + v omega^{-M/2} x^M + lam,

and x^2 couples a basis state n only to n and n +- 2.  So each parity
sector of H is a real symmetric band matrix of half-bandwidth N/2, built
diagonal by diagonal from powers of the tridiagonal x^2 block.  LAPACK's
divide-and-conquer band driver ``dsbevd`` returns every level of each block,
and the lowest are kept (Hioe & Montroll, J. Math. Phys. 16 (1975) 1945;
Banerjee et al., Proc. R. Soc. A 360 (1978) 575).  Ritz values
fall monotonically towards the exact levels as the basis grows.  The basis
starts at three halves of the levels per parity and grows by a third at a
time; the error estimate is the change of each level over the last step.

The Bohr-Sommerfeld levels (``actions.bs_level``) pick the basis frequency.

``dsbevd`` is called through scipy's compiled LAPACK wrapper,
``scipy/linalg/_flapack``, loaded with this module and on its own: the
``scipy.linalg`` package would bring ``numpy.f2py``, ``numpy.testing``,
``numpy.random`` and ``numpy.ma`` with it, about 0.35 s of a fresh
interpreter's start, for this one routine.  The call and its arguments are
those ``scipy.linalg.eig_banded`` makes for ``eigvals_only=True``, so the
levels are the same to the bit.  The wrapper links scipy's own OpenBLAS,
whose worker threads start with it and spin for about 0.1 s, so only an eigen
solve imports this module: ``spectral`` and ``cli`` import it on the line of
the solve, and the package resolves every public name, ``eigenvalues``
included, on first use from one table of names by defining module.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .actions import bs_level, turning_point
from .errors import AccuracyError, DomainError
from .potential import PotentialSpec

MAX_COUNT = 512
_GROWTH = 8      # the largest basis, in units of max(count + count % 2, 16, N/2 + 1)


def _load_flapack():
    """scipy's compiled LAPACK wrapper, ``scipy.linalg._flapack``, loaded
    from scipy's directory without running the package ``__init__`` of
    ``scipy`` or ``scipy.linalg``; the module already loaded, if any.  Called
    once, as this module is imported: loading the wrapper starts a second
    OpenBLAS thread pool next to numpy's, which only the spectrum route
    needs."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    found = scipy and importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(path, "linalg") for path in scipy.submodule_search_locations])
    if found is None:
        raise ImportError("oscdet needs scipy's compiled LAPACK wrapper, scipy/linalg/_flapack",
                          name=name)
    module = importlib.util.module_from_spec(found)
    found.loader.exec_module(module)
    sys.modules[name] = module
    return module


_dsbevd = _load_flapack().dsbevd


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

    def __len__(self) -> int:
        return len(self.entries)


def _sector_band(spec: PotentialSpec, omega: float, n: int, parity: int) -> np.ndarray:
    """Lower band storage of one parity block of H on its first n states."""
    half = spec.N // 2
    # quantum numbers of the sector; the padding keeps the kept entries of
    # the powers of x^2 exact
    m = np.arange(parity, 2 * (n + half), 2, dtype=float)
    off = 0.5 * np.sqrt((m[:-1] + 1.0) * (m[:-1] + 2.0))
    coef = np.zeros(half + 1)    # V - omega^2 q^2 as a polynomial in x^2
    coef[half] += spec.u * omega ** (-half)
    coef[spec.M // 2] += spec.v * omega ** (-(spec.M // 2))
    coef[1] -= omega
    coef[0] += spec.lam
    # row half + k holds the diagonal entries (j + k, j) of the polynomial;
    # Horner's rule, poly <- poly x^2 + c, on those diagonals
    poly = np.zeros((2 * half + 1, len(m)))
    poly[half] = coef[half]
    for c in coef[-2::-1]:
        prev = poly
        poly = prev * (m + 0.5)
        poly[:-1, 1:] += prev[1:, :-1] * off
        poly[1:, :-1] += prev[:-1, 1:] * off
        poly[half] += c
    band = poly[half:, :n]
    band[np.add.outer(np.arange(half + 1), np.arange(n)) >= n] = 0.0
    band[0] += omega * (2.0 * m[:n] + 1.0)
    return band


def _ritz_levels(spec: PotentialSpec, omega: float, n: int,
                 count: int) -> tuple[np.ndarray, float]:
    """Lowest ``count`` Ritz values in level order on n states per parity,
    and the larger 2-norm of the two blocks, the largest |level| of either.
    ``dsbevd`` returns every level of a block, 4-9 times faster than
    ``dsbevx`` bisection returns the lowest.  A block with a non-finite
    entry, or a solve that reports failure, raises AccuracyError."""
    values = np.empty(count)
    norm = 0.0
    for parity in (0, 1):
        levels = (count + 1 - parity) // 2
        band = _sector_band(spec, omega, n, parity)
        block = f"the {('even', 'odd')[parity]} block of H on {n} states"
        if not np.isfinite(band).all():
            raise AccuracyError(f"{block} is not finite in double precision")
        w, _, info = _dsbevd(band, compute_v=0, lower=1, overwrite_ab=0)
        if info != 0:
            raise AccuracyError(f"LAPACK dsbevd failed on {block} (info = {info})")
        values[parity::2] = w[:levels]
        norm = max(norm, abs(float(w[0])), abs(float(w[-1])))
    return values, norm


def eigenvalues(spec: PotentialSpec, count: int, tol: float = 1e-6) -> SpectrumResult:
    """First ``count`` eigenvalues with parity labels and error estimates.

    ``err_est`` is the change of each level over the last step of a basis
    grown by thirds, and the levels are those of the larger basis.  It is
    floored at sqrt(count) * eps * max(||H||_2, 8 |level|) for the solver's
    rounding, ||H||_2 being the 2-norm that LAPACK's error bound uses:
    moving the basis frequency by 1 +- 1e-14 moved levels by up to 0.35 of
    that floor on 480 spectra (ten (N, M) shapes, u = 1e-10, 1e-6, 1e-3 and
    1, lam 0 and 3, 1 to 512 levels).  The second term is for near-harmonic
    levels, which round like their own size, by up to 2.3 sqrt(count) eps
    |level| there, where ||H||_2 is only about twice the top level.

    Raises AccuracyError, with the best estimate attached, when ``tol`` is
    unreachable: on the largest basis, 8 max(count + count % 2, 16, N/2 + 1)
    states per parity, or as soon as every level has settled within its
    floor while sqrt(count) * eps * ||H||_2 is above ``tol``, since ||H||_2
    only grows with the basis.
    """
    if count < 1:
        raise DomainError("count must be positive")
    if count > MAX_COUNT:
        raise DomainError(f"count {count} exceeds the cap {MAX_COUNT}")
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
    # three halves of the levels of the even sector, and more states than
    # the band's half-width N/2, whose diagonals the band storage slices
    unit = max(count + count % 2, 16, spec.N // 2 + 1)
    largest = _GROWTH * unit
    n = max(3 * unit // 4, 16, spec.N // 2 + 1)
    scale = math.sqrt(count) * np.finfo(float).eps
    coarse, _ = _ritz_levels(spec, omega, n, count)
    while True:
        n = min(n + n // 3, largest)
        fine, norm = _ritz_levels(spec, omega, n, count)
        change = np.abs(fine - coarse)
        floor = scale * np.maximum(norm, 8.0 * np.abs(fine))
        err = np.maximum(change, floor)
        # once every level has settled within a floor whose norm part is
        # above tol, no larger basis reaches tol: the norm only grows
        hopeless = scale * norm > tol and np.all(change <= floor)
        if err.max() <= tol or hopeless or n == largest:
            break
        coarse = fine
    best = _assemble(fine, err, SolverParams(n=n, omega=omega))
    if err.max() > tol:
        raise AccuracyError(
            f"eigenvalue tolerance {tol} unreachable with {n} basis states per parity",
            best_estimate=best, err_est=float(err.max()))
    if np.any(np.diff(fine) <= 0.0):
        raise AccuracyError("parity interlacing violated", best_estimate=None)
    return best


def _assemble(values, err, params: SolverParams) -> SpectrumResult:
    entries = tuple(
        EigenEntry(k, "even" if k % 2 == 0 else "odd", float(value), float(e))
        for k, (value, e) in enumerate(zip(values, err)))
    return SpectrumResult(entries, params)
