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

The Bohr-Sommerfeld levels (``bs_level``) pick the basis frequency and, in
``bs_tail``, carry every sum and product over the levels beyond the computed
ones.

``dsbevd`` is called through scipy's compiled LAPACK wrapper,
``scipy/linalg/_flapack``, loaded on its own: the ``scipy.linalg`` package
would bring ``numpy.f2py``, ``numpy.testing``, ``numpy.random`` and
``numpy.ma`` with it, about 0.35 s of a fresh interpreter's start, for this
one routine.  The call and its arguments are those ``scipy.linalg.eig_banded``
makes for ``eigvals_only=True``, so the levels are the same to the bit.
``leggauss`` is imported with the module too: numpy loads ``numpy.polynomial``
on first use, which would otherwise put that import into the first command.
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
from numpy.polynomial.legendre import leggauss

from .errors import AccuracyError, DomainError
from .numerics import increasing_root, integrate
from .potential import PotentialSpec

MAX_COUNT = 512
_GROWTH = 8      # the largest basis, in units of max(count + count % 2, 16, N/2 + 1)


def _load_flapack():
    """scipy's compiled LAPACK wrapper, ``scipy.linalg._flapack``, loaded
    from scipy's directory without running the package ``__init__`` of
    ``scipy`` or ``scipy.linalg``; the module already loaded, if any."""
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


def turning_point(spec: PotentialSpec, lam: float) -> float:
    if lam <= spec.value(0.0):
        raise DomainError("level below the potential minimum")
    return increasing_root(spec.value, spec.deriv, lam, xtol=1e-12)


@lru_cache(maxsize=1)
def _area_rule() -> tuple[np.ndarray, np.ndarray]:
    """48-node Gauss-Legendre rule for the classical area: the weights of
    dq/Q = 2 w dw on [0, 1] (the map to [0, 1] halves them) and log t at the
    nodes, t = 1 - w^2.  Built on first use, because its LAPACK call adds
    about 1 MB to a process that never needs a Bohr-Sommerfeld level;
    ``leggauss`` itself is imported with the module, since numpy loads
    ``numpy.polynomial`` lazily and a first use here would put that import
    into the first command's time."""
    x, weights = leggauss(48)
    w = 0.5 * (x + 1.0)
    return w * weights, np.log1p(-w * w)


def _level_count(spec: PotentialSpec):
    """Q -> n(V(Q)) and Q -> dn/dE at V(Q), the Bohr-Sommerfeld level count
    through second order (Dunham, Phys. Rev. 41 (1932) 713; Bender & Orszag,
    ch. 10) and the first-order level density at the level whose turning
    point is Q:

        n(E) = (2/pi) int_0^Q sqrt(E - V) dq
               - (1/(12 pi)) d/dE int_0^Q V''/sqrt(E - V) dq - 1/2,
        dn/dE = (1/pi) int_0^Q dq/sqrt(E - V).

    With q = Q(1 - w^2) every integrand is smooth in w, so one fixed
    Gauss-Legendre rule takes all three integrals, and with E = V(Q) the
    E-derivative is (1/V'(Q)) d/dQ, taken analytically in Q at fixed w.  The
    second-order term vanishes for a harmonic V, whose count stays exact.
    Both powers are divided by s = Q V'(Q) before they are combined, so no
    product of two of them is formed; where s is 0 (at Q = 0) or beyond
    double range, the count is the first-order one, and numpy warns unless
    the caller silences it (``np.errstate``).  Both take Q as a number or an
    array, which the level tail of ``bs_tail`` evaluates in one call.
    """
    rule, log_t = _area_rule()
    N, M, u, v = spec.N, spec.M, spec.u, spec.v
    # At the nodes q = Qt, with ' = d/dQ at fixed t, G = V(Q) - V(Qt) and
    # C = Q^2 V''(Qt), the shares y = (u Q^N, v Q^M) / s of s = Q V'(Q) times
    # these rows, one per power k = N, M, give g = G/s (without cancellation),
    # h = Q G'/(2s), a = Q^2 (Q V''(Qt))'/s and b = C/s
    k = np.array([[N], [M]])
    gap = -np.expm1(k * log_t)
    curv = k * (k - 1) * np.exp((k - 2) * log_t)
    rows = np.hstack([gap, 0.5 * k * gap, (k - 1) * curv, curv])
    size = len(rule)

    def count(Q):
        Q = np.asarray(Q, dtype=float)[()]    # a numpy scalar, or an array
        p_N, p_M = u * Q**N, v * Q**M
        s = N * p_N + M * p_M
        # the shares are at most 1/N and 1/M; a constant (M = 0) has none
        rows_y = np.multiply.outer(p_N / s, rows[0])
        if M:
            rows_y += np.multiply.outer(p_M / s, rows[1])
        g, h = rows_y[..., :size], rows_y[..., size:2 * size]
        a, b = rows_y[..., 2 * size:3 * size], rows_y[..., 3 * size:]
        # int_0^Q sqrt(G) dq = Q sqrt(s) sum rule sqrt(g), and
        # d/dQ int_0^Q V''/sqrt(G) dq = sqrt(s)/Q^2 sum rule (a - b h/g)/sqrt(g)
        root = np.sqrt(g)
        area, deriv = root @ rule, ((a - h / g * b) / root) @ rule
        n = Q * np.sqrt(s) * (2.0 * area - deriv / (12.0 * Q * Q * s)) / math.pi - 0.5
        if np.isfinite(n).all():
            return n
        first = np.sqrt(np.multiply.outer(p_N, gap[0]) + np.multiply.outer(p_M, gap[1])) @ rule
        return np.where(np.isfinite(n), n, 2.0 * Q * first / math.pi - 0.5)

    def density(Q):
        return Q * (rule @ (1.0 / np.sqrt(u * Q**N * gap[0] + v * Q**M * gap[1]))) / math.pi

    return count, density


def bs_level(spec: PotentialSpec, k: float) -> float:
    """Bohr-Sommerfeld eigenvalue model, continuous in the index.

    Solves n(lam) = k for the second-order level count of ``_level_count``
    and returns lam = V(Q) at its turning point Q; at k = 63 the level of q^4
    is off by 1.7e-10 relative (8.8e-6 at first order), so these levels
    carry the tail of products and sums over high levels of coupled
    potentials (``bs_tail``), where a local power-law fit extrapolates with
    a curvature bias through the crossover region.  A level that rounds onto
    V(0), as above a huge constant, raises AccuracyError.  Memoized per
    (spec, k).
    """
    return _bs_level_cached(spec, k)


@lru_cache(maxsize=256)
def _bs_level_cached(spec: PotentialSpec, k: float) -> float:
    count, density = _level_count(spec)
    with np.errstate(all="ignore"):
        Q = increasing_root(count, lambda Q: density(Q) * spec.deriv(Q), k, rtol=1e-12)
    level = spec.value(Q)
    if level <= spec.value(0.0):
        raise AccuracyError(f"level {k:g} rounds onto V(0) = {spec.value(0.0):.3g}: "
                            "no tolerance on the levels is reachable in double precision")
    return level


def bs_tail(spec: PotentialSpec, K: int, f, df) -> float:
    """sum_{k >= K} f(lam_k) over the Bohr-Sommerfeld levels.

    Takes the Euler-Maclaurin form int_K^inf F dk + F(K)/2 - F'(K)/12 of
    F(k) = f(lam(k)), with F'(K) = f'(lam_K) / (dn/dE), and integrates the
    integral by parts against the level count n(lam), written in the
    turning point Q with lam = V(Q):

        int_{Q_K}^inf -f'(V(Q)) (n(V(Q)) - K) V'(Q) dQ.

    The boundary term at infinity vanishes whenever the sum converges.  The
    panel rule (``integrate``) takes the integral in t = Q_K/Q on [0, 1],
    where the integrand is a series in powers of t whenever the sum
    converges, and which a dilation of the potential leaves alone; no level
    is solved inside the quadrature, which raises AccuracyError when it
    fails.
    """
    count, density = _level_count(spec)
    lam_K = bs_level(spec, K)
    Q_K = turning_point(spec, lam_K)

    def integrand(t):    # in t = Q_K/Q, with dQ = (Q^2/Q_K) dt
        Q = Q_K / t
        return -df(spec.value(Q)) * (count(Q) - K) * spec.deriv(Q) * (Q * Q / Q_K)

    integral = float(integrate(integrand, 0.0, 1.0))
    return integral + 0.5 * f(lam_K) - df(lam_K) / (12.0 * density(Q_K))


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
    and the larger 1-norm of the two blocks.  ``dsbevd`` returns every level
    of a block, 4-9 times faster than ``dsbevx`` bisection returns the lowest.
    A block with a non-finite entry, or a solve that reports failure, raises
    AccuracyError."""
    values = np.empty(count)
    norm = 0.0
    for parity in (0, 1):
        levels = (count + 1 - parity) // 2
        band = _sector_band(spec, omega, n, parity)
        block = f"the {('even', 'odd')[parity]} block of H on {n} states"
        if not np.isfinite(band).all():
            raise AccuracyError(f"{block} is not finite in double precision")
        # the band is read again below, so LAPACK works on a copy
        w, _, info = _dsbevd(band, compute_v=0, lower=1, overwrite_ab=0)
        if info != 0:
            raise AccuracyError(f"LAPACK dsbevd failed on {block} (info = {info})")
        values[parity::2] = w[:levels]
        rows = np.abs(band).sum(axis=0)   # diagonal and right of it, by symmetry
        for d in range(1, len(band)):
            rows[d:] += np.abs(band[d, :n - d])
        norm = max(norm, float(rows.max()))
    return values, norm


def eigenvalues(spec: PotentialSpec, count: int, tol: float = 1e-6) -> SpectrumResult:
    """First ``count`` eigenvalues with parity labels and error estimates.

    ``err_est`` is the change of each level over the last step of a basis
    grown by thirds, and the levels are those of the larger basis.  It is
    floored at sqrt(count) * eps * max(||H||_1, 8 |level|) for the solver's
    rounding: moving the basis frequency by 1 +- 1e-14 moved levels by up to
    0.31 of that floor on 480 spectra (ten (N, M) shapes, u from 1e-10 to 1,
    lam 0 and 3, 1 to 512 levels).  The second term is for near-harmonic
    levels, which round like their own size, by up to 2.3 sqrt(count) eps
    |level| there, where ||H||_1 is only about twice the top level.

    Raises AccuracyError, with the best estimate attached, when ``tol`` is
    unreachable: on the largest basis, 8 max(count + count % 2, 16, N/2 + 1)
    states per parity, or as soon as every level has settled within its
    floor while sqrt(count) * eps * ||H||_1 is above ``tol``, since ||H||_1
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
        # once every level has settled within a floor whose 1-norm part is
        # above tol, no larger basis reaches tol: the 1-norm only grows
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
