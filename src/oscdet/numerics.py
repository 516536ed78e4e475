"""The panel rule and the root every route shares.

Chebyshev panels (Trefethen, Spectral Methods in MATLAB, SIAM 2000, ch. 6
and 12; Trefethen, SIAM Rev. 50 (2008) 67): the _K + 1 Chebyshev points of
a panel, the differentiation matrix there, its inverse from the panel's
start, which integrates, and the rows that give the last two Chebyshev
coefficients, the truncation estimate.  ``refine`` bisects the panels that
such an estimate flags, solving each panel once; the shot's propagator and
``integrate``, the one quadrature, both run on it.  ``increasing_root``
solves f(x) = target by safeguarded Newton steps inside a bracket.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AccuracyError

# the _K + 1 Chebyshev points from 1 down to -1, their differentiation
# matrix, and the rows that give the last two Chebyshev coefficients of a
# polynomial from its values there (T_k at point j is cos(pi j k / _K))
_K = 20
_NODES = np.cos(np.pi * np.arange(_K + 1) / _K)
_WEIGHTS = np.r_[2.0, np.ones(_K - 1), 2.0] * (-1.0) ** np.arange(_K + 1)
_DIFF = np.outer(_WEIGHTS, 1.0 / _WEIGHTS) / (np.subtract.outer(_NODES, _NODES) + np.eye(_K + 1))
_DIFF -= np.diag(_DIFF.sum(axis=1))
_TAIL = np.linalg.inv(np.cos(np.pi * np.outer(np.arange(_K + 1), np.arange(_K + 1)) / _K))[-2:]
_INTEGRATE = np.linalg.inv(_DIFF[1:, 1:])   # d/ds inverted from the start point
_PANEL = 0.5             # first panel width in every variable a leg or an integral runs in
# from the values at points 1.._K: the integral over the panel, by the last
# row of _INTEGRATE refined once (as it stands it integrates a constant to
# 1.3e-15, a bias a shot's traces or a head cancelling its tail would keep),
# and the last two Chebyshev coefficients of the integral from the panel's start
_QUAD_ROWS = np.vstack([_INTEGRATE[-1] @ (2.0 * np.eye(_K) - _DIFF[1:, 1:] @ _INTEGRATE),
                        _TAIL[:, 1:] @ _INTEGRATE])
# a quadrature's tolerance, relative to int |f|: a head that cancels against
# its tail, as in improper_action, needs the digits below 1e-12
_QUAD_TOL = 1e-14
# the rounding of a panel's integral, per unit width and of max |f| there,
# below which a tail is noise (0.56 measured on smooth integrands)
_ROUNDING = 8.0 * np.finfo(float).eps
_QUAD_BUDGET = 512       # panels of one quadrature, over all rounds


def refine(x0: float, x1: float, n: int, solve, flag, budget: int, what: str) -> tuple:
    """The arrays ``solve`` gives over panels from x0 to x1, n of equal width
    at first, each bisected while ``flag`` marks it.

    ``solve(a, b)`` returns a tuple of arrays over the panels [a_i, b_i],
    panel first, and ``flag(*arrays)``, given them over every panel of the
    mesh, the panels to bisect.  Only the halves of bisected panels are
    solved again.  A round that would take the solves beyond ``budget``
    raises AccuracyError before it is built."""
    spent, count, edges = 0, n, None
    while True:
        if spent + count > budget:
            raise AccuracyError(f"{what} unresolved after {spent} panel solves"
                                f" ({count} more needed, budget {budget})")
        spent += count
        if edges is None:
            edges = np.linspace(x0, x1, n + 1)
            data = solve(edges[:-1], edges[1:])
        else:
            new = solve(edges[:-1][fresh], edges[1:][fresh])
            data = tuple(_interleave(kept, part, fresh) for kept, part in zip(data, new))
        bad = flag(*data)
        if not bad.any():
            return data
        edges = np.insert(edges, np.flatnonzero(bad) + 1, 0.5 * (edges[:-1] + edges[1:])[bad])
        data = tuple(d[~bad] for d in data)
        fresh = np.repeat(bad, np.where(bad, 2, 1))
        count = len(fresh) - len(data[0])


def _interleave(kept: np.ndarray, new: np.ndarray, fresh: np.ndarray) -> np.ndarray:
    """The rows ``kept`` and ``new`` in mesh order, ``new`` where ``fresh``."""
    out = np.empty((len(fresh),) + new.shape[1:], new.dtype)
    out[~fresh], out[fresh] = kept, new
    return out


def integrate(f, a: float, b: float):
    """int_a^b f, to _QUAD_TOL of int_a^b |f| or to rounding, on panels of
    _K + 1 Chebyshev points, of width _PANEL at first.

    ``f`` takes the points as an array of shape (panel, _K) and returns its
    values in that shape, or with leading axes for several integrands, which
    are integrated together.  Each panel's integral comes from the values at
    its points 1.._K, so f is never evaluated at a panel's start: an
    integrand whose formula breaks down at a, like a mapped tail at t = 0,
    needs only a smooth limit there.  A panel is bisected while the last two
    Chebyshev coefficients of the integral from its start exceed both its
    share of the tolerance, (width / |b - a|) _QUAD_TOL S with S the sum of
    the panels' |integrals|, and the rounding of its values.  A non-finite
    value, or more than _QUAD_BUDGET panels, raises AccuracyError.
    """
    lead = []    # the leading axes of f's values

    def solve(lo, hi):
        h = 0.5 * (lo - hi)[:, None]
        values = np.asarray(f(0.5 * (lo + hi)[:, None] + h * _NODES[1:]), dtype=float)
        if not np.isfinite(values).all():
            raise AccuracyError("quadrature failed: an integrand value beyond double range")
        lead[:] = values.shape[:-2]
        values = values.reshape(-1, len(lo), _K)
        rows = values @ _QUAD_ROWS.T
        # per panel and integrand: the integral, the tail scaled to the whole
        # interval, and the rounding of the integral so scaled
        scale = abs(b - a)
        return ((h[:, 0] * rows[..., 0]).T, (0.5 * scale * np.abs(rows[..., 1:]).max(axis=2)).T,
                (_ROUNDING * scale * np.abs(values).max(axis=2)).T)

    def flag(sums, tails, rounding):
        return ~(tails <= np.maximum(_QUAD_TOL * np.abs(sums).sum(axis=0), rounding)).all(axis=1)

    with np.errstate(all="ignore"):
        sums = refine(a, b, max(1, math.ceil(abs(b - a) / _PANEL)), solve, flag,
                      _QUAD_BUDGET, "quadrature")[0]
    return sums.sum(axis=0).reshape(lead)


def increasing_root(f, slope, target: float, xtol: float = 2e-12,
                    rtol: float = 4 * np.finfo(float).eps) -> float:
    """x > 0 with f(x) = target, for f increasing from f(0) < target, and
    ``slope`` its derivative (an estimate serves).

    The root is bracketed in [x, 2x] by doubling or halving from 1; below 1
    xtol is scaled to the bracket, where an absolute xtol would lose a root
    like 1e-15.  Inside the bracket each Newton step is replaced by bisection
    when it would leave the bracket or not halve the step before it, and the
    root is returned once a step is below (xtol + rtol |x|)/2, the
    tolerance of brentq, whose defaults these are; a Newton step that small
    is taken even where it rounds onto the bracket's end."""
    hi, f_hi = 1.0, f(1.0)
    while f_hi < target:
        hi *= 2.0
        f_hi = f(hi)
    lo = 0.5 * hi
    if hi == 1.0:
        while (f_lo := f(lo)) >= target:
            hi, f_hi, lo = lo, f_lo, 0.5 * lo
        xtol *= lo
    if f_hi == target:   # a root on the bracket's end, which Newton steps only approach
        return hi
    x, last = 0.5 * (lo + hi), hi - lo
    while True:
        value = float(f(x)) - target
        if value == 0.0:
            return x
        if value < 0.0:
            lo = x
        else:
            hi = x
        d = float(slope(x))
        step = value / d if d > 0.0 else math.inf
        tol = 0.5 * (xtol + rtol * abs(x))
        # a step below the tolerance may round onto the bracket's end
        if abs(step) >= tol and not (lo < x - step < hi and abs(step) < 0.5 * last):
            step = x - 0.5 * (lo + hi)
        x, last = x - step, abs(step)
        if last < tol:
            return x
