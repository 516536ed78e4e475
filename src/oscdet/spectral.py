"""Spectral zeta functions, determinants, and the shooting evaluator.

Determinants are zeta-regularized and carried in log/sign form: the
canonical recessive solution picks up hundreds of e-folds between the WKB
matching point and the origin, and the interesting regimes push the
determinants themselves far outside double range.

The shooting evaluator carries the recessive solution inward in a WKB
gauge: A = Psi e^{-phi}, Bhat = Psi' e^{-phi} / Pi with
phi = -(1/4) log P + T(q), where T is the zeta-regularized tail action.
Both components stay O(1) all the way down, nodes of Psi pass through
A = 0 with their sign intact, and the boundary data at the origin are the
parity determinants.  The other mode decays in the gauge at rate 2 sqrt(P),
so the system is stiff where P is large.  Both sweeps are linear,
y' = J(q) y, and are solved by piecewise Chebyshev collocation (Trefethen,
Spectral Methods in MATLAB, SIAM 2000, ch. 6 and 13): every panel's
propagator comes from one batched dense solve, which is implicit, so the
stiff mode costs nothing, and the Chebyshev tail of the chained solution in
each panel is the truncation estimate that bisects the panels it flags.
The sweep starts from the WKB series through third order; the odd orders
are total derivatives (Voros, Ann. Inst. H. Poincare A 39 (1983) 211), so
the third costs no quadrature.  Nor does the normalization, the
zeta-regularized action int Pi dq: by Liouville's formula it is half the
log-determinant int tr J dt of the gauged leg's propagator, plus the
regularized tail series at the WKB start.

Zeta values are mu-derivatives of log det(H + mu),
Z(s) = (-1)^{s+1}/(s-1)! d^s/dmu^s log D, from one shot of the sensitivity
equations: the solution's mu-derivatives are propagated with it through the
same panel matrices, and the WKB start, the traces and the tail series are
differentiated with them by one set of jet helpers, so no difference
quotient, no step width and no formula for one order enters.  One routine
(``_shoot``) does all shooting: the plain shot of ``shooting_det``
propagates the solution alone, and the sensitivity shot (``det_jet``)
returns its determinants next to the zetas, so one shot per coupling serves
both (``zeta_from_det``, ``measure_point``).
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from .actions import adaptive_tail, choose_split_point
from .errors import AccuracyError, DivergenceError, DomainError
from .numerics import _DIFF, _INTEGRATE, _K, _NODES, _QUAD_ROWS, _TAIL, integrate, refine
from .potential import PotentialSpec
from .spectrum import bs_level, bs_tail, eigenvalues, turning_point
from .special_functions import BERNOULLI, alternating_ladder_zeta, ladder_zeta, log_gamma

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# log Gamma(x + 1/2) - log Gamma(x) - (1/2) log x ~ sum_k c_k x^-(2k+1): the
# coefficients (2^(1-n) - 2) B_n / (n(n-1)), n = 2k + 2 <= 12; from
# _SKEW_SERIES_X on, six terms leave 1e-15 out, where the difference of the
# two logs would lose digits to their x log x growth
_SKEW_SERIES = tuple(float((Fraction(2) ** (1 - n) - 2) * b / (n * (n - 1)))
                     for n, b in BERNOULLI.items() if n <= 12)
_SKEW_SERIES_X = 10.0


# --------------------------------------------------------------------------
# value containers
# --------------------------------------------------------------------------

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _signed_exp(sign: float, log_abs: float) -> float:
    """sign * exp(log_abs), a signed inf once log_abs is beyond double range."""
    if log_abs > _LOG_FLOAT_MAX:
        return sign * math.inf
    return sign * math.exp(log_abs)


@dataclass(frozen=True)
class DeterminantValue:
    """Parity determinants in log/sign form; full is derived.

    log_abs_skew = log|D+| - log|D-| is stored, formed before any common
    normalization is added: at |log D| ~ 1e12 the difference of the two
    parity logs cancels every digit of it.
    """

    log_abs_even: float
    sign_even: float
    log_abs_odd: float
    sign_odd: float
    log_abs_skew: float
    method: str            # "closed-harmonic" | "shooting"

    @property
    def log_abs_full(self) -> float:
        return self.log_abs_even + self.log_abs_odd

    @property
    def sign_full(self) -> float:
        return self.sign_even * self.sign_odd

    @property
    def even(self) -> float:
        return _signed_exp(self.sign_even, self.log_abs_even)

    @property
    def odd(self) -> float:
        return _signed_exp(self.sign_odd, self.log_abs_odd)

    @property
    def full(self) -> float:
        return _signed_exp(self.sign_full, self.log_abs_full)

    @property
    def skew(self) -> float:
        if self.sign_odd == 0.0:
            return math.inf
        return _signed_exp(self.sign_even / self.sign_odd, self.log_abs_skew)


@dataclass(frozen=True)
class ZetaValue:
    s: int
    E: float
    value: float
    tail_fraction: float


# --------------------------------------------------------------------------
# shooting determinant
# --------------------------------------------------------------------------

def _wkb_terms(work: PotentialSpec, q: float) -> tuple[float, tuple, tuple]:
    """P at q, and the WKB terms c P^{-beta} of the start there as (value,
    beta): those of y1, y2 and y3 of w (the last three are y3's), and y2's
    boundary term and (1/2) y2/Pi of ell (``_shoot``)."""
    p = work.value(q)
    b1, b2, b3 = (work.deriv(q, k) / p for k in (1, 2, 3))
    root = math.sqrt(p)
    w_terms = ((-b1 / 4.0, 1.0), (-b2 / (8.0 * root), 1.5),
               (5.0 * b1 * b1 / (32.0 * root), 2.5), (-b3 / (16.0 * p), 2.0),
               (9.0 * b1 * b2 / (32.0 * p), 3.0), (-15.0 * b1**3 / (64.0 * p), 4.0))
    ell_terms = ((-b1 / (8.0 * root), 1.5), (-b2 / (16.0 * p), 2.0),
                 (5.0 * b1 * b1 / (64.0 * p), 3.0))
    return p, w_terms, ell_terms


def _choose_q_max(work: PotentialSpec, q: float) -> float:
    """WKB matching point: the first q * 1.2^k, k = 0, 1, ..., where the
    bound on |y3|/Pi, the magnitudes of y3's three terms added so that it
    does not vanish where they cancel, is at most 5e-10.  The start then
    misses at most 1e-10 of log A (the tail integral of y4, 8e-12 in the
    median) on q^N + v q^M + lam, N <= 10, v <= 1e6.  The shot walks out from
    at least improper_action's split point (``choose_split_point``), so its
    regularized tail series converges there too."""
    while True:
        p, w_terms, _ = _wkb_terms(work, q)
        if not sum(abs(c) for c, _ in w_terms[3:]) / math.sqrt(p) > 5e-10:
            return q
        q *= 1.2


_PLAIN_THRESHOLD = 4.0   # drop the WKB gauge once P L^2 falls below this

_TAIL_TOL = 1e-12        # largest relative Chebyshev tail of a panel's solution and tr J
_BUDGET = 4096           # panel solves of one leg, over all rounds, before the shot gives up
# the most radians a first panel of the plain leg spans where psi oscillates:
# the Chebyshev coefficients of cos(omega h s/2) on a panel of width h are the
# Bessel J_k(omega h/2), and J_19(3.5) = 2.9e-13 leaves the last two below
# _TAIL_TOL, so the plain leg of q^4 - 3000 needs no bisection
_RADIANS = 7.0


def _gauged_blocks(work: PotentialSpec, q_cut: float, scale: float, t, order: int) -> list:
    """The gauged system in U = A + Bhat, V = A - Bhat at the points t,
    q = q_cut + scale sinh t: dq/dt [[2 Pi, r], [r, 0]] with Pi = sqrt(P)
    and r = P'/(4P), and its first ``order`` mu-derivatives."""
    q, dq = q_cut + scale * np.sinh(t), scale * np.cosh(t)
    p = work.value(q)
    pi, r = np.sqrt(p), work.deriv(q) / (4.0 * p)
    zero = np.zeros_like(r)
    jets = [(_power_jet(pi, p, -0.5, n), _power_jet(r, p, 1.0, n)) for n in range(order + 1)]
    return [dq * np.array([[2.0 * d, e], [e, zero]]) for d, e in jets]


def _plain_blocks(work: PotentialSpec, length: float, x: np.ndarray, order: int) -> list:
    """L [[0, P], [1, 0]] at q = L x, the plain system in (psi', psi) in the
    variable x = q/L, and its mu-derivatives."""
    zero, one = np.zeros_like(x), np.full_like(x, length)
    return ([np.array([[zero, length * work.value(length * x)], [one, zero]]),
             np.array([[zero, one], [zero, zero]])][:order + 1]
            + [np.zeros((2, 2) + x.shape) for _ in range(order - 1)])


_EYE_K = np.eye(_K)
# the first component's right side of the unit starts' Schur solve, less
# J0[0][1] times their second component (_UNIT[1])
_UNIT, _ZERO = np.eye(2), np.zeros((2, 2))
_UNIT_RHS = -_DIFF[1:, :1] * _UNIT[0]


def _collocate(blocks, a: np.ndarray, b: np.ndarray, order: int):
    """The propagators X0, ..., X_order of the jets over the panels
    [a_i, b_i] (a_i the start), as values at the panel's Chebyshev points,
    shape (panel, component, point, start); tr J0, ..., tr J_order at the
    points, shape (jet, panel, point); and a flag on each panel where a
    tr J_m has a last-two Chebyshev coefficient above _TAIL_TOL of its size
    there.

    ``blocks(x, order)`` gives J0, ..., J_order at the points x, each of
    shape (2, 2) + x.shape, with J0[1][1] = 0.  X0 solves L X0 = 0 from the
    unit starts, L = d/dx - J0, and X_m solves L X_m = sum_{k=1..m} C(m, k)
    J_k X_{m-k} from zero starts.  The second component is its start plus an
    integral of the first, so each panel solves one _K x _K Schur complement
    for the first, the same for every X_m."""
    h = 0.5 * (a - b)[:, None]
    J = [h * j for j in blocks(0.5 * (a + b)[:, None] + h * _NODES, order)]
    trace = np.array([j[0, 0] + j[1, 1] for j in J])          # (jet, panel, point)
    tail = np.abs(trace @ _TAIL.T).max(axis=2)
    unresolved = ~(tail <= _TAIL_TOL * np.abs(trace).max(axis=2)).all(axis=0)
    j00, j01, j10 = (J[0][i, k, :, 1:, None] for i, k in ((0, 0), (0, 1), (1, 0)))
    schur = _DIFF[1:, 1:] - j00 * _EYE_K - j01 * _INTEGRATE * j10.transpose(0, 2, 1)

    def solve(rhs, f1, start):   # the first component's right side, the second's forcing
        out = np.empty((len(a), 2, _K + 1, 2))
        out[:, :, 0] = start
        out[:, 0, 1:] = first = np.linalg.solve(schur, rhs)
        out[:, 1, 1:] = start[1] + _INTEGRATE @ (j10 * first + f1)
        return out

    def jet(f):            # zero starts, forcing f at points 1.._K
        return solve(f[:, 0] + j01 * (_INTEGRATE @ f[:, 1]), f[:, 1], _ZERO)

    def force(m, x):       # J_m x at points 1.._K
        return np.einsum("ikpj,pkjc->pijc", J[m][..., 1:], x[:, :, 1:])

    X = [solve(_UNIT_RHS + j01 * _UNIT[1], 0.0, _UNIT)]
    for m in range(1, order + 1):
        X.append(jet(sum(math.comb(m, k) * force(k, X[m - k]) for k in range(1, m + 1))))
    return X, trace, unresolved


@np.errstate(all="ignore")    # a non-finite value fails the tail test
def _propagate(legs: list, y: list) -> tuple[list, np.ndarray]:
    """The jets y = [y0, ..., y_order] (2-vectors) of
    y_m' = sum_{k=0..m} C(m, k) J_k y_{m-k} carried along the
    ``legs`` (blocks, x0, x1, turn) in turn, and the integrals of
    tr J0, ..., tr J_order over the first leg.

    Each leg runs from its x0 to its x1 under its ``blocks`` (J0, ..., J_order
    at given points) and ends in its ``turn`` (None for none), which maps its
    end state to the next leg's start or, after the last leg, to the result.
    The legs are split into panels of width _PANEL, each collocated at
    _K + 1 Chebyshev points, every leg's in one batch (``_collocate``), and
    the panel propagators are chained from the start, block lower-triangular
    in the jets.  Every panel over which a jet of the chained solution has a
    last-two Chebyshev coefficient above _TAIL_TOL of the size of the
    solution there is bisected (an error in y_m / y0 that later panels carry
    unchanged), as is every panel flagged for its tr J_m; only the halves
    are collocated, and the chain runs again over the kept and the new
    propagators (``refine``), whose last round gives the end state.  A leg is
    judged, and turned, only in a round in which every panel before it is
    resolved, so its mesh is the one it gets from its final start.  The
    estimate is not taken on the unit-start propagators, which leave the
    slow manifold and excite the stiff layer of the gauged leg.  A round that
    would take a leg beyond _BUDGET panel solves raises AccuracyError before
    it is built."""
    order = len(y) - 1
    start, out = np.concatenate(y), {}

    def solve(a, b, counts):
        bounds = list(itertools.accumulate(counts, initial=0))

        def blocks(x, order):
            parts = [leg[0](x[lo:hi], order) for leg, lo, hi in zip(legs, bounds, bounds[1:])
                     if hi > lo]
            return parts[0] if len(parts) == 1 else [np.concatenate(j, axis=2) for j in zip(*parts)]

        X, trace, unresolved = _collocate(blocks, a, b, order)
        # each leg's panel integrals of tr J_m, by the row ``integrate`` uses,
        # taken leg by leg: the product's rounding depends on the rows beside
        traces = np.empty((order + 1, len(a))).T
        for lo, hi in zip(bounds, bounds[1:]):
            traces[lo:hi] = (trace[:, lo:hi, 1:] @ _QUAD_ROWS[0]).T
        # (panel, point, jet, component, jet, start): C(m, k) X_k in block (m, m - k)
        props = np.zeros((len(a), _K + 1, order + 1, 2, order + 1, 2))
        for m in range(order + 1):
            for k in range(m + 1):
                props[:, :, m, :, m - k] = math.comb(m, k) * X[k].transpose(0, 2, 1, 3)
        return props.reshape(len(a), _K + 1, 2 * order + 2, 2 * order + 2), traces, unresolved

    def flag(sizes, props, traces, unresolved):
        bad, state = unresolved.copy(), start
        bounds = list(itertools.accumulate(sizes, initial=0))
        for lo, hi, (*_, turn) in zip(bounds, bounds[1:], legs):
            steps, starts = props[lo:hi], []
            for step in steps[:, -1]:
                starts.append(state)
                state = step @ state
            vals = np.einsum("ptij,pj->pti", steps, np.array(starts))
            tail = np.abs(_TAIL @ vals).max(axis=(1, 2))
            bad[lo:hi] |= ~(tail <= _TAIL_TOL * np.abs(vals[:, :, :2]).max(axis=(1, 2)))
            if bad[lo:hi].any():
                break
            if lo == 0 and "traces" not in out:
                # summed once, in the round that resolves the first leg: the
                # sum's rounding depends on the layout later rounds give
                out["traces"] = traces[:hi].sum(axis=0)
            if turn is not None:
                state = np.concatenate(turn(list(state.reshape(order + 1, 2))))
        out["end"] = state     # the end state, once no panel is flagged
        return bad

    refine([(x0, x1) for _, x0, x1, _ in legs], solve, flag, _BUDGET, "shot propagator: a leg")
    return list(out["end"].reshape(order + 1, 2)), out["traces"]


# A jet is the list [f, df/dmu, ..., d^n f/dmu^n], mu the constant term of P.
# Each value (n = 0) keeps one fixed order of operations, so shooting_det's
# outputs stay bit-stable.

def _power_jet(value: float, p: float, beta: float, n: int) -> float:
    """d^n/dmu^n of a term c P^{-beta}, c free of mu, whose value at P = p is
    ``value``: value (-beta) ... (-beta-n+1) / p^n.  The caller forms the
    value from P'/P, P''/P, ..., which stay in double range where P^beta
    would not."""
    for j in range(n):
        value = value * ((-beta - j) / p)   # not *=: an array value may be shared
    return value


def _jet_mul(f, g) -> list:
    """The jet of f g by the Leibniz rule."""
    return [sum(math.comb(n, k) * f[k] * g[n - k] for k in range(n + 1))
            for n in range(len(f))]


def _amplitude_tail(work: PotentialSpec, q_max: float, order: int) -> np.ndarray:
    """int_{q_max}^inf P'^2/P^{5/2} dq and its first ``order`` mu-derivatives,
    by the panel rule (``integrate``) in t = q_max/q on [0, 1], where the
    integrand is a series in powers of t."""
    def integrand(t):
        q = q_max / t
        p = work.value(q)
        base = (work.deriv(q) / p) ** 2 / np.sqrt(p) * q * q / q_max
        return np.array([_power_jet(base, p, 2.5, n) for n in range(order + 1)])

    return integrate(integrand, 0.0, 1.0)


def _ungauge(p_cut: float, ys: list) -> list:
    """The jets of (psi', psi) where the gauge ends, at P = p_cut, from those
    of (U, V): A = (U + V)/2 and psi' = Pi Bhat = Pi (U - V)/2.  A that
    cancels in U + V raises AccuracyError."""
    if not abs(ys[0].sum()) >= 1e-4 * abs(ys[0]).max():
        raise AccuracyError("psi is lost to rounding where the gauge ends: |Bhat/A| > 1e4")
    dys = _jet_mul([_power_jet(math.sqrt(p_cut), p_cut, -0.5, n) for n in range(len(ys))],
                   [0.5 * (y[0] - y[1]) for y in ys])
    return [np.array([dy, 0.5 * (y[0] + y[1])]) for y, dy in zip(ys, dys)]


def _shoot(work: PotentialSpec, order: int):
    """The parity determinants of ``work`` and the jets of psi(0), psi'(0)
    and the normalization c_norm of the recessive solution, each a jet
    through its ``order``-th mu-derivative.

    Both legs run through one propagator (``_propagate``), which carries the
    jets of a two-component state and collocates the panels of both legs in
    one batch per refinement round; the gauged leg ends in ``_ungauge``,
    whose (psi', psi) start the plain leg, or are the result where the gauge
    runs to the origin.  The gauged leg runs in t, with
    q = q_cut + scale sinh t, from the WKB matching point q_max down to
    q_cut, where P L^2 drops to 4, L the length at which the larger power
    there balances the kinetic term: u^{-1/(N+2)} (``PotentialSpec.length``),
    or v^{-1/(M+2)} where v q^M is the larger once the powers reach
    4 u^{2/(N+2)}.  So psi'/psi is of order Pi where the gauge ends (on
    q^4 + v q^2 it is v^{1/4} at P = 4, which loses A from v = 1e20 on), and
    q^2 + g q^N is shot in units of q^2, not of g^{-1/(N+2)}, which would
    spend the plain leg's panel budget at g = 1e-10.  The gauge runs to the
    origin where P(0) u^{2/(N+2)} >= 4.  Its state is U = A + Bhat and
    V = A - Bhat, whose system is J = dq/dt [[2 Pi, r], [r, 0]] with
    Pi = sqrt(P) and r = P'/(4P): U is the stiff mode, which the WKB start
    leaves at -r V/(2 Pi), and V the slow one.  t is linear where P doubles
    (scale is q_cut, or the q where P is 2 P(0) when q_cut = 0) and
    logarithmic beyond.  The plain leg carries (psi', psi) with
    L [[0, P], [1, 0]] in x = q/L from q_cut on to the origin, so u q^N is
    shot as q^N dilated by L; where P(0) < 0, the leg's unit is at most
    2 _RADIANS / sqrt(-P(0)), so that no first panel spans more of an
    oscillation.  Where the gauge ends, psi'/psi above 1e4 Pi would lose A
    to rounding in U + V, and a P(q_cut) whose rounding against lam is above
    1e-8 of it is not resolved.  The sweep starts at q_max from A = 1 and
    Bhat = w/Pi, w = y0 + y1 + y2 + y3 the WKB log-derivative through third
    order (``_wkb_terms``); the amplitude's log, ell = -int_{q_max}^inf
    (y2 + y3), goes to c_norm.  The odd order is a total derivative,
    y3 = -(1/2) (y2/y0)', so it adds the boundary term (1/2) y2/Pi at q_max
    to ell and no quadrature; y2's, by parts
    P'/(8 P^{3/2}) - (1/32) int P'^2/P^{5/2}, is the shot's one quadrature
    (``_amplitude_tail``).  c_norm = -1/4 log P(q_cut)
    + int_{q_cut}^{q_max} Pi + adaptive_tail at q_max + ell, q_max beyond
    improper_action's split point; the integral of each mu-derivative Pi_m
    is minus half that of tr J_m over the leg, which the propagator returns,
    and ell is added last, once the other terms have cancelled.  q_cut and
    q_max are held fixed under mu: log D does not depend on them.  A P, a
    term of the shot or a quadrature beyond double range, a quadrature that
    does not converge, a gauge end that is not resolved, or a leg the
    propagator cannot resolve within its panel budget, raises AccuracyError.
    """
    P = work.value
    length = work.length()
    threshold = _PLAIN_THRESHOLD / length**2

    try:
        if work.M and work.v:
            # v q^M is the larger power where the powers reach threshold iff
            # their sum is above it where they cross, at q^(N-M) = v/u
            cross = (work.v / work.u) ** (1.0 / (work.N - work.M))
            if 2.0 * work.v * cross**work.M > threshold:
                length = work.v ** (-1.0 / (work.M + 2))
        q_cut = 0.0 if P(0.0) >= threshold else turning_point(work, _PLAIN_THRESHOLD / length**2)
        q_max = _choose_q_max(work, max(q_cut, choose_split_point(work)))
        if not math.isfinite(P(q_max)):
            raise AccuracyError(f"P is beyond double range at the tail point q = {q_max:.3g}")
        p_cut = P(q_cut)
        # P(q_cut) is the powers' sum less |lam|, rounded by eps |lam|
        if not p_cut * 1e-8 > abs(work.lam) * sys.float_info.epsilon:
            raise AccuracyError(f"P = {p_cut:.3g} is lost to cancellation against "
                                f"lam = {work.lam:.3g} where the gauge ends")
        scale = q_cut or turning_point(work, 2.0 * p_cut)
        p0, w_terms, ell_terms = _wkb_terms(work, q_max)
        root = math.sqrt(p0)
        tail_ints = _amplitude_tail(work, q_max, order)
        ratio, ell, c_norm = [], [], []
        for n in range(order + 1):
            ratio.append(sum(_power_jet(c / root, p0, beta + 0.5, n) for c, beta in w_terms))
            ell.append(sum(_power_jet(c, p0, beta, n) for c, beta in ell_terms)
                       + float(tail_ints[n]) / 32.0)
            log_cut = math.log(p_cut) if n == 0 else _power_jet(1.0 / p_cut, p_cut, 1.0, n - 1)
            c_norm.append(-0.25 * log_cut + adaptive_tail(work, q_max, lam_deriv=n))
        legs = [(partial(_gauged_blocks, work, q_cut, scale), math.asinh((q_max - q_cut) / scale),
                 0.0, partial(_ungauge, p_cut))]
        if q_cut > 0.0:
            # below its turning point psi oscillates up to sqrt(-P(0)) in q,
            # and the leg's unit keeps a first panel within _RADIANS of it
            unit = length if P(0.0) >= 0.0 else min(length, 2.0 * _RADIANS / math.sqrt(-P(0.0)))
            legs.append((partial(_plain_blocks, work, unit), q_cut / unit, 0.0, None))
        # U = A + Bhat = ratio = (w + Pi)/Pi and V = 2 A - U at q_max, A = 1
        starts = [np.array([u, 2.0 * (n == 0) - u]) for n, u in enumerate(ratio)]
        ys, traces = _propagate(legs, starts)
        # tr J_m = 2 Pi_m dq/dt, so the leg, run inward, gives -2 int Pi_m dq
        c_norm = [c - 0.5 * float(t) + e for c, t, e in zip(c_norm, traces, ell)]
    except OverflowError:
        raise AccuracyError("P, or a term of the shot, is beyond double range") from None
    dpsi, psi = [float(y[0]) for y in ys], [float(y[1]) for y in ys]

    # D- = psi(0), D+ = -psi'(0); the skew is formed before c_norm is added
    log_even = math.log(abs(dpsi[0])) if dpsi[0] else -math.inf
    log_odd = math.log(abs(psi[0])) if psi[0] else -math.inf
    det = DeterminantValue(c_norm[0] + log_even, float(np.sign(-dpsi[0])),
                           c_norm[0] + log_odd, float(np.sign(psi[0])),
                           log_even - log_odd, "shooting")
    return det, psi, dpsi, c_norm


def shooting_det(spec: PotentialSpec, lam: float = 0.0) -> DeterminantValue:
    """Parity determinants of -d^2/dq^2 + u q^N + v q^M + (spec.lam + lam):
    D- = Psi(0), D+ = -Psi'(0) of the recessive solution, normalized by the
    zeta-regularized action, from the plain shot (``_shoot`` at order 0).  A
    panel the propagator cannot resolve at its panel cap, a quadrature
    failure, a P beyond double range at q_max, or a P lost to cancellation
    where the gauge ends, raises AccuracyError.
    """
    return _shoot(spec.with_shift(lam), 0)[0]


# --------------------------------------------------------------------------
# harmonic closed forms
# --------------------------------------------------------------------------

def harmonic_det(v: float, lam: float) -> DeterminantValue:
    """det^pm(-d^2/dq^2 + v q^2 + lam) in closed form.

    Parity spectra sqrt(v)(4k + a), a = 1, 3, are Hurwitz ladders, so each
    zeta-regularized parity determinant is an explicit Gamma expression;
    eigenvalues of the full problem give determinant zero.  A w = lam/sqrt(v)
    or a log Gamma beyond double range raises AccuracyError, a lam that is
    not a number DomainError.  The skew is
    (1/2) log(4 sqrt v) + log Gamma(x + 1/2) - log Gamma(x), x = (1 + w)/4,
    with the Gamma ratio from its large-x series once x is large.
    """
    if not v > 0.0 or math.isnan(lam):
        raise DomainError("v must be positive and lambda a number")
    w = lam / math.sqrt(v)
    if not math.isfinite(w):
        raise AccuracyError(f"lambda/sqrt(v) = {w} is beyond double range")
    base = math.log(4.0) + 0.5 * math.log(v)   # log of the ladder spacing
    out = {}
    for a, name in ((1.0, "even"), (3.0, "odd")):
        x = (a + w) / 4.0
        if x <= 0.0 and x == round(x):
            out[name] = (-math.inf, 0.0)
            continue
        try:
            lg, sg = log_gamma(x)
        except OverflowError:
            lg = math.inf
        if lg == math.inf:
            raise AccuracyError(f"log Gamma({x:.3g}) is beyond double range")
        out[name] = ((0.5 - x) * base + _HALF_LOG_2PI - lg, sg)
    x = (1.0 + w) / 4.0
    if x >= _SKEW_SERIES_X:
        series = 0.0
        for c in reversed(_SKEW_SERIES):
            series = series / (x * x) + c
        skew = 0.5 * (base + math.log(x)) + series / x
    else:
        skew = out["even"][0] - out["odd"][0]
    return DeterminantValue(out["even"][0], out["even"][1],
                            out["odd"][0], out["odd"][1], skew, "closed-harmonic")


# --------------------------------------------------------------------------
# sums over the levels: spectral zetas and Weierstrass-product ratios
# --------------------------------------------------------------------------

_DEPTH = 12                  # averaging passes over a computed spectrum


def _check_energy(E: float) -> None:
    """Raise DomainError unless the energy E is a finite number."""
    if not math.isfinite(E):
        raise DomainError(f"E must be finite, not {E}")


def _level_sum(spec: PotentialSpec, terms: np.ndarray, f=None, df=None) -> tuple[float, float]:
    """A sum over the levels of spec from its ``terms`` at the computed
    levels, and the share of the sum that the levels beyond them carry.

    With f, which gives the terms, and its derivative df, the sum is
    sum_k f(lam_k), and the levels beyond are the Bohr-Sommerfeld tail
    (``bs_tail``).  Without, it is sum_k (-1)^k terms_k, and the levels
    beyond are taken by iterated averaging of the last partial sums.
    """
    if f is None:
        partials = np.cumsum((-1.0) ** np.arange(len(terms)) * terms)
        row = list(partials[-(2 * _DEPTH + 8):])
        for _ in range(_DEPTH):
            if len(row) < 2:
                break
            row = [0.5 * (a + b) for a, b in zip(row, row[1:])]
        value, rest = row[-1], row[-1] - partials[-1]
    else:
        rest = bs_tail(spec, len(terms), f, df)
        value = float(np.sum(terms)) + rest
    return float(value), float(abs(rest) / abs(value)) if value else 0.0


def _zeta(spec: PotentialSpec, s: int, E: float, count: int, tol: float,
          skew: bool) -> ZetaValue:
    # on N = 2 the levels are the ladder r(2k+1) + v + lam, r = sqrt(u), and
    # v + lam moves into E; a finite E can leave double range there
    shifted = E - (spec.v + spec.lam) if spec.N == 2 else E
    if math.isfinite(E) and shifted == math.inf:
        raise DomainError("E must lie below the ground state")
    if math.isfinite(E) and shifted == -math.inf:
        raise AccuracyError("the constant v + lambda - E is beyond double range")
    if s < 1:
        raise DomainError("s must be at least 1")
    growth = 2.0 * spec.N / (spec.N + 2.0)
    if not skew and s * growth <= 1.0:
        raise DivergenceError(f"zeta(s={s}) diverges for growth exponent {growth}")
    _check_energy(E)
    if spec.N == 2:
        root = math.sqrt(spec.u)
        if not shifted < root:
            raise DomainError("E must lie below the ground state")
        ladder = alternating_ladder_zeta if skew else ladder_zeta
        return ZetaValue(s, E, ladder(s, root - shifted, 2.0 * root), 0.0)

    def f(lam):
        return (lam - E) ** (-float(s))

    def df(lam):
        return -s * (lam - E) ** (-float(s) - 1.0)

    levels = eigenvalues(spec, count, tol).values()
    if E >= levels[0]:
        raise DomainError("E must lie below the lowest eigenvalue")
    terms = f(levels)
    if skew:
        return ZetaValue(s, E, *_level_sum(spec, terms))
    # far below the spectrum df underflows across the tail, and bs_tail would
    # drop a tail that carries the sum: refused while the last term is above
    # the rounding of the first
    if -df(levels[-1]) < sys.float_info.min and terms[-1] > sys.float_info.epsilon * terms[0]:
        raise AccuracyError(f"the tail of zeta({s}) at E = {E!r} is lost: "
                            "its integrand is below double range")
    value, frac = _level_sum(spec, terms, f, df)
    if value == 0.0:
        raise AccuracyError(f"every term of zeta({s}) at E = {E!r} is below double range")
    return ZetaValue(s, E, value, frac)


def zeta_full(spec: PotentialSpec, s: int, E: float = 0.0, *,
              count: int = 128, tol: float = 1e-6) -> ZetaValue:
    """Z(s; E) = sum_k (lam_k - E)^{-s} over the levels of spec.

    On N = 2 the levels are the exact ladder sqrt(u)(2k+1) + v + lam, summed
    by ``ladder_zeta`` with tail_fraction 0; s = 1 diverges there, and count
    and tol are not used.  Otherwise the sum is the head over the first
    ``count`` levels of one eigen solve plus the tail over the
    Bohr-Sommerfeld levels (``bs_tail``), and ``tail_fraction`` is the tail's
    share of the total, which says how much the tail carries, not how wrong
    it is.  E must be finite and below the ground state (DomainError).  A
    total of 0, every term below double range, or a tail whose integrand
    underflows where it carries the sum, raises AccuracyError.
    """
    return _zeta(spec, s, E, count, tol, skew=False)


def zeta_skew(spec: PotentialSpec, s: int, E: float = 0.0, *,
              count: int = 160, tol: float = 1e-6) -> ZetaValue:
    """Z^P(s; E) = sum_k (-1)^k (lam_k - E)^{-s} over the levels of spec.

    On N = 2 the alternating ladder is summed once, by
    ``alternating_ladder_zeta``, so that no digits go to a difference of the
    even and odd sums.  Otherwise the sum runs over one eigen solve at
    ``count`` levels, its tail accelerated by iterated averaging of the
    partial sums; ``tail_fraction`` is the share the averaging added.  E is
    checked as in ``zeta_full``.
    """
    return _zeta(spec, s, E, count, tol, skew=True)


def _det_ratio(spec: PotentialSpec, lam: float, count: int, tol: float, skew: bool) -> float:
    if spec.N == 2:
        raise DomainError("N = 2 is not zero-free; use harmonic_det")
    if not math.isfinite(lam):
        raise DomainError(f"lambda must be finite, not {lam}")
    levels = eigenvalues(spec, count, tol).values()
    if -lam >= levels[-1]:
        raise AccuracyError(f"lambda = {lam!r} reaches past the last of {count} computed "
                            f"levels, {levels[-1]:.6g}")
    if 0.0 < levels[0] and abs(lam) < sys.float_info.epsilon * levels[0]:
        # log1p(lam/lam_k) = lam/lam_k to rounding on every level, so the log
        # ratio is lam Z(1): a sum of normal size, where the terms lam/lam_k
        # and the tail's integrand are subnormal once |lam| is near 1e-300
        zeta = zeta_skew if skew else zeta_full
        return _signed_exp(1.0, lam * zeta(spec, 1, count=count, tol=tol).value)
    factors = 1.0 + lam / levels
    if np.any(np.abs(factors) < 1e-12):
        return 0.0
    sign = -1.0 if int(np.sum(factors < 0.0)) % 2 else 1.0
    tail = () if skew else (lambda x: math.log1p(lam / x), lambda x: -lam / (x * (x + lam)))
    return _signed_exp(sign, _level_sum(spec, np.log(np.abs(factors)), *tail)[0])


def det_ratio(spec: PotentialSpec, lam: float, *,
              count: int = 384, tol: float = 1e-6) -> float:
    """D(lam)/D(0) = prod_k (1 + lam/lam_k) for N > 2: the computed levels
    plus the tail over the Bohr-Sommerfeld levels (``bs_tail``), which
    converges for N > 2.  Where |lam| < eps lam_0 on a positive first level
    lam_0, the log ratio is lam Z(1) (``zeta_full`` on the same levels).  A
    factor within 1e-12 of 0 gives 0, and a ratio beyond double range a
    signed inf; N = 2, which is not zero-free, and a lam that is not finite
    raise DomainError, and a -lam at or past the last computed level, beyond
    which the tail and the averaging take every factor to be positive,
    AccuracyError."""
    return _det_ratio(spec, lam, count, tol, skew=False)


def det_ratio_skew(spec: PotentialSpec, lam: float, *,
                   count: int = 384, tol: float = 1e-6) -> float:
    """D^P(lam)/D^P(0) = prod_k (1 + lam/lam_k)^{(-1)^k} for N > 2, its log
    accelerated by iterated averaging, or lam Z^P(1) (``zeta_skew`` on the
    same levels) where ``det_ratio`` takes lam Z(1); zeros and the domain as
    ``det_ratio``."""
    return _det_ratio(spec, lam, count, tol, skew=True)


# --------------------------------------------------------------------------
# zeta values through determinant derivatives
# --------------------------------------------------------------------------

def _log_derivs(y) -> list:
    """The derivatives l_1, l_2, ... of log|y| from the jet of y, by y' = l' y
    differentiated: l_n = (y_n - sum_{k=1..n-1} C(n-1, k-1) l_k y_{n-k}) / y_0."""
    logs = []
    for n in range(1, len(y)):
        rest = sum(math.comb(n - 1, k - 1) * logs[k - 1] * y[n - k] for k in range(1, n))
        logs.append((y[n] - rest) / y[0])
    return logs


@lru_cache(maxsize=4096)
def det_jet(spec: PotentialSpec, mu: float) -> tuple[DeterminantValue, tuple, tuple]:
    """The parity determinants of spec shifted by mu and, from the same shot,
    which propagates the solution's mu-derivatives with it, the zetas at
    E = -mu: Z(s) = (-1)^{s+1}/(s-1)! d^s/dmu^s log D, s = 1, 2, and Z^P(s)
    the same of log D+ - log D-.  Raises DomainError unless D+ and D- are
    both positive, which holds below the ground state.
    """
    det, psi, dpsi, c_norm = _shoot(spec.with_shift(mu), 2)
    if not (psi[0] > 0.0 and dpsi[0] < 0.0):
        raise DomainError("E must lie below the ground state")
    odd, even = _log_derivs(psi), _log_derivs(dpsi)
    signs = [(-1) ** (s + 1) / math.factorial(s - 1) for s in range(1, len(psi))]
    full = tuple(float(w * (2.0 * c + e + o)) for w, c, e, o in zip(signs, c_norm[1:], even, odd))
    skew = tuple(float(w * (e - o)) for w, e, o in zip(signs, even, odd))
    return det, full, skew


def zeta_from_det(spec: PotentialSpec, s: int, E: float = 0.0, *,
                  skew: bool = False) -> ZetaValue:
    """Z(s; E) = -(1/(s-1)!) d^s/dE^s log det(H - E) for s = 1, 2; with
    ``skew``, of log D+ - log D- instead, which gives the skew zeta.

    The zetas are those of one sensitivity shot (``det_jet``, cached per
    spec and E): the mu-derivatives of the recessive solution, of its WKB
    start and of the normalization (the integrals of 1/(2 Pi) and
    -1/(4 Pi^3) from the traces of the leg's mu-derivative blocks, the tail
    series term by term, to rounding) are propagated with it, so the error is
    that of the shot itself, the collocation's Chebyshev tail of 1e-12 and the
    third-order WKB start at q_max, not that of a difference quotient, also
    at E << 0, where the tail's mu-derivatives are near 1e-11.  The
    traces peak at q_cut and are resolved there like the solution, also on
    strongly coupled partners, and a quadrature that does not converge
    raises AccuracyError rather than a warning.  s >= 3
    raises DomainError up front, and so does an E that is not finite, an E
    above V(0) at or above the first Bohr-Sommerfeld excited level, or an E
    above the ground state, where a parity determinant turns negative; an E
    at or below V(0) = min V lies below every level and solves none.
    """
    if s not in (1, 2):
        raise DomainError("zeta_from_det takes s = 1 or 2")
    _check_energy(E)
    # every level lies above min V = V(0), so only an E above it needs the check
    if E > spec.value(0.0) and E >= bs_level(spec, 1.0):
        raise DomainError("E must lie below the ground state")
    _, full, skew_zetas = det_jet(spec, -E)
    return ZetaValue(s, E, (skew_zetas if skew else full)[s - 1], 0.0)
