import json
import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from oscdet import numerics, spectral, spectrum
from oscdet.actions import binomial_action
from oscdet.cli import main
from oscdet.errors import AccuracyError, DivergenceError, DomainError
from oscdet.potential import PotentialSpec, beta_coefficients
from oscdet.predictions import measure_point
from oscdet.special_functions import CATALAN, alternating_ladder_zeta, ladder_zeta
from oscdet.spectral import (
    DeterminantValue,
    det_ratio,
    det_ratio_skew,
    harmonic_det,
    shooting_det,
    zeta_from_det,
    zeta_full,
    zeta_skew,
)
from oscdet.spectrum import eigenvalues

from helpers import uncoupled


# --------------------------------------------------------------------------
# the spectral dilation law, the oracle of the shot's scale handling
# --------------------------------------------------------------------------

def zeta0_value(ref_spec: PotentialSpec) -> float:
    """Z(0, lam) = -2 beta_{-1}(0) / N of the reference problem, from its series."""
    return -2.0 * beta_coefficients(ref_spec, -1).residue().value / ref_spec.N


def dilate_det(det: DeterminantValue, r: float, ref_spec: PotentialSpec) -> DeterminantValue:
    """Map det^pm of the reference (argument lam/r folded into ref_spec.lam)
    to the determinant of the dilated spectrum lam_k -> r lam_k.

    D -> r^{Z(0)} D, D^P -> r^{1/2} D^P; the parity exponents follow from
    Z^pm(0) = (Z(0) +- 1/2)/2.
    """
    if r <= 0.0:
        raise DomainError("dilation factor must be positive")
    z0 = zeta0_value(ref_spec)
    logr = math.log(r)
    return DeterminantValue(
        det.log_abs_even + 0.5 * (z0 + 0.5) * logr, det.sign_even,
        det.log_abs_odd + 0.5 * (z0 - 0.5) * logr, det.sign_odd,
        det.log_abs_skew + 0.5 * logr, det.method)


# --------------------------------------------------------------------------
# closed harmonic determinants
# --------------------------------------------------------------------------

def test_harmonic_det_reference_values():
    assert harmonic_det(1.0, 0.0).full == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert harmonic_det(1.0, 1.0).full == pytest.approx(math.sqrt(math.pi), abs=1e-12)


def test_harmonic_det_vanishes_on_spectrum():
    for k in (0, 1, 3):
        d = harmonic_det(1.0, -(2 * k + 1))
        assert d.full == 0.0
    d = harmonic_det(4.0, -2.0 * 3.0)   # lam = -(2k+1) sqrt(v), k = 1
    assert d.full == 0.0


def test_harmonic_det_beyond_double_range_or_not_a_number():
    # lam/sqrt(v) = -1e300/1e-150 overflows to -inf, where round() would raise
    for lam in (-1e300, 1e300):
        with pytest.raises(AccuracyError, match="double range"):
            harmonic_det(1e-300, lam)
    with pytest.raises(DomainError):
        harmonic_det(1.0, math.nan)


def test_harmonic_det_parity_split():
    # full = even * odd and skew = even / odd
    d = harmonic_det(1.0, 0.3)
    assert d.full == pytest.approx(d.even * d.odd, rel=1e-12)
    assert d.skew == pytest.approx(d.even / d.odd, rel=1e-12)


def test_harmonic_scaling_identity():
    # exact identity: dilating the unit oscillator by r = sqrt(v)
    for v in (2.0, 5.0):
        for lam in (0.0, 0.7, 2.0):
            direct = harmonic_det(v, lam)
            r = math.sqrt(v)
            ref = uncoupled(2, 1.0, lam / r)
            mapped = dilate_det(harmonic_det(1.0, lam / r), r, ref)
            assert direct.log_abs_full == pytest.approx(mapped.log_abs_full, abs=1e-12)
            assert direct.log_abs_skew == pytest.approx(mapped.log_abs_skew, abs=1e-12)


@pytest.mark.parametrize("v", [0.25, 1.0, 4.0])
def test_harmonic_det_against_mpmath(v):
    # log det of the ladder sqrt(v)(4k + a + w) is -d/ds of its zeta at s = 0:
    # log(4 sqrt v) zeta_H(0, x) - zeta_H'(0, x), x = (a + w)/4; 50 digits
    # beyond the x log x size of the logs, so the oracle skew keeps them all
    r = math.sqrt(v)
    for lam in (-0.9 * r, -0.5 * r, 0.0, 0.3 * r, 1.0, 3.0, 10.0, 38 * r, 39 * r,
                40 * r, 1e2, 1e3, 1e5, 1e7, 1e10, 1e14, 1e17, 1e30, 1e60, 1e124):
        got = harmonic_det(v, lam)
        with mp.workdps(50 + max(0, int(math.log10(abs(lam) + 1.0)))):
            base = mp.log(4 * mp.sqrt(v))
            even, odd = (base * mp.zeta(0, x) - mp.zeta(0, x, 1)
                         for x in ((a + mp.mpf(lam) / mp.sqrt(v)) / 4 for a in (1, 3)))
            for value, want in ((got.log_abs_even, even), (got.log_abs_odd, odd),
                                (got.log_abs_skew, even - odd)):
                assert abs(value - want) <= 1e-13 * abs(want), (v, lam, value, want)


# --------------------------------------------------------------------------
# shooting determinants
# --------------------------------------------------------------------------

def test_shooting_reproduces_harmonic():
    # the third-order WKB start leaves 1e-10 of log A, and the collocation
    # less: within 1e-10 of the closed form
    for v in (0.5, 1.0, 2.0, 4.0):
        for lam in (0.0, 0.5, 0.625, 1.0, 1.875, 3.125, 4.375):
            got = shooting_det(uncoupled(2, v), lam)
            want = harmonic_det(v, lam)
            assert got.method == "shooting"
            assert abs(got.log_abs_even - want.log_abs_even) <= 1e-10, (v, lam)
            assert abs(got.log_abs_odd - want.log_abs_odd) <= 1e-10, (v, lam)


def test_shooting_steep_harmonic_keeps_its_digits():
    # v q^2 has length v^(-1/4): the shot's tail point and the span of its
    # gauged leg scale with it, so the normalization does not cancel down
    # from +-1.6e9 at v = 1e19, as it would with a tail point at q = 1
    for v in (1e15, 1e18, 1e19):
        got = shooting_det(uncoupled(2, v))
        want = harmonic_det(v, 0.0)
        assert abs(got.log_abs_even - want.log_abs_even) <= 1e-10, v
        assert abs(got.log_abs_odd - want.log_abs_odd) <= 1e-10, v


def test_shooting_parity_combination_identities():
    d = shooting_det(uncoupled(4, 1.0), 0.5)
    assert d.full == pytest.approx(d.even * d.odd, rel=1e-10)
    assert d.skew == pytest.approx(d.even / d.odd, rel=1e-10)


def test_shooting_returns_across_couplings():
    # the strongly coupled partners q^N + v q^M of the small-g laws included
    for N in (4, 6, 8, 10):
        for M in range(0, N, 2):
            for v in (1.0, 1e2, 1e4, 1e6):
                for lam in (0.0, 1.0):
                    d = shooting_det(PotentialSpec(N, M, 1.0, v, 0.0), lam)
                    assert math.isfinite(d.log_abs_even) and math.isfinite(d.log_abs_odd)
                    assert math.isfinite(d.log_abs_skew), (N, M, v, lam)
                    assert d.sign_even == 1.0 and d.sign_odd == 1.0, (N, M, v, lam)


def test_shooting_integrator_failure_is_an_accuracy_error(monkeypatch, capsys):
    # a leg the propagator cannot resolve within its panel budget: q^4 - 1e6
    # oscillates about 4400 times between its turning point and the origin, and
    # with no tolerance every panel is bisected until the budget is spent.
    # _TAIL_TOL is the shot's own tolerance; the amplitude-tail quadrature
    # keeps its _QUAD_TOL and converges, so the propagator is what refuses
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["det", "--spec", "4 0 1.0 0.0 -1e6"]) == 3
        monkeypatch.setattr(spectral, "_TAIL_TOL", 0.0)
        with pytest.raises(AccuracyError, match="shot propagator: a leg unresolved after"):
            shooting_det(uncoupled(4, 1.0), 0.0)
        assert main(["det", "--spec", "4 0 1.0 0.0 0.0"]) == 3
    assert caught == []
    assert "Traceback" not in capsys.readouterr().err


def test_shooting_refuses_to_lose_psi_where_the_gauge_ends():
    # the gauge ends where P = 4/L^2, L the length of the larger power
    # there, so psi'/psi ~ Pi there at every v: on v q^2 alone, and on
    # q^4 + v q^2, where at P = 4 psi'/psi ~ v^(1/4) would lose A to
    # rounding in U + V from v = 1e20 on.  There log D is twice the action,
    # and v q^2 carries the skew
    for v in (1e-30, 1e15, 1e30, 1e60, 1e300):
        d, want = shooting_det(uncoupled(2, v)), harmonic_det(v, 0.0)
        for name in ("log_abs_even", "log_abs_odd", "log_abs_skew"):
            assert getattr(d, name) == pytest.approx(getattr(want, name), abs=1e-10), (v, name)
    for v in (1e20, 1e30, 1e100, 1e150):
        d = shooting_det(PotentialSpec.trinomial(4, 2, v))
        want = 2.0 * binomial_action(1.0, v, 4.0, 2.0).value
        assert d.log_abs_full == pytest.approx(want, rel=1e-10), v
        assert d.log_abs_skew == pytest.approx(harmonic_det(v, 0.0).log_abs_skew, abs=1e-10), v


def test_shot_quadrature_failure_is_an_accuracy_error(monkeypatch, capsys):
    # the amplitude tail's quadrature with its panel budget spent: it refuses
    # before it evaluates a panel
    monkeypatch.setattr(numerics, "_QUAD_BUDGET", 0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(AccuracyError, match="quadrature unresolved after 0 panel solves"):
            shooting_det(uncoupled(4, 1.0), 0.0)
        assert main(["det", "--spec", "4 0 1.0 0.0 0.0"]) == 3
    assert caught == []
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("order", (0, 1, 2, 4))
def test_gauged_sweep_jacobian_is_exact(order):
    # the collocation blocks against the coefficients of the linear systems:
    # A' = (Pi + r) A + Pi Bhat, Bhat' = Pi A + (Pi - r) Bhat in U = A + Bhat,
    # V = A - Bhat, times dq/dt, and (psi', psi)' = (P psi, psi') in q, or
    # L (P psi, psi') in x = q/L; their mu-derivatives against mpmath's
    spec = PotentialSpec.trinomial(4, 2, 464.0, 0.3)
    q_cut, scale, t, length = 0.05, 0.7, np.linspace(0.0, 2.5, 7), 0.8
    q, dq = q_cut + scale * np.sinh(t), scale * np.cosh(t)
    gauged = spectral._gauged_blocks(spec, q_cut, scale, t, order)
    plain = spectral._plain_blocks(spec, length, q / length, order)
    assert len(gauged) == len(plain) == order + 1
    to_uv = mp.matrix([[1, 1], [1, -1]])
    for i in range(len(q)):
        x = mp.mpf(q[i])

        def entry(mu, j, k, gauge):
            p = spec.u * x**4 + spec.v * x**2 + spec.lam + mu
            if not gauge:
                return mp.mpf(length) * [[0, p], [1, 0]][j][k]
            pi, r = mp.sqrt(p), (4 * spec.u * x**3 + 2 * spec.v * x) / (4 * p)
            ab = mp.matrix([[pi + r, pi], [pi, pi - r]])
            return (mp.mpf(dq[i]) * to_uv * ab * to_uv**-1)[j, k]

        for n in range(order + 1):
            for blocks, gauge in ((gauged, True), (plain, False)):
                want = np.array([[float(mp.diff(lambda mu: entry(mu, j, k, gauge), 0, n))
                                  for k in range(2)] for j in range(2)])
                got = blocks[n][:, :, i]
                assert np.allclose(got, want, rtol=1e-13, atol=1e-13 * abs(want).max()), (n, q[i])


def test_the_shot_at_order_four_gives_the_ladder_zetas():
    # q^2 at lam = 0: the levels 2k + 1, whose zetas are the ladder sums, and
    # Z(s) = (-1)^{s+1}/(s-1)! d^s log D/dmu^s up to s = 4; each
    # lam-derivative of the tail series is one term there
    _, psi, dpsi, c_norm = spectral._shoot(uncoupled(2, 1.0), 4)
    odd, even = spectral._log_derivs(psi), spectral._log_derivs(dpsi)
    for s in range(1, 5):
        weight = (-1) ** (s + 1) / math.factorial(s - 1)
        if s > 1:
            full = weight * (2.0 * c_norm[s] + even[s - 1] + odd[s - 1])
            assert full == pytest.approx(ladder_zeta(s, 1.0, 2.0), rel=1e-12), s
        skew = weight * (even[s - 1] - odd[s - 1])
        assert skew == pytest.approx(alternating_ladder_zeta(s, 1.0, 2.0), rel=1e-12), s


@pytest.mark.parametrize("text", ("4 2 1 464 0", "6 2 1 1 5", "8 0 1 0 0", "10 4 1 1 1e10"))
def test_gauged_leg_trace_integrates_the_momentum(monkeypatch, text):
    # Liouville: tr J_m = 2 d^m Pi/dmu^m dq/dt, so half the integrals of the
    # traces over the leg, run from q_max in to q_cut, are -int Pi,
    # -int 1/(2 Pi) and int 1/(4 Pi^3) over [q_cut, q_max]; q_cut = 0 on
    # 6 2 1 1 5, and q^10 + q^4 + 1e10 resolves its traces on more panels
    # than its solution needs
    legs = []
    real = spectral._propagate

    def spying(shot_legs, y):
        out = real(shot_legs, y)
        legs.append((*shot_legs[0][:2], out[1]))   # the gauged leg's blocks and start, the traces
        return out

    monkeypatch.setattr(spectral, "_propagate", spying)
    spec = PotentialSpec.from_text(text)
    spectral._shoot(spec, 2)
    blocks, t_max, traces = legs[0]
    _, q_cut, scale = blocks.args   # q = q_cut + scale sinh t, t from t_max (q_max) to 0

    def p(q):
        return spec.u * q**spec.N + spec.v * q**spec.M + spec.lam

    with mp.workdps(30):
        points = [q_cut + scale * mp.sinh(mp.mpf(t_max) * k / 8) for k in range(9)]
        for m, f in enumerate((lambda q: mp.sqrt(p(q)), lambda q: 1 / (2 * mp.sqrt(p(q))),
                               lambda q: -1 / (4 * mp.sqrt(p(q)) ** 3))):
            want = mp.quad(f, points)
            assert abs(-0.5 * traces[m] - want) <= 1e-13 * abs(want), (m, traces[m], want)


def test_shooting_is_reproducible_under_a_last_bit_change():
    # a one-ulp change of u moves log|D+-| by rounding, not by another mesh
    for N, M, v in ((4, 0, 0.0), (4, 2, 1.0), (8, 4, 1.0), (6, 2, 464.0), (10, 8, 1e4)):
        for lam in (0.0, 1.0, 4.4):
            d = shooting_det(PotentialSpec(N, M, 1.0, v, 0.0), lam)
            e = shooting_det(PotentialSpec(N, M, 1.0 + 2.0**-52, v, 0.0), lam)
            for x, y in ((d.log_abs_even, e.log_abs_even), (d.log_abs_odd, e.log_abs_odd)):
                assert abs(x - y) <= 1e-9 * abs(x), (N, M, v, lam, x, y)


@pytest.mark.parametrize("lam,even,odd", [
    (-5.0, -2.008010563273, -3.307123289087),
    (-50.0, -17.53001981503, -16.72503212586),
    (-400.0, -76.07512931839, -79.87863529122),
    (-3000.0, -351.6009247465, -358.1569816347),
])
def test_shooting_negative_shifts_refine_or_refuse(lam, even, odd):
    # q^4 + lam oscillates below its turning point, faster as lam falls: the
    # panels there are bisected until the solution is resolved, or the shot
    # raises AccuracyError; never a wrong value.  References from the shot
    # integrated at a relative tolerance of 1e-13.
    try:
        d = shooting_det(uncoupled(4, 1.0), lam)
    except AccuracyError:
        return
    assert (d.sign_even, d.sign_odd) == (-1.0, -1.0)
    for got, want in ((d.log_abs_even, even), (d.log_abs_odd, odd)):
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (lam, got, want)


@pytest.mark.parametrize("v", (1.0, 5.0))
@pytest.mark.parametrize("N,M", [(4, 2), (6, 2), (6, 4), (8, 4), (8, 6), (10, 4), (10, 8)])
def test_shooting_large_lambda_remainder_falls(N, M, v):
    # a zeta-regularized determinant has no constant term at large lambda
    # (Voros, Commun. Math. Phys. 110 (1987) 439): with the Weyl heat-trace
    # terms c_j t^{alpha_j}, the remainder
    #   C = log D - sum_{alpha_j < 0} (-c_j Gamma(alpha_j)) lam^{-alpha_j} - Z(0) log lam
    # falls to 0.  alpha_j is exact, so alpha_1 = 0 of (10, 4) is left out.
    spec = PotentialSpec.trinomial(N, M, v)
    terms = []
    j = 0
    while (alpha := j * (1 - Fraction(M, N)) - Fraction(1, 2) - Fraction(1, N)) < 0:
        c = (-v) ** j / math.factorial(j) * (2 / N) * math.gamma((M * j + 1) / N) \
            / math.sqrt(4 * math.pi)
        terms.append((float(alpha), -c * math.gamma(float(alpha))))
        j += 1
    z0 = zeta0_value(spec)
    remainders = [abs(shooting_det(spec, lam).log_abs_full
                      - sum(a * lam ** -alpha for alpha, a in terms) - z0 * math.log(lam))
                  for lam in (1e6, 1e8, 1e10)]
    assert remainders[0] > remainders[1] > remainders[2], remainders


def test_shot_cost_guard(monkeypatch):
    # collocation panels over the 36 interactive shots of the benchmark's
    # determinants workload: N = 4, 6, 8, every M, v on four log-spaced
    # points of [0.5, 50] and shifts on four of [0, 5]; 301 panels in 41
    # batched solves: one per shot, whose gauged and plain legs are
    # collocated together, and one more for each of the five shots whose
    # gauged leg bisects a panel (62 solves, one per leg and round, when
    # each leg had its own)
    panels = []
    real = spectral._collocate

    def counting(blocks, a, b, order):
        panels.append(len(a))
        return real(blocks, a, b, order)

    monkeypatch.setattr(spectral, "_collocate", counting)
    shots = [(0.5 * 100.0 ** ((i + 0.5) / 4), 5.0 * (i + 0.5) / 4) for i in range(4)]
    for N in (4, 6, 8):
        for M in range(0, N, 2):
            for v, shift in shots:
                shooting_det(PotentialSpec.trinomial(N, M, v), shift)
    assert sum(panels) <= 320 and len(panels) <= 41, (sum(panels), len(panels))


def test_shot_collocates_only_the_bisected_halves(monkeypatch):
    # q^4 - 3000 oscillates on its plain leg, whose first panels span 7
    # radians each, and its gauged leg is bisected ten times towards the gauge
    # end: the first round collocates the first panels of both legs, and
    # each later round the two halves of the panel it bisects, 81 panels in
    # all (every panel of every round, 191, before), with log|D+-| as when
    # every panel was collocated again
    panels = []
    real = spectral._collocate

    def counting(blocks, a, b, order):
        panels.append(len(a))
        return real(blocks, a, b, order)

    monkeypatch.setattr(spectral, "_collocate", counting)
    d = shooting_det(uncoupled(4, 1.0), -3000.0)
    assert sum(panels) <= 95, panels
    assert panels[1:] == [2] * (len(panels) - 1), panels
    assert d.log_abs_even == pytest.approx(-351.600924746495, abs=1e-11)
    assert d.log_abs_odd == pytest.approx(-358.15698163535666, abs=1e-11)


def test_shot_refuses_a_leg_beyond_its_budget_before_solving(monkeypatch, capsys):
    # the legs of q^4 start with 7 (gauged) and 3 (plain) panels of width
    # 0.5: under a budget of 2 the shot refuses before it builds or
    # collocates them
    real_collocate, real_linspace = spectral._collocate, np.linspace

    def capped(blocks, a, b, order):
        assert len(a) <= spectral._BUDGET, len(a)
        return real_collocate(blocks, a, b, order)

    def counted(start, stop, num):
        assert num - 1 <= spectral._BUDGET, num
        return real_linspace(start, stop, num)

    monkeypatch.setattr(spectral, "_BUDGET", 2)
    monkeypatch.setattr(spectral, "_collocate", capped)
    monkeypatch.setattr(spectral.np, "linspace", counted)
    assert main(["det", "--spec", "4 0 1 0 0"]) == 3
    captured = capsys.readouterr()
    message = json.loads(captured.out)["message"]
    assert "unresolved after 0 panel solves" in message and "\n" not in message
    assert captured.err == ""


def _bisect_sign(f, lo, hi, tol=1e-8):
    flo = f(lo)
    assert flo * f(hi) < 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) * flo > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_shooting_zeros_locate_the_spectrum():
    # D-(lam) vanishes at -odd levels, D+(lam) at -even levels
    spec = uncoupled(4, 1.0)
    levels = eigenvalues(spec, 4, 1e-8).values()

    def signed(parity):
        # one shot per bisection step; only the sign of D is bisected
        return lambda lam: getattr(shooting_det(spec, lam), f"sign_{parity}")

    root_odd = _bisect_sign(signed("odd"), -levels[1] - 0.4, -levels[1] + 0.4)
    assert -root_odd == pytest.approx(levels[1], abs=1e-6)

    root_even = _bisect_sign(signed("even"), -levels[0] - 0.4, -levels[0] + 0.4)
    assert -root_even == pytest.approx(levels[0], abs=1e-6)


def test_shooting_matches_product_ratios():
    # Gelfand-Yaglom-style cross-check; q^4 + 400 q^2 is stiff in the gauge
    for spec in (uncoupled(4, 1.0),
                 uncoupled(6, 1.0),
                 PotentialSpec.trinomial(4, 2, 1.0),
                 PotentialSpec.trinomial(4, 2, 400.0)):
        d0 = shooting_det(spec, 0.0)
        for lam in (0.5, 1.0, 2.0):
            dl = shooting_det(spec, lam)
            shoot = math.exp(dl.log_abs_full - d0.log_abs_full)
            product = det_ratio(spec, lam)
            assert shoot == pytest.approx(product, rel=1e-5), (spec, lam)


@pytest.mark.parametrize("spec", (uncoupled(6, 1.0), PotentialSpec.trinomial(4, 2, 1.0)))
def test_det_ratio_tail_matches_shooting_to_1e8(spec):
    # with the second-order level count and the -F'(K)/12 end term the product
    # route agrees with shooting far below the 1e-5 of the test above
    d0 = shooting_det(spec, 0.0)
    for lam in (0.5, 1.0, 2.0):
        shoot = math.exp(shooting_det(spec, lam).log_abs_full - d0.log_abs_full)
        assert det_ratio(spec, lam, count=256) == pytest.approx(shoot, rel=1e-8), lam


def test_skew_ratio_routes_agree():
    spec = uncoupled(4, 1.0)
    d0 = shooting_det(spec, 0.0)
    for lam in (0.5, 1.5):
        dl = shooting_det(spec, lam)
        shoot = math.exp(dl.log_abs_skew - d0.log_abs_skew)
        product = det_ratio_skew(spec, lam)
        assert shoot == pytest.approx(product, rel=1e-6)


# --------------------------------------------------------------------------
# determinant ratios
# --------------------------------------------------------------------------

def test_det_ratio_trivial_points():
    spec = uncoupled(4, 1.0)
    assert det_ratio(spec, 0.0) == pytest.approx(1.0, abs=1e-12)
    lam3 = eigenvalues(spec, 4, 1e-8).values()[3]
    assert det_ratio(spec, -lam3) == pytest.approx(0.0, abs=1e-9)


def test_det_ratio_sign_below_ground_state():
    spec = uncoupled(4, 1.0)
    lam0, lam1 = eigenvalues(spec, 2, 1e-8).values()
    mid = -0.5 * (lam0 + lam1)
    assert det_ratio(spec, mid) < 0.0


def test_det_ratio_requires_zero_free_form():
    with pytest.raises(DomainError):
        det_ratio(uncoupled(2, 1.0), 0.5)


@pytest.mark.parametrize("spec", [uncoupled(4, 1.0), uncoupled(6, 1.0),
                                  PotentialSpec.trinomial(4, 2, 1.0)])
def test_det_ratios_far_from_the_origin(spec):
    # a ratio beyond double range is a signed inf, and a -lambda past the top
    # computed level (6088 on q^4 at 384 levels) is refused: there every
    # factor beyond it is negative, and the skew's averaging gave the value
    # at +lambda.  Every finite, nonzero ratio keeps the shot's log to 1e-8
    d0 = shooting_det(spec)
    lams = [3e3, 9132.0] + [10.0**e for e in (3, 4, 5, 8, 20, 100, 300)]
    for lam in lams + [-lam for lam in lams]:
        try:
            shot = shooting_det(spec, lam)
        except AccuracyError:
            shot = None
        for ratio, name in ((det_ratio, "log_abs_full"), (det_ratio_skew, "log_abs_skew")):
            try:
                got = ratio(spec, lam)
            except (AccuracyError, DomainError, DivergenceError):
                continue
            if math.isfinite(got) and got and shot is not None:
                want = getattr(shot, name) - getattr(d0, name)
                assert abs(math.log(abs(got)) - want) <= 1e-8, (lam, name, got, want)
            assert not math.isnan(got), (lam, name)
    with pytest.raises(AccuracyError, match="past the last"):
        det_ratio_skew(uncoupled(4, 1.0), -1e4)


@pytest.mark.parametrize("spec", [uncoupled(4, 1.0), uncoupled(6, 1.0),
                                  PotentialSpec.trinomial(4, 2, 1.0)])
def test_det_ratios_at_a_tiny_lambda(spec):
    # below eps lam_0, log1p(lam/lam_k) = lam/lam_k to rounding on every
    # level, so the log ratio is lam Z(1) on the same 384 levels: at
    # |lam| near 1e-300 the product's tail integrand is subnormal, and
    # det_ratio refused there after 492 panel solves.  Just above the
    # switch the product agrees with it to 1e-15
    z_full = zeta_full(spec, 1, count=384).value
    z_skew = zeta_skew(spec, 1, count=384).value
    for k in range(16, 321):
        for lam in (10.0**-k, -(10.0**-k)):
            assert det_ratio(spec, lam) == math.exp(lam * z_full), lam
            assert det_ratio_skew(spec, lam) == math.exp(lam * z_skew), lam
    switch = np.finfo(float).eps * eigenvalues(spec, 384).values()[0]
    for lam in (1.0000001 * switch, -1.0000001 * switch):
        assert det_ratio(spec, lam) == pytest.approx(math.exp(lam * z_full), rel=1e-15, abs=0)
        assert det_ratio_skew(spec, lam) == pytest.approx(math.exp(lam * z_skew), rel=1e-15, abs=0)
    for lam in (0.9999999 * switch, -0.9999999 * switch):
        assert det_ratio(spec, lam) == math.exp(lam * z_full)


@pytest.mark.parametrize("lam", (math.nan, math.inf, -math.inf))
def test_det_ratios_refuse_a_non_finite_lambda(lam):
    # a product over the levels at lambda = nan or +-inf is no ratio at all,
    # as a zeta at a non-finite E is no sum
    for ratio in (det_ratio, det_ratio_skew):
        with pytest.raises(DomainError, match="lambda must be finite"):
            ratio(uncoupled(4, 1.0), lam)


# --------------------------------------------------------------------------
# zeta functions
# --------------------------------------------------------------------------

def test_harmonic_zeta_constants():
    q2 = uncoupled(2, 1.0)
    assert zeta_skew(q2, 1).value == pytest.approx(math.pi / 4.0, abs=1e-12)
    assert zeta_full(q2, 2).value == pytest.approx(math.pi**2 / 8.0, abs=1e-12)
    assert zeta_skew(q2, 2).value == pytest.approx(CATALAN, abs=1e-12)


def test_harmonic_full_zeta_diverges_at_one():
    q2 = uncoupled(2, 1.0)
    with pytest.raises(DivergenceError):
        zeta_full(q2, 1)
    # below s = 1 the zeta is not a sum at all: a domain error, as for the skew
    for zeta in (zeta_full, zeta_skew):
        with pytest.raises(DomainError):
            zeta(q2, 0)


def test_harmonic_skew_accelerated_vs_partial_sums():
    # 10^4 exact terms summed directly, then averaged once
    k = np.arange(10**4)
    terms = (-1.0) ** k / (2.0 * k + 1.0) ** 2
    partial = np.cumsum(terms)
    oracle = 0.5 * (partial[-1] + partial[-2])
    assert zeta_skew(uncoupled(2, 1.0), 2).value == pytest.approx(oracle, abs=1e-8)


@pytest.mark.parametrize("lam", (0.0, 1e4, 1e8))
def test_zeta_of_n_two_is_the_shifted_ladder(lam):
    # u q^2 + v + lam has the levels sqrt(u)(2k+1) + v + lam, which the zetas
    # sum as the ladder at E - (v + lam); an eigen solve at lam = 1e8 is
    # refused, the ladder is exact
    for u, v, E in ((1.0, 0.0, 0.0), (2.5, 1.0, -0.7), (1e-3, 100.0, 0.5)):
        spec = PotentialSpec(2, 0, u, v, lam)
        root = math.sqrt(u)
        first, step = root - (E - (v + lam)), 2.0 * root
        for s in (1, 2, 3):
            skew = zeta_skew(spec, s, E)
            assert (skew.value, skew.E, skew.tail_fraction) == \
                (alternating_ladder_zeta(s, first, step), E, 0.0)
            if s == 1:
                with pytest.raises(DivergenceError):
                    zeta_full(spec, s, E)
            else:
                assert zeta_full(spec, s, E).value == ladder_zeta(s, first, step)


def test_harmonic_zetas_against_mpmath_nsum():
    # closed Hurwitz forms against the ladder sqrt(v)(2k+1) - E summed by mpmath
    for v in (1.0, 2.5):
        spec = uncoupled(2, v)
        for E in (0.0, -1.3, 0.6):
            r = mp.sqrt(v)
            for s in (1, 2, 3):
                skew = mp.nsum(lambda k: (-1) ** k / (r * (2 * k + 1) - E) ** s, [0, mp.inf])
                assert zeta_skew(spec, s, E).value == pytest.approx(float(skew), rel=1e-14)
                if s > 1:
                    full = mp.nsum(lambda k: 1 / (r * (2 * k + 1) - E) ** s, [0, mp.inf])
                    assert zeta_full(spec, s, E).value == pytest.approx(float(full), rel=1e-14)


def test_harmonic_skew_zeta_far_up_the_ladder():
    # 0.5^-1000 - 2.5^-1000 + ... = 2^1000 fits in a double although
    # 4^-1000 does not; 100^400 does not fit and is inf
    q2 = uncoupled(2, 1.0)
    assert zeta_skew(q2, 1000, 0.5).value == pytest.approx(2.0**1000, rel=1e-15)
    assert zeta_skew(q2, 400, 0.99).value == math.inf
    assert zeta_full(q2, 10**6, -1e6).value == 0.0


def test_harmonic_zeta_domain():
    # E at or above the ground level r, or not a number; v not positive and finite
    for E, v in ((1.0, 1.0), (math.nan, 1.0), (0.0, 0.0), (0.0, -1.0), (0.0, math.inf)):
        for zeta in (zeta_full, zeta_skew):
            with pytest.raises(DomainError):
                zeta(uncoupled(2, v), 2, E)


def test_skew_series_from_the_bernoulli_table():
    # the hand-typed coefficients that harmonic_det was checked with
    assert spectral._SKEW_SERIES == (-1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432,
                                     691 / 180224)


def test_zeta_skew_computed_spectrum_vs_partial_sums():
    spec = uncoupled(4, 1.0)
    res = eigenvalues(spec, 384, 1e-6)
    vals = res.values()
    terms = (-1.0) ** np.arange(len(vals)) * vals ** (-2.0)
    partial = np.cumsum(terms)
    oracle = 0.5 * (partial[-1] + partial[-2])
    z = zeta_skew(spec, 2, count=384, tol=1e-6)
    assert z.value == pytest.approx(oracle, abs=1e-8)


def test_zeta_full_tail_fraction_invariant():
    z = zeta_full(uncoupled(4, 1.0), 2)
    assert z.tail_fraction < 0.1


def parity_zeta(spec, parity, s, *, count, tol):
    """Plain partial sum over one parity sector (no tail model)."""
    lam = np.array([e.value for e in eigenvalues(spec, count, tol).entries
                    if e.parity == parity])
    return float(np.sum(lam ** (-float(s))))


def test_zeta_parity_combinations():
    spec = uncoupled(4, 1.0)
    zf = zeta_full(spec, 2, count=384, tol=1e-6)
    zs = zeta_skew(spec, 2, count=384, tol=1e-6)
    z_even = parity_zeta(spec, "even", 2, count=384, tol=1e-6)
    z_odd = parity_zeta(spec, "odd", 2, count=384, tol=1e-6)
    # partial parity sums live below the tail-completed full zeta; the
    # alternating combination needs no tail at all
    assert 0.5 * (zf.value + zs.value) == pytest.approx(z_even, abs=2e-3)
    assert 0.5 * (zf.value - zs.value) == pytest.approx(z_odd, abs=2e-3)
    assert zs.value == pytest.approx(z_even - z_odd, abs=1e-6)


def test_zeta_from_det_matches_zeta_full():
    # s = 1 on q^4 + q^2 at the default 128 levels takes 14% from the tail
    for spec, s in ((uncoupled(4, 1.0), 2), (PotentialSpec.trinomial(4, 2, 1.0), 1)):
        z_det = zeta_from_det(spec, s, 0.0)
        z_sum = zeta_full(spec, s, 0.0)
        assert z_det.value == pytest.approx(z_sum.value, abs=1e-5), (spec, s)


@pytest.mark.parametrize("spec", [uncoupled(4, 1.0),
                                  PotentialSpec.trinomial(4, 2, 1.0),
                                  uncoupled(6, 1.0)])
def test_zeta_from_det_far_below_the_ground_state(spec):
    # at E << 0 the mu-derivatives of the normalization's tail series are
    # near 1e-11 in size, and the shot's zetas keep their digits only if
    # that series is summed to rounding, not to an absolute 1e-11
    for E in (-1e4, -1e6, -1e8, -1e12):
        for s in (1, 2):
            want = zeta_full(spec, s, E, count=160, tol=1e-7).value
            got = zeta_from_det(spec, s, E).value
            assert got == pytest.approx(want, rel=1e-10, abs=0.0), (E, s)


@pytest.mark.parametrize("E", (math.nan, math.inf, -math.inf))
def test_zetas_refuse_a_non_finite_energy(E):
    spec = uncoupled(4, 1.0)
    for zeta in (zeta_full, zeta_skew, zeta_from_det):
        with pytest.raises(DomainError, match="E must be finite"):
            zeta(spec, 2, E)


def test_zeta_full_with_every_term_below_double_range_is_an_accuracy_error():
    # each (lam_k + 1e200)^-2 underflows, while Weyl's law puts the sum
    # near 4.6e-251: a total of 0 is lost, not small
    with pytest.raises(AccuracyError, match="below double range"):
        zeta_full(uncoupled(4, 1.0), 2, -1e200)


def test_zeta_full_far_below_the_spectrum_is_weyl_or_refused():
    # at E << 0 the zetas of q^4 tend to the leading Weyl forms
    # Z(1; E) = (3 sqrt 2 / 2) I |E|^(-1/4) and
    # Z(2; E) = (2/pi) I (3/4) Gamma(3/4) Gamma(5/4) |E|^(-5/4), with
    # I = int_0^1 sqrt(1 - x^4) dx; where the tail's integrand underflows the
    # sum is refused, not returned as its head alone
    spec = uncoupled(4, 1.0)
    area = math.gamma(0.25) * math.gamma(1.5) / (4.0 * math.gamma(1.75))
    forms = {1: (1.5 * math.sqrt(2.0) * area, -0.25),
             2: (2.0 / math.pi * area * 0.75 * math.gamma(0.75) * math.gamma(1.25), -1.25)}
    refused = set()
    for k in range(20, 310, 5):
        for s, (c, power) in forms.items():
            try:
                value = zeta_full(spec, s, -(10.0**k)).value
            except AccuracyError:
                refused.add((s, k))
                continue
            assert value == pytest.approx(c * 10.0 ** (k * power), rel=1e-10), (s, k)
    # the sums that came back as the head alone: s = 1 from 1e165, s = 2 from 1e110
    assert {(1, k) for k in range(165, 310, 5)} | {(2, k) for k in range(110, 310, 5)} <= refused
    assert (1, 100) not in refused and (2, 60) not in refused
    # the refusal is relative to the head: at s = 200 the tail's integrand
    # underflows too, but the ground level carries the sum
    ground = eigenvalues(spec, 128, 1e-6).values()[0]
    assert zeta_full(spec, 200).value == pytest.approx(ground**-200.0, rel=1e-15)


@pytest.mark.parametrize("spec", [uncoupled(4, 1.0),
                                  PotentialSpec.trinomial(4, 2, 1.0),
                                  uncoupled(6, 1.0),
                                  uncoupled(8, 1.0)])
def test_zeta_full_is_one_solve_at_the_count_given(monkeypatch, spec):
    # the tail carries 4% to 17% of Z(1) at 64 levels; the sum is still
    # within 5.4e-11 of the determinant route there, and 1.1e-12 at 160
    counts = []

    def counting(spec, count, tol):
        counts.append(count)
        return eigenvalues(spec, count, tol)

    monkeypatch.setattr(spectral, "eigenvalues", counting)
    want = zeta_from_det(spec, 1).value
    for count, rel in ((64, 1e-10), (160, 2e-12)):
        z = zeta_full(spec, 1, count=count)
        assert counts == [count]
        assert z.value == pytest.approx(want, rel=rel), count
        assert 0.0 < z.tail_fraction < 0.2
        counts.clear()


def test_zeta_full_at_eight_levels_matches_zeta_from_det():
    # 8 levels of q^4 and a Bohr-Sommerfeld tail that carries 0.4% of Z(2)
    spec = uncoupled(4, 1.0)
    z_sum = zeta_full(spec, 2, count=8)
    assert z_sum.value == pytest.approx(zeta_from_det(spec, 2).value, abs=1e-7)


def test_zeta_from_det_skew_matches_accelerated_sum():
    spec = uncoupled(4, 1.0)
    z_det = zeta_from_det(spec, 1, 0.0, skew=True)
    z_sum = zeta_skew(spec, 1, count=384, tol=1e-6)
    assert z_det.value == pytest.approx(z_sum.value, abs=1e-5)


def test_zeta_from_det_harmonic_closed_forms():
    # pi/4 and pi^2/8 on q^2; the ladders of 2.5 q^2 below, at and above E = 0
    q2 = uncoupled(2, 1.0)
    assert zeta_from_det(q2, 1, skew=True).value == pytest.approx(math.pi / 4.0, rel=1e-9)
    assert zeta_from_det(q2, 2).value == pytest.approx(math.pi**2 / 8.0, rel=1e-9)
    spec = uncoupled(2, 2.5)
    for E in (0.0, -1.3, 0.6):
        assert zeta_from_det(spec, 2, E).value == pytest.approx(
            zeta_full(spec, 2, E).value, rel=1e-9)
        for s in (1, 2):
            assert zeta_from_det(spec, s, E, skew=True).value == pytest.approx(
                zeta_skew(spec, s, E).value, rel=1e-9)


def test_zeta_from_det_ground_state_guard():
    q2 = uncoupled(2, 1.0)
    # above the ground state 1, below the first excited level 3
    with pytest.raises(DomainError):
        zeta_from_det(q2, 2, 1.5)
    with pytest.raises(DomainError):
        zeta_from_det(q2, 3)
    # close below the ground state, and below the ground state 101 of q^2 + 100
    for spec, E in ((q2, 0.9), (uncoupled(2, 1.0, 100.0), 90.0)):
        assert zeta_from_det(spec, 2, E).value == pytest.approx(
            zeta_full(spec, 2, E).value, rel=1e-9)


def test_zeta_from_det_refuses_each_energy_by_one_guard():
    # on q^4, between lam_3 = 11.64 and lam_4 = 16.26, both D+ and D- are
    # positive, so only the Bohr-Sommerfeld guard (E at or above the first
    # excited level) refuses E = 13.95; between lam_0 = 1.06 and lam_1 = 3.80,
    # D+ < 0 and det_jet's sign check refuses E = 2.43
    q4 = uncoupled(4, 1.0)
    det, _, _ = spectral.det_jet(q4, -13.95)
    assert det.sign_even == det.sign_odd == 1.0
    with pytest.raises(DomainError, match="below the ground state"):
        zeta_from_det(q4, 1, 13.95)
    with pytest.raises(DomainError, match="below the ground state"):
        spectral.det_jet(q4, -2.43)
    with pytest.raises(DomainError, match="below the ground state"):
        zeta_from_det(q4, 1, 2.43)


def test_zeta_from_det_solves_no_level_at_or_below_the_minimum(monkeypatch):
    # every level lies above min V = V(0), so an E at or below it needs no
    # Bohr-Sommerfeld level: q^4 at E = 0 and -1, and the four partners
    # q^N + v q^2 of the benchmark at E = 0, with and without the skew
    calls = []

    def spying(spec, k):
        calls.append((spec, k))
        return spectrum.bs_level(spec, k)

    monkeypatch.setattr(spectral, "bs_level", spying)
    q4 = uncoupled(4, 1.0)
    partners = [PotentialSpec.trinomial(N, 2, g ** (-4.0 / (N + 2)))
                for N, g in ((4, 3e-4), (4, 1e-4), (6, 1e-4), (6, 1e-5))]
    for spec, E in [(q4, 0.0), (q4, -1.0)] + [(p, 0.0) for p in partners]:
        for s, skew in ((1, False), (1, True), (2, False)):
            assert math.isfinite(zeta_from_det(spec, s, E, skew=skew).value)
    assert calls == []
    zeta_from_det(q4, 1, 0.5)
    assert calls == [(q4, 1.0)]


@pytest.mark.parametrize("N,M,g", [(8, 6, 1e-4), (10, 8, 1e-3), (10, 8, 1e-4)])
def test_zeta_from_det_on_small_g_partners(N, M, g):
    # q^N + v q^M with v = g^{-(M+2)/(N+2)}: |log D| up to 1e9 at g = 1e-4
    spec = PotentialSpec.trinomial(N, M, g ** (-(M + 2) / (N + 2)))
    assert zeta_from_det(spec, 1).value == pytest.approx(
        zeta_full(spec, 1, count=512).value, rel=1e-8)
    assert zeta_from_det(spec, 1, skew=True).value == pytest.approx(
        zeta_skew(spec, 1, count=384).value, rel=1e-8)
    assert zeta_from_det(spec, 2).value == pytest.approx(
        zeta_full(spec, 2, count=512).value, rel=1e-8)


@pytest.mark.parametrize("N,M,lam", [(4, 2, 0.0), (10, 8, 0.0), (4, 2, 100.0), (6, 4, 100.0)])
def test_zeta_from_det_s2_at_strong_coupling(N, M, lam):
    # on q^4 + 1e6 q^2 the bridge integrand of d^2/dmu^2, -1/(4 P^{3/2}),
    # peaks at q_cut = 0.002, six decades below the tail point; with
    # lam = 100 it peaks at the origin, with half width 0.01
    spec = PotentialSpec(N, M, 1.0, 1e6, lam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z_det = zeta_from_det(spec, 2).value
    assert z_det == pytest.approx(zeta_full(spec, 2).value, rel=1e-5)


def test_zeta_from_det_one_shot_per_point(monkeypatch):
    # z1, zp1 and z2 of one point: one order-2 propagation over both legs
    # (gauged and plain), and nothing else; measure_point reads its
    # determinant from the same shot, with no order-0 propagation
    orders = []
    real = spectral._propagate

    def counting(legs, y):
        orders.append((len(legs), len(y) - 1))
        return real(legs, y)

    monkeypatch.setattr(spectral, "_propagate", counting)
    spectral.det_jet.cache_clear()
    spec = PotentialSpec.trinomial(4, 2, 464.0)
    zeta_from_det(spec, 1)
    zeta_from_det(spec, 1, skew=True)
    zeta_from_det(spec, 2)
    assert orders == [(2, 2)]

    orders.clear()
    spectral.det_jet.cache_clear()
    measure_point(4, 1e-3)
    assert orders == [(2, 2)]


@pytest.mark.parametrize("N,g", [(4, 3e-4), (4, 1e-4), (6, 1e-4), (6, 1e-5)])
def test_det_jet_determinant_matches_shooting_det(N, g):
    # the six-component shot's determinant against the two-component shot
    spec = PotentialSpec.trinomial(N, 2, g ** (-4.0 / (N + 2)))
    jet, _, _ = spectral.det_jet(spec, 0.0)
    shot = shooting_det(spec)
    assert jet.log_abs_even == pytest.approx(shot.log_abs_even, rel=1e-9)
    assert jet.log_abs_odd == pytest.approx(shot.log_abs_odd, rel=1e-9)
    assert jet.log_abs_skew == pytest.approx(shot.log_abs_skew, abs=1e-9)
    assert (jet.sign_even, jet.sign_odd) == (shot.sign_even, shot.sign_odd) == (1.0, 1.0)


# --------------------------------------------------------------------------
# dilation
# --------------------------------------------------------------------------

def test_dilate_uncoupled_quartic():
    # det(v q^4 + lam) = det(q^4 + v^{-1/3} lam): type N, zero exponent
    v, lam = 2.0, 0.7
    direct = shooting_det(uncoupled(4, v), lam)
    r = v ** (1.0 / 3.0)
    ref = uncoupled(4, 1.0, lam / r)
    mapped = dilate_det(shooting_det(uncoupled(4, 1.0), lam / r), r, ref)
    assert direct.log_abs_full == pytest.approx(mapped.log_abs_full, abs=1e-7)
    # skew picks up exactly v^{1/(M+2)}
    assert zeta0_value(ref) == 0.0
    assert direct.log_abs_skew == pytest.approx(mapped.log_abs_skew, abs=1e-7)


@pytest.mark.parametrize("N,M,v,lam", [
    (6, 4, 1e4, 0.0),
    (6, 4, 1e4, 1.0),
    (10, 8, 1e4, 0.0),
    (8, 6, 1e6, 1.0),
    # the two terms of the WKB residual cancel at q = 1.2^3 here, so a
    # residual test that can vanish by accident matches there and is off by 3e-5
    (4, 0, 0.0, 1.2**12 / 1.5),
])
def test_shooting_matches_dilated_partner(N, M, v, lam):
    # u a^{N+2} q^N + v a^{M+2} q^M + lam a^2 has the spectrum a^2 lam_k
    direct = shooting_det(PotentialSpec(N, M, 1.0, v, lam))
    for a in (0.5, 3.0):
        partner = PotentialSpec(N, M, a ** (N + 2), v * a ** (M + 2), lam * a * a)
        mapped = dilate_det(shooting_det(partner), a**-2, partner)
        assert mapped.log_abs_even == pytest.approx(direct.log_abs_even, rel=1e-8)
        assert mapped.log_abs_odd == pytest.approx(direct.log_abs_odd, rel=1e-8)
        assert mapped.log_abs_skew == pytest.approx(direct.log_abs_skew, abs=1e-8)


@pytest.mark.parametrize("N", (4, 6, 8, 10))
def test_shooting_a_dilated_power_as_at_u_one(N):
    # u q^N is q^N dilated by its length L = u^(-1/(N+2)), spectrum
    # lam_k / L^2; the shot measures its gauge end and plain leg in L, so a
    # shallow power is neither refused nor built beyond its panel budget
    ref = uncoupled(N, 1.0)
    base = shooting_det(ref)
    for u in (1e-60, 1e-12, 1e-4, 1e4, 1e12):
        got = shooting_det(uncoupled(N, u))
        want = dilate_det(base, u ** (2.0 / (N + 2)), ref)
        for name in ("log_abs_even", "log_abs_odd", "log_abs_skew"):
            x = getattr(want, name)
            assert abs(getattr(got, name) - x) <= 1e-10 * max(1.0, abs(x)), (u, name)


@pytest.mark.parametrize("N", (4, 6, 8, 10))
@pytest.mark.parametrize("g", (1e-2, 1e-6, 1e-10))
def test_measure_point_matches_the_dilated_partner(N, g):
    # q^2 + g q^N has the spectrum v^(-1/2) lam_k of its Symanzik partner
    # q^N + v q^2, v = g^(-4/(N+2)): Z(s) = v^(s/2) Z_v(s), and the
    # determinants dilate by r = v^(-1/2).  The partner's Z(2) carries the
    # shot's error in d^2 log D/dmu^2 times v, 1.6e-9 at (4, 1e-10); z1 and
    # zp1 agree to 2e-12 relative, ratio0 to 1e-11 of max(1, |ratio0|)
    # and skew_ratio0 to 1e-14
    p = measure_point(N, g)
    v = g ** (-4.0 / (N + 2))
    partner = PotentialSpec.trinomial(N, 2, v)
    det, full, skew = spectral.det_jet(partner, 0.0)
    d0 = dilate_det(det, v**-0.5, partner)
    assert p.z1 == pytest.approx(math.sqrt(v) * full[0], rel=1e-12)
    assert p.zp1 == pytest.approx(math.sqrt(v) * skew[0], rel=1e-11)
    assert p.z2 == pytest.approx(v * full[1], rel=5e-9)
    ratio0 = d0.log_abs_full - 0.5 * math.log(2.0)
    assert abs(p.ratio0 - ratio0) <= 5e-11 * max(1.0, abs(ratio0))
    skew_ratio0 = d0.log_abs_skew - harmonic_det(1.0, 0.0).log_abs_skew
    assert p.skew_ratio0 == pytest.approx(skew_ratio0, abs=1e-13)


@pytest.mark.parametrize("s", (1, 2))
def test_zeta_full_of_a_dilated_quartic(s):
    # u q^4 has the spectrum u^(1/3) lam_k of q^4, so Z(s) = u^(-2s/6) Z_1(s);
    # the level tail is taken in Q_K/Q, which the dilation leaves alone (in Q
    # it was refused from u = 1e-40 down).  The levels' tolerance is absolute,
    # so it is dilated with them
    base = zeta_full(uncoupled(4, 1.0), s).value
    for e in range(-60, 41, 20):
        u = 10.0**e
        got = zeta_full(uncoupled(4, u), s, tol=1e-6 * u ** (1.0 / 3.0)).value
        assert got == pytest.approx(u ** (-2.0 * s / 6.0) * base, rel=1e-10), e


def test_dilate_rejects_bad_factor():
    with pytest.raises(DomainError):
        dilate_det(harmonic_det(1.0, 0.0), -1.0, uncoupled(2, 1.0))
