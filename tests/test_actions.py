import math
import sys

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from oscdet import actions
from oscdet.actions import (
    adaptive_tail,
    level_one_log_correction,
    anomalous_binomial_action,
    binomial_action,
    binomial_action_s,
    choose_split_point,
    improper_action,
    trinomial_action_asymptotic,
)
from oscdet.errors import AccuracyError, DomainError
from oscdet.potential import PotentialSpec, beta_coefficients, binomial_series, expansion_parameter
from oscdet.special_functions import LOG2


def test_binomial_action_s_quadrature_oracle():
    # inside the two-sided convergence window 3/4 < s < 1 (N=4, M=2) the
    # continued formula must equal the literal integral
    s = 0.875
    head, err1 = quad(lambda q: (q**4 + q**2) ** (0.5 - s), 0.0, 1.0,
                      epsabs=1e-12, epsrel=1e-11, limit=400)
    tail, err2 = quad(lambda q: (q**4 + q**2) ** (0.5 - s), 1.0, math.inf,
                      epsabs=1e-12, epsrel=1e-11, limit=400)
    assert err1 + err2 < 1e-9
    assert binomial_action_s(1.0, 1.0, 4.0, 2.0, s) == pytest.approx(head + tail, abs=1e-8)


def test_binomial_action_s_reports_poles():
    # (6,2) at s=0 is the level-1 anomaly
    with pytest.raises(DomainError, match="pole"):
        binomial_action_s(1.0, 1.0, 6.0, 2.0, 0.0)
    # s = 1/2 + 1/M is the origin-divergence pole of the M-factor
    with pytest.raises(DomainError, match="pole"):
        binomial_action_s(1.0, 1.0, 4.0, 2.0, 1.0)


def test_quartic_plus_harmonic_closed_form():
    for v in (0.5, 1.0, 2.0):
        a = binomial_action(1.0, v, 4.0, 2.0)
        assert a.method == "closed-normal"
        assert a.value == pytest.approx(-v**1.5 / 3.0, rel=1e-12)


def test_supersymmetric_family_closed_form():
    # N = 2M + 2 collapses the level-1 branch to a short closed form
    for u in (0.5, 1.0, 2.0):
        for v in (0.5, 1.3):
            for M in (2, 4):
                N = 2 * M + 2
                want = (v / (math.sqrt(u) * (N + 2.0))
                        * (-math.log(v) + 1.0
                           + (N - 2.0) / N * (LOG2 + 0.5 * math.log(u))))
                a = binomial_action(u, v, float(N), float(M))
                assert a.method == "closed-anomalous" and a.level == 1
                assert a.value == pytest.approx(want, rel=1e-12)


def test_harmonic_action_general_energy():
    for v in (0.5, 1.0, 4.0):
        for lam in (0.25, 1.0, 3.0):
            a = binomial_action(v, lam, 2.0, 0.0)
            want = 0.25 * lam / math.sqrt(v) * (1.0 - math.log(lam))
            assert a.value == pytest.approx(want, rel=1e-12)


def test_pure_power_plus_constant_closed_form():
    from oscdet.special_functions import gamma
    for N in (4, 6, 8):
        for u, lam in ((1.0, 1.0), (2.0, 0.7)):
            want = (-1.0 / (2.0 * math.sqrt(math.pi)) * gamma(1.0 + 1.0 / N)
                    * gamma(-0.5 - 1.0 / N) * u ** (-1.0 / N)
                    * lam ** (0.5 + 1.0 / N))
            a = binomial_action(u, lam, float(N), 0.0)
            assert a.method == "closed-normal"
            assert a.value == pytest.approx(want, rel=1e-12)


def test_level_two_anomalous_hand_value():
    # (6,4), u = v = 1: 2j b /(N+2) [3/2 + (2M/N)(log 2 - 1)] with b = -1/8
    want = (4.0 * (-0.125) / 8.0) * (1.5 + (8.0 / 6.0) * (LOG2 - 1.0))
    a = binomial_action(1.0, 1.0, 6.0, 4.0)
    assert a.level == 2
    assert a.value == pytest.approx(want, rel=1e-13)
    assert a.value == pytest.approx(-0.06817893171, abs=1e-10)
    assert a.residue_used.value == pytest.approx(-0.125, rel=1e-14)


@given(st.floats(min_value=0.3, max_value=3.0),
       st.floats(min_value=0.3, max_value=3.0))
@settings(max_examples=40, deadline=None)
def test_normal_homogeneity(u, v):
    # u^{-(M+2)/(2(N-M))} v^{(N+2)/(2(N-M))} scaling of the closed form
    N, M = 8.0, 4.0
    base = binomial_action(1.0, 1.0, N, M).value
    scaled = binomial_action(u, v, N, M).value
    expo_u = -(M + 2.0) / (2.0 * (N - M))
    expo_v = (N + 2.0) / (2.0 * (N - M))
    assert scaled == pytest.approx(u**expo_u * v**expo_v * base, rel=1e-12)


def _eulerian_oracle(N, M):
    """(u, v) -> int_0^inf (u q^N + v q^M)^{1/2} dq and the residue beta_{-1},
    from the continued Eulerian form F(s) = Gamma(a_s) Gamma(-b_s) u^-a_s v^b_s
    / ((N-M) Gamma(s-1/2)), not from binomial_action's bracket: F(0) on the
    normal branch; on the anomalous one, where F(s) = beta_{-1}/(N s) + C + O(s),
    the finite part C + 2(1 - log 2) beta_{-1}/N.  C and beta_{-1} come from
    F(+-eps) at 60 digits, each of which loses 20 to the pole, so they keep 20."""
    with mp.workdps(60):
        eps = mp.mpf(10) ** -20
        points = (eps, -eps) if (N + 2) % (2 * (N - M)) == 0 else (mp.mpf(0),)
        exponents = [((M * (1 - 2 * s) + 2) / mp.mpf(2 * (N - M)),
                      (N * (1 - 2 * s) + 2) / mp.mpf(2 * (N - M))) for s in points]
        gammas = [mp.gamma(a) * mp.gamma(-b) / ((N - M) * mp.gamma(s - mp.mpf(0.5)))
                  for s, (a, b) in zip(points, exponents)]

    def oracle(u, v):
        with mp.workdps(60):
            log_u, log_v = mp.log(u), mp.log(v)
            F = [g * mp.exp(b * log_v - a * log_u) for g, (a, b) in zip(gammas, exponents)]
            if len(F) == 1:
                return F[0], mp.mpf(0)
            residue = N * eps * (F[0] - F[1]) / 2
            return (F[0] + F[1]) / 2 + 2 * (1 - mp.log(2)) * residue / N, residue
    return oracle


def test_binomial_action_against_mpmath():
    # both branches over 300 decades of v; AccuracyError only where the
    # value or the residue leaves double range
    def outside(x):
        return x != 0 and not sys.float_info.min <= abs(x) <= sys.float_info.max

    for N, M in ((2, 0), (4, 2), (6, 2), (6, 4), (8, 6), (10, 4), (10, 8)):
        oracle = _eulerian_oracle(N, M)
        for u in (1e-3, 1.0, 1e3):
            for e in range(-150, 151):
                v = 10.0**e
                want, residue = oracle(u, v)
                try:
                    got = binomial_action(u, v, N, M).value
                except AccuracyError:
                    assert outside(want) or outside(residue), (N, M, u, v)
                    continue
                assert abs(got - want) <= 1e-12 * abs(want) + 1e-300, (N, M, u, v)


def test_regularized_tail_normal_bracket_vanishes():
    # normal spec: the tail equals the plain truncated series
    spec = PotentialSpec.trinomial(4, 2, 1.0, 0.0)
    q = 10.0
    table = beta_coefficients(spec, -31)
    series = -sum(jet.value * q ** (rho + 1.0) / (rho + 1.0)
                  for rho, jet in table.entries.items() if rho != -1)
    assert adaptive_tail(spec, q) == pytest.approx(series, rel=1e-14)


def test_additivity_binomial_q4():
    # quad(0 -> q) + tail(q) reproduces the closed value, any split point
    for v in (0.5, 1.0, 2.0):
        spec = PotentialSpec.trinomial(4, 2, v, 0.0)
        closed = -v**1.5 / 3.0
        for q in (6.0, 9.0, 14.0):
            head, _ = quad(lambda x: math.sqrt(spec.value(x)), 0.0, q,
                           epsabs=1e-12, epsrel=1e-12)
            total = head + adaptive_tail(spec, q)
            assert total == pytest.approx(closed, abs=1e-7)


def test_additivity_uncoupled_harmonic():
    # (v q^2 + lam) against the closed harmonic action at v=1, lam=0.5
    spec = PotentialSpec.uncoupled(2, 1.0, 0.5)
    closed = 0.25 * 0.5 * (1.0 - math.log(0.5))
    for q in (8.0, 16.0):
        head, _ = quad(lambda x: math.sqrt(spec.value(x)), 0.0, q,
                       epsabs=1e-12, epsrel=1e-12)
        assert head + adaptive_tail(spec, q) == pytest.approx(closed, abs=1e-7)


def test_tail_precondition_is_a_domain_error():
    spec = PotentialSpec.trinomial(4, 2, 9.0, 0.0)
    with pytest.raises(DomainError, match="not decreasing"):
        adaptive_tail(spec, 1.5)


def _tail_point(spec, x):
    """A q where the expansion parameter is at most x, and near it."""
    lo = hi = 1.0
    while expansion_parameter(spec, hi) > x:
        lo, hi = hi, 2.0 * hi
    while expansion_parameter(spec, lo) <= x and lo > 1e-30:
        lo, hi = 0.5 * lo, lo
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        lo, hi = (lo, mid) if expansion_parameter(spec, mid) <= x else (mid, hi)
    return hi


@settings(max_examples=300, derandomize=True, deadline=None)
# N = 2 with a lam-derivative: order 1 holds only the rho = -1 residue,
# which the sum leaves out, so nothing is summed when its bound is checked
@example(N=2, M=0, u=1.0, v=0.0, lam=0.0, x=0.5, n=1)
@example(N=2, M=0, u=1.0, v=0.0, lam=0.7, x=0.5, n=1)
@example(N=2, M=0, u=3.0, v=2.0, lam=-1.0, x=0.5, n=2)
@example(N=10, M=8, u=1.0, v=1e3, lam=-1e5, x=0.5, n=2)
@given(N=st.sampled_from(range(2, 11, 2)), M=st.sampled_from(range(0, 10, 2)),
       u=st.floats(-20.0, 20.0).map(lambda e: 10.0 ** e),
       v=st.one_of(st.just(0.0), st.floats(-20.0, 20.0).map(lambda e: 10.0 ** e)),
       lam=st.one_of(st.just(0.0), st.floats(-1e6, 1e6)), x=st.floats(1e-6, 0.5),
       n=st.sampled_from((0, 1, 2)))
def test_adaptive_tail_ends_on_every_spec_it_accepts(N, M, u, v, lam, x, n):
    # the relative stop alone ends the sum for every x <= 1/2, well inside
    # 300 orders, with a finite tail or an accuracy error
    spec = PotentialSpec(N, min(M, N - 2), u, v, lam)
    q = _tail_point(spec, x) if expansion_parameter(spec, 1.0) else 1.0
    orders = []

    def counted(*args):
        for order in binomial_series(*args):
            orders.append(order)
            assert len(orders) <= 300, (spec, q, n)
            yield order

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(actions, "binomial_series", counted)
        try:
            tail = adaptive_tail(spec, q, lam_deriv=n)
        except AccuracyError:
            return
    assert math.isfinite(tail), (spec, q, n)


@pytest.mark.parametrize("q", (0.0, -1.0, math.inf, math.nan))
def test_tail_point_must_be_positive_and_finite(q):
    # at q = inf each term is 0 inf = nan, and no stop would ever hold
    with pytest.raises(DomainError, match="tail point"):
        adaptive_tail(PotentialSpec.trinomial(4, 2, 1.0), q)


@pytest.mark.parametrize("v,q", [(100.0, 10.93), (316.228, 12.14)])
def test_adaptive_tail_against_mpmath_head(v, q):
    # q^6 + v q^2: the level-1 anomalous tail is the closed action minus the
    # head, taken to 30 digits
    spec = PotentialSpec.trinomial(6, 2, v, 0.0)
    with mp.workdps(30):
        head = float(mp.quad(lambda t: mp.sqrt(t**6 + v * t**2), [0, q]))
    want = binomial_action(1.0, v, 6.0, 2.0).value - head
    assert abs(adaptive_tail(spec, q) - want) <= 1e-10


@pytest.mark.parametrize("N,M,v,lam", [
    (4, 2, 3.0, 0.0), (4, 2, 3.0, 0.7), (6, 4, 10.0, -0.4), (10, 8, 100.0, 0.0), (4, 0, 0.0, 0.0),
])
def test_adaptive_tail_lambda_derivatives_against_mpmath(N, M, v, lam):
    # for N > 2 no lambda-dependent term reaches rho = -1, so the derivatives
    # of the regularized tail are the convergent integrals of the derivatives
    spec = PotentialSpec(N, M, 1.0, v, lam)
    q = 1.3 * choose_split_point(spec)
    for n, c, power in ((1, 0.5, -0.5), (2, -0.25, -1.5)):
        want = float(mp.quad(lambda t: c * (t**N + v * t**M + lam) ** power, [q, mp.inf]))
        assert abs(adaptive_tail(spec, q, lam_deriv=n) - want) <= 1e-12, (n, want)


def test_improper_action_bc4():
    for v in (0.5, 1.0, 2.0):
        a = improper_action(PotentialSpec.trinomial(4, 2, v, 0.0))
        assert a.method == "numeric-regularized"
        assert a.value == pytest.approx(-v**1.5 / 3.0, abs=1e-8)


def test_improper_action_matches_closed_forms_on_grid():
    for N, M in ((4, 2), (6, 2), (6, 4), (8, 4), (8, 2), (10, 4), (10, 8)):
        for v in (0.5, 1.0, 2.0, 10.0, 100.0):
            spec = PotentialSpec.trinomial(N, M, v, 0.0)
            numeric = improper_action(spec).value
            closed = binomial_action(1.0, v, float(N), float(M)).value
            assert numeric == pytest.approx(closed, abs=1e-7), (N, M, v)


def test_improper_action_of_a_steep_power_keeps_its_tolerance():
    # 1e8 q^2 has length 1e-2: splitting there, not at q = 1, keeps head and
    # tail from cancelling down from +-5e3 to the action of 2.6e-8
    numeric = improper_action(PotentialSpec(2, 0, 1e8, 1e-4, 0.0)).value
    closed = binomial_action(1e8, 1e-4, 2.0, 0.0).value
    assert abs(numeric - closed) <= 1e-9


def test_improper_action_split_independence():
    spec = PotentialSpec.trinomial(4, 2, 1.0, 0.0)
    # improper_action splits at choose_split_point; the other splits take a
    # head by quad and the same tail series
    base = choose_split_point(spec)
    values = [improper_action(spec).value]
    for q in (2.0 * base, 4.0 * base):
        head, _ = quad(lambda x: math.sqrt(spec.value(x)), 0.0, q,
                       epsabs=1e-10, epsrel=1e-12, limit=200)
        values.append(head + adaptive_tail(spec, q))
    assert max(values) - min(values) < 1e-7


def test_improper_action_trinomial_continuity_at_zero_lambda():
    a0 = improper_action(PotentialSpec.trinomial(4, 2, 1.0, 0.0)).value
    a_eps = improper_action(PotentialSpec.trinomial(4, 2, 1.0, 1e-8)).value
    assert a_eps == pytest.approx(a0, abs=1e-7)


def test_improper_action_rejects_negative_momentum():
    with pytest.raises(DomainError):
        improper_action(PotentialSpec.trinomial(4, 2, 1.0, -0.5))


def test_anomalous_derivative_against_finite_difference():
    # d/dv of the closed anomalous value vs the numeric pipeline
    v0, dv = 1.0, 0.02
    closed_slope = (anomalous_binomial_action(1.0, v0 + dv, 6.0, 4.0, 2).value
                    - anomalous_binomial_action(1.0, v0 - dv, 6.0, 4.0, 2).value) / (2 * dv)
    numeric_slope = (improper_action(PotentialSpec.trinomial(6, 4, v0 + dv)).value
                     - improper_action(PotentialSpec.trinomial(6, 4, v0 - dv)).value) / (2 * dv)
    assert numeric_slope == pytest.approx(closed_slope, abs=1e-5)


def test_trinomial_asymptotic_quartic_hand_form():
    for v in (2.0, 5.0):
        for lam in (0.5, 1.0):
            want = (-v**1.5 / 3.0
                    + 0.25 * lam / math.sqrt(v) * (1.0 - math.log(lam))
                    + 2.0 * 0.25 * lam / math.sqrt(v) * (math.log(v) + 2.0 * LOG2))
            got = trinomial_action_asymptotic(4, 2, v, lam)
            assert got == pytest.approx(want, rel=1e-13)


def test_trinomial_asymptotic_no_a1_when_M_above_two():
    v, lam = 3.0, 1.0
    want = (binomial_action(1.0, v, 8.0, 4.0).value
            + binomial_action(v, lam, 4.0, 0.0).value)
    assert trinomial_action_asymptotic(8, 4, v, lam) == pytest.approx(want, rel=1e-14)


def test_trinomial_asymptotic_reduces_at_zero_lambda():
    for N, M in ((4, 2), (6, 4)):
        assert trinomial_action_asymptotic(N, M, 2.0, 0.0) == pytest.approx(
            binomial_action(1.0, 2.0, float(N), float(M)).value, rel=1e-15)


def test_trinomial_asymptotic_approaches_true_action():
    # the residual after subtracting all d_g <= 0 terms shrinks with v
    lam = 1.0
    gaps = []
    for v in (4.0, 8.0, 16.0, 32.0, 64.0):
        spec = PotentialSpec.trinomial(4, 2, v, lam)
        truth = improper_action(spec).value
        gaps.append(abs(trinomial_action_asymptotic(4, 2, v, lam) - truth))
    for a, b in zip(gaps, gaps[1:]):
        assert b < a


def test_level_one_log_correction_value():
    assert level_one_log_correction(2.0, 4.0) == pytest.approx(
        0.25 * 2.0 / 2.0 * (math.log(4.0) + 2.0 * LOG2), rel=1e-14)
