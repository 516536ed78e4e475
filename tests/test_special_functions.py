import itertools
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscdet.errors import DomainError
from oscdet.special_functions import (
    CATALAN,
    EULER_GAMMA,
    LOG2,
    Jet1,
    alternating_ladder_zeta,
    binomial_jets,
    digamma,
    gamma,
    ladder_zeta,
    log_gamma,
)


def test_log_gamma_half():
    lg, sign = log_gamma(0.5)
    assert sign == 1.0
    assert lg == pytest.approx(0.5 * math.log(math.pi), abs=1e-14)


def test_log_gamma_one():
    lg, sign = log_gamma(1.0)
    assert sign == 1.0
    assert abs(lg) < 1e-14


def test_gamma_negative_by_recurrence():
    # Gamma(-5/4) via Gamma(x+1) = x Gamma(x) walked down from Gamma(3/4)
    oracle = math.gamma(0.75) / ((-0.25) * (-1.25))
    assert gamma(-1.25) == pytest.approx(oracle, rel=1e-13)
    assert gamma(-1.25) > 0.0


def test_gamma_pole_raises():
    for x in (0.0, -1.0, -7.0, -math.inf):
        with pytest.raises(DomainError):
            log_gamma(x)
        with pytest.raises(DomainError):
            digamma(x)


@given(st.floats(min_value=0.1, max_value=20.0))
@settings(max_examples=80, deadline=None)
def test_gamma_recurrence(x):
    lg1, s1 = log_gamma(x + 1.0)
    lg0, s0 = log_gamma(x)
    assert s1 * math.exp(lg1) == pytest.approx(x * s0 * math.exp(lg0), rel=1e-12)


@given(st.floats(min_value=-2.99, max_value=2.99))
@settings(max_examples=120, deadline=None)
def test_gamma_reflection(x):
    if abs(x - round(x)) < 1e-3:
        return
    lg0, s0 = log_gamma(x)
    lg1, s1 = log_gamma(1.0 - x)
    lhs = s0 * s1 * math.exp(lg0 + lg1) * math.sin(math.pi * x) / math.pi
    assert lhs == pytest.approx(1.0, rel=1e-10)


def test_digamma_one():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-13)


def test_digamma_negative_half():
    # psi(1/2) = -gamma - 2 log 2 plus one recurrence step psi(x+1) = psi(x) + 1/x
    assert digamma(-0.5) == pytest.approx(2.0 - EULER_GAMMA - 2.0 * LOG2, abs=1e-12)


def test_digamma_three_halves():
    assert digamma(1.5) == pytest.approx(2.0 - EULER_GAMMA - 2.0 * LOG2, abs=1e-12)


@given(st.floats(min_value=0.05, max_value=25.0))
@settings(max_examples=80, deadline=None)
def test_digamma_recurrence(x):
    assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, abs=1e-12, rel=1e-12)


def test_digamma_against_scipy_grid():
    import numpy as np
    import scipy.special as sp

    xs = np.concatenate([np.linspace(0.05, 30.0, 301), np.linspace(-4.95, -0.05, 99)])
    for x in xs:
        if abs(x - round(x)) < 1e-2:
            continue
        assert digamma(float(x)) == pytest.approx(float(sp.digamma(x)),
                                                  rel=1e-11, abs=1e-11)


# negative arguments within 1e-6 of the poles and around the positive root of psi
ORACLE_GRID = (-4.5, -3.75, -2.999999, -2.000001, -1.9999999, -1.25, -1.0000001,
               -0.999999, -0.5, -1e-7, 1e-7, 0.1, 0.5, 1.0, 1.4616321449683622,
               2.5, 3.7, 10.25, 50.5, 171.3, 1e3)


@pytest.mark.parametrize("x", ORACLE_GRID)
def test_log_gamma_and_digamma_against_mpmath(x):
    import mpmath

    with mpmath.workdps(40):
        g = mpmath.gamma(x)
        want_lg = float(mpmath.log(abs(g)))
        want_psi = float(mpmath.digamma(x))
        want_sign = 1.0 if g > 0 else -1.0
    lg, sign = log_gamma(x)
    assert sign == want_sign
    assert abs(lg - want_lg) <= 4e-15 * max(1.0, abs(want_lg))
    assert abs(digamma(x) - want_psi) <= 4e-15 * max(1.0, abs(want_psi))


def test_digamma_against_mpmath_on_a_log_grid():
    # x = +-10^(j/8) from 1e-12 to 1e300; below -2^53 every double is a pole
    import mpmath

    for j in range(-96, 2401):
        for x in (10.0 ** (j / 8), -(10.0 ** (j / 8))):
            if x == math.floor(x) and x < 0.0:
                continue
            with mpmath.workdps(30):
                want = float(mpmath.digamma(x))
            assert abs(digamma(x) - want) <= 4e-15 * max(1.0, abs(want)), x
    assert digamma(math.inf) == math.inf
    assert math.isnan(digamma(math.nan))


# mpmath's zeta(s, a) loses digits for a >> 1 at moderate s (4e-10 at s = 48,
# a = 1e3, with 50 digits), so the oracle is the polygamma
# zeta(s, a) = (-1)^s psi^(s-1)(a) / (s-1)!
def _mp_hurwitz(s, a):
    import mpmath

    return (-1) ** s * mpmath.psi(s - 1, a) / mpmath.factorial(s - 1)


def test_ladder_zeta_against_mpmath():
    # ladders from a = first/step = 1e-6 to 1e6; steps that are powers of two
    # keep first = a step exact, so one oracle value serves all three
    import mpmath

    checked = 0
    with mpmath.workdps(30):
        for s in range(2, 61):
            for j in range(-12, 13):
                a = 10.0 ** (j / 2)
                hurwitz = _mp_hurwitz(s, a)
                for step in (1.0, 4.0, 2.0 ** -10):
                    want = hurwitz * mpmath.mpf(step) ** -s
                    if not sys.float_info.min <= want <= sys.float_info.max:
                        continue
                    checked += 1
                    got = ladder_zeta(s, a * step, step)
                    assert abs(got - want) <= 1e-14 * want, (s, a, step)
    assert checked > 3000


def test_ladder_zeta_beyond_double_range():
    # 1e-400 and 1e400 come out as 0 and inf, never as an OverflowError;
    # so do two finite terms, 1.5e308 and 5e307, whose sum overflows
    assert ladder_zeta(400, 10.0, 1.0) == 0.0
    assert ladder_zeta(400, 0.1, 1.0) == math.inf
    assert ladder_zeta(2, 8.2e-155, 5.9e-155) == math.inf
    assert ladder_zeta(10**6, 0.5, 4.0) == math.inf
    assert ladder_zeta(10**6, 2.0, 1e-300) == 0.0
    for s, first, step in ((1, 1.0, 1.0), (2, 0.0, 1.0), (2, 1.0, 0.0), (2, math.nan, 1.0)):
        with pytest.raises(DomainError):
            ladder_zeta(s, first, step)


def test_alternating_ladder_zeta_against_mpmath():
    # sum_k (-1)^k (a + k)^-s = 2^-s [zeta(s, a/2) - zeta(s, (a+1)/2)], in
    # polygamma form, which also holds at s = 1; a from 1e-6 to 1e12, and
    # around 3 (s + 16), where Boole's summation takes over from the first level
    import mpmath

    checked = 0
    with mpmath.workdps(30):
        for s in range(1, 61):
            y_min = 3.0 * (s + 16)
            for a in [10.0**j for j in range(-6, 13)] + [0.99 * y_min, y_min, 1.01 * y_min]:
                half = mpmath.mpf(a) / 2
                alternating = (_mp_hurwitz(s, half) - _mp_hurwitz(s, half + 0.5)) / 2**s
                for step in (1.0, 4.0, 2.0 ** -10):
                    want = alternating * mpmath.mpf(step) ** -s
                    if not sys.float_info.min <= want <= sys.float_info.max:
                        continue
                    checked += 1
                    got = alternating_ladder_zeta(s, a * step, step)
                    assert abs(got - want) <= 1e-14 * want, (s, a, step)
    assert checked > 3000


@pytest.mark.parametrize("s", (60, 200, 1000))
def test_alternating_ladder_zeta_at_large_s_against_mpmath(s):
    # levels 1 + k t apart by t = 1e-3 of the first: raising each rounded
    # level to the s-th power missed by 6.4e-14 at s = 1000; the levels left
    # out of the reference are below 1e-36 of the first at s = 60
    import mpmath

    first = 2.0 ** -1.0243
    step = 1e-3 * first
    with mpmath.workdps(50):
        f, h = mpmath.mpf(first), mpmath.mpf(step)
        want = mpmath.fsum((-1) ** k * (f + k * h) ** -s for k in range(3000))
        assert abs(alternating_ladder_zeta(s, first, step) - want) <= 1e-15 * want


def test_alternating_ladder_zeta_beyond_double_range():
    # 0.5^-1000 - 2.5^-1000 + ... = 2^1000 fits in a double although
    # 4^-1000 does not; 100^400 does not fit and is inf; 2e6^-(10^6) is 0
    assert alternating_ladder_zeta(1000, 0.5, 2.0) == pytest.approx(2.0**1000, rel=1e-15)
    assert alternating_ladder_zeta(400, 0.01, 2.0) == math.inf
    assert alternating_ladder_zeta(10**6, 2e6, 2.0) == 0.0
    assert alternating_ladder_zeta(400, 10.0, 1.0) == 0.0
    for s, first, step in ((0, 1.0, 1.0), (1, 0.0, 1.0), (1, 1.0, 0.0), (1, math.nan, 1.0)):
        with pytest.raises(DomainError):
            alternating_ladder_zeta(s, first, step)


def test_alternating_ladder_zeta_with_its_first_term_beyond_double_range():
    # the first term first^-s overflows from first = 7.46e-155 (s = 2) down,
    # the sum, near half of it on these ladders, only from 5.28e-155; s = 3
    # and s = 7 cross over likewise, a few steps to the first level sum it
    # directly, and for s = 1 the first level is subnormal
    import mpmath

    cases = [(2, f * 1e-155, 1e-160) for f in (8.0, 7.46, 7.0, 6.0, 5.4, 5.3, 5.2, 5.0, 1.0)]
    cases += [(2, 7e-155, 1e-155), (2, 6e-155, 2e-155), (2, 4e-155, 1e-155)]
    cases += [(3, f * 1e-103, 1e-110) for f in (2.0, 1.77, 1.6, 1.45, 1.4, 1.0)]
    cases += [(7, f * 1e-45, 1e-52) for f in (10.0, 9.0, 8.6, 8.4, 8.0)]
    cases += [(1, 5e-309, 1e-310), (1, 1e-310, 1e-311), (1, 1e-310, 1.0)]
    finite = overflow = 0
    with mpmath.workdps(30):
        for s, first, step in cases:
            half = mpmath.mpf(first) / step / 2
            want = (_mp_hurwitz(s, half) - _mp_hurwitz(s, half + 0.5)) / (2 * mpmath.mpf(step)) ** s
            got = alternating_ladder_zeta(s, first, step)
            if want > sys.float_info.max:
                overflow += 1
                assert got == math.inf, (s, first, step)
            else:
                finite += 1
                assert abs(got - want) <= 1e-14 * want, (s, first, step)
    assert finite >= 10 and overflow >= 6


def _binomial_jet(alpha, k):
    return next(itertools.islice(binomial_jets(alpha), k, None))


@pytest.mark.parametrize("alpha,k,want", [
    (0.5, 0, 1.0),
    (0.5, 1, 0.5),
    (0.5, 2, -0.125),
    (0.5, 3, 0.0625),
    (-1.0, 2, 1.0),
    (3.0, 5, 0.0),
])
def test_general_binomial(alpha, k, want):
    value, _ = _binomial_jet(alpha, k)
    assert value == pytest.approx(want, abs=1e-15)


def test_general_binomial_deriv_matches_finite_difference():
    # 3.0 and 2.0 put a vanishing factor alpha - i inside the product
    h = 1e-6
    for alpha in (0.5, 1.3, -0.7, 3.0, 2.0):
        for k in (1, 2, 3, 5):
            fd = (_binomial_jet(alpha + h, k)[0] - _binomial_jet(alpha - h, k)[0]) / (2 * h)
            assert _binomial_jet(alpha, k)[1] == pytest.approx(fd, rel=1e-7, abs=1e-9)


def test_constants():
    assert EULER_GAMMA == pytest.approx(0.5772156649015328606, abs=1e-18)
    assert CATALAN == pytest.approx(0.9159655941772190151, abs=1e-18)


def test_jet_arithmetic():
    assert Jet1.zero() == Jet1(0.0, 0.0)
    with pytest.raises(DomainError):
        Jet1(math.inf, 0.0)
