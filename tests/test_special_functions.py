import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscdet.errors import DomainError
from oscdet.special_functions import (
    CATALAN,
    EULER_GAMMA,
    LOG2,
    Jet1,
    binomial_jets,
    digamma,
    gamma,
    log_gamma,
    odd_harmonic_partial,
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
    for x in (0.0, -1.0, -7.0):
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


def test_odd_harmonic_small():
    assert odd_harmonic_partial(1) == 1.0
    assert odd_harmonic_partial(2) == pytest.approx(4.0 / 3.0, abs=1e-15)


def test_odd_harmonic_cutoff_asymptotics():
    K = 10**6
    target = 0.5 * (math.log(K) + EULER_GAMMA + 2.0 * LOG2)
    assert abs(odd_harmonic_partial(K) - target) < 3e-7


def test_odd_harmonic_remainder_monotone_and_inverse_K():
    diffs = []
    for K in (10**3, 10**4, 10**5, 10**6):
        d = odd_harmonic_partial(K) - 0.5 * (math.log(K) + EULER_GAMMA + 2.0 * LOG2)
        diffs.append((K, d))
    for (_, a), (_, b) in zip(diffs, diffs[1:]):
        assert abs(b) < abs(a)
    for K, d in diffs:
        assert abs(d) < 1.0 / K


def test_constants():
    assert EULER_GAMMA == pytest.approx(0.5772156649015328606, abs=1e-18)
    assert CATALAN == pytest.approx(0.9159655941772190151, abs=1e-18)


def test_jet_arithmetic():
    a = Jet1(1.0, 2.0)
    b = Jet1(0.5, -1.0)
    assert (a + b) == Jet1(1.5, 1.0)
    assert a.scaled(2.0) == Jet1(2.0, 4.0)
    assert Jet1.zero().is_zero
    with pytest.raises(DomainError):
        Jet1(math.inf, 0.0)
