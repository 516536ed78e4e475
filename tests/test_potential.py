import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscdet.errors import DomainError
from oscdet.potential import (
    PotentialSpec,
    beta_coefficients,
    residue_level_coefficient,
    classify,
    order_mu,
    symanzik_inverse,
    symanzik_map,
)


@pytest.mark.parametrize("N,M,tag,level", [
    (4, 2, "normal", None),       # the basic quartic example
    (6, 4, "anomalous", 2),
    (6, 2, "anomalous", 1),
    (8, 4, "normal", None),
])
def test_classify_reference_families(N, M, tag, level):
    a = classify(PotentialSpec.trinomial(N, M, 1.0))
    assert a.tag == tag
    assert a.level == level


def test_classify_residue_values():
    for v in (0.5, 1.0, 2.0):
        a = classify(PotentialSpec.trinomial(6, 4, v))
        assert a.beta_m1.value == pytest.approx(-v * v / 8.0, rel=1e-14)
        b = classify(PotentialSpec.trinomial(6, 2, v))
        assert b.beta_m1.value == pytest.approx(v / 2.0, rel=1e-14)


def test_classify_uncoupled_harmonic():
    # v q^2 + lam is anomalous of level 1 iff lam != 0
    a = classify(PotentialSpec.uncoupled(2, 3.0, 1.5))
    assert a.is_anomalous and a.level == 1
    assert a.beta_m1.value == pytest.approx(1.5 / (2.0 * math.sqrt(3.0)), rel=1e-14)
    assert classify(PotentialSpec.uncoupled(2, 3.0, 0.0)).tag == "normal"
    # other uncoupled powers are normal
    assert classify(PotentialSpec.uncoupled(4, 1.0, 2.0)).tag == "normal"


def test_classify_zero_coupling_degenerates_to_normal():
    assert classify(PotentialSpec(6, 4, 1.0, 0.0, 0.0)).tag == "normal"


def test_residue_level_coefficient():
    assert residue_level_coefficient(1) == pytest.approx(0.5, abs=1e-16)
    assert residue_level_coefficient(2) == pytest.approx(-0.125, abs=1e-16)
    assert residue_level_coefficient(3) == pytest.approx(1.0 / 16.0, abs=1e-16)


def test_beta_table_hand_expansion_quartic():
    # (q^4 + v q^2 + lam)^{1/2} = q^2 + v/2 + (lam/2 - v^2/8) q^{-2} + ...
    v, lam = 0.7, 0.3
    table = beta_coefficients(PotentialSpec.trinomial(4, 2, v, lam), -2)
    assert table.at(2).value == pytest.approx(1.0, abs=1e-15)
    assert table.at(0).value == pytest.approx(v / 2.0, rel=1e-14)
    assert table.at(-2).value == pytest.approx(lam / 2.0 - v * v / 8.0, rel=1e-14)


def test_beta_table_matches_numeric_expansion():
    # fit check: the truncated series reproduces sqrt(V + lam) with a
    # residual falling like the first dropped power
    spec = PotentialSpec.trinomial(4, 2, 0.9, 0.4)
    table = beta_coefficients(spec, -4)
    resid = []
    for q in (10.0, 20.0, 40.0, 80.0):
        partial = sum(jet.value * q ** float(rho) for rho, jet in table.entries.items())
        resid.append(abs(math.sqrt(spec.value(q)) - partial))
    # dropped order is q^{-6}: each doubling of q shrinks it by ~64
    for a, b in zip(resid, resid[1:]):
        assert b < a / 40.0


@pytest.mark.parametrize("N,M", [(4, 2), (6, 2), (10, 8)])
def test_beta_coefficients_against_mpmath(N, M):
    # every (a, b) with rho >= N/2 - 8(N - M) has order a + b <= 8; the
    # s-derivative of the oracle is taken numerically at s = 0
    u, v, lam = 1.7, 0.6, -0.45
    rho_min = N // 2 - 8 * (N - M)
    table = beta_coefficients(PotentialSpec(N, M, u, v, lam), rho_min)

    def beta(rho, s):
        return mp.fsum(mp.mpf(u) ** (0.5 - s) * mp.binomial(0.5 - s, a + b)
                       * mp.binomial(a + b, a) * mp.mpf(v / u) ** a * mp.mpf(lam / u) ** b
                       for a in range(9) for b in range(9)
                       if N // 2 + a * (M - N) - b * N == rho)

    with mp.workdps(30):
        for rho in range(rho_min, N // 2 + 1):
            jet = table.at(rho)
            want = float(beta(rho, 0))
            want_deriv = float(mp.diff(lambda s: beta(rho, s), 0))
            assert abs(jet.value - want) <= 1e-14 * max(1.0, abs(want)), rho
            assert abs(jet.deriv - want_deriv) <= 1e-14 * max(1.0, abs(want_deriv)), rho


def test_beta_top_entry_jet():
    for u in (0.5, 1.0, 3.0):
        table = beta_coefficients(PotentialSpec(4, 2, u, 1.0, 0.0), 0)
        top = table.at(2)
        assert top.value == pytest.approx(math.sqrt(u), rel=1e-14)
        assert top.deriv == pytest.approx(-math.sqrt(u) * math.log(u), rel=1e-13, abs=1e-15)


def test_residue_two_routes_agree():
    # closed-form classify against the generic lattice expansion
    for N, M in ((6, 4), (6, 2), (10, 8)):
        for v in (0.5, 1.0, 2.0):
            for lam in (0.0, 0.7):
                spec = PotentialSpec.trinomial(N, M, v, lam)
                a = classify(spec)
                jet = beta_coefficients(spec, -1).residue()
                assert jet.value == pytest.approx(a.beta_m1.value, rel=1e-12)
                assert jet.deriv == pytest.approx(a.beta_m1.deriv, rel=1e-12)


def test_residue_lambda_independent_for_N_above_two():
    for N, M in ((6, 4), (6, 2), (8, 6)):
        spec0 = PotentialSpec.trinomial(N, M, 1.3, 0.0)
        spec7 = PotentialSpec.trinomial(N, M, 1.3, 7.0)
        r0 = beta_coefficients(spec0, -1).residue()
        r7 = beta_coefficients(spec7, -1).residue()
        assert r0.value == pytest.approx(r7.value, rel=1e-14, abs=1e-15)


def test_empty_lattice_slots_are_zero():
    # (8,2): step gcd(6,8)=2 but rho=2 has no (a,b) solution
    table = beta_coefficients(PotentialSpec.trinomial(8, 2, 1.0, 0.0), -1)
    assert table.at(2).is_zero
    assert not table.at(4).is_zero


def test_symanzik_values():
    v, lam = symanzik_map(2, 4, 1.0, 0.0)
    assert v == 1.0 and lam == 0.0
    for g in (0.3, 1.7):
        v, _ = symanzik_map(2, 4, g, 0.0)
        assert v == pytest.approx(g ** (-2.0 / 3.0), rel=1e-15)


@given(st.floats(min_value=1e-4, max_value=1e3),
       st.floats(min_value=-5.0, max_value=5.0))
@settings(max_examples=60, deadline=None)
def test_symanzik_round_trip(g, E):
    v, lam = symanzik_map(2, 6, g, E)
    g2, E2 = symanzik_inverse(2, 6, v, lam)
    assert g2 == pytest.approx(g, rel=1e-14)
    assert E2 == pytest.approx(E, rel=1e-13, abs=1e-14)


def test_symanzik_rejects_nonpositive_coupling():
    with pytest.raises(DomainError):
        symanzik_map(2, 4, 0.0, 1.0)


def test_order_mu():
    assert order_mu(2) == 1.0
    assert order_mu(4) == 0.75
    mus = [order_mu(N) for N in range(2, 40, 2)]
    assert all(b < a for a, b in zip(mus, mus[1:]))
    assert mus[-1] > 0.5


def test_spec_validation():
    with pytest.raises(DomainError):
        PotentialSpec(3, 2, 1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        PotentialSpec(4, 4, 1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        PotentialSpec(4, 2, -1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        PotentialSpec(4, 2, 1.0, -0.5, 0.0)


def test_spec_text_round_trip():
    spec = PotentialSpec(6, 2, 1.5, 0.25, -0.75)
    again = PotentialSpec.from_text(spec.to_text())
    assert again == spec
    with pytest.raises(DomainError):
        PotentialSpec.from_text("4 2 1.0")


def test_value_and_derivatives():
    spec = PotentialSpec.trinomial(4, 2, 2.0, 0.5)
    q = np.linspace(0.1, 3.0, 7)
    assert np.allclose(spec.value(q), q**4 + 2.0 * q**2 + 0.5)
    h = 1e-6
    for x in (0.3, 1.1, 2.4):
        fd = (spec.value(x + h) - spec.value(x - h)) / (2 * h)
        assert spec.deriv(x) == pytest.approx(fd, rel=1e-8)
        fd2 = (spec.deriv(x + h) - spec.deriv(x - h)) / (2 * h)
        assert spec.deriv2(x) == pytest.approx(fd2, rel=1e-7)
