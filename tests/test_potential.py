import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscdet.errors import AccuracyError, DomainError
from oscdet.potential import (
    PotentialSpec,
    beta_coefficients,
    binomial_series,
    residue_level_coefficient,
    symanzik_map,
)
from oscdet.special_functions import Jet1

from helpers import residue_log_deriv, uncoupled


def _residue(spec):
    return beta_coefficients(spec, -1).residue()


def _closed_residue(spec):
    """residue_level_coefficient(j) u^(1/2-j) v^j, j = (N+2)/(2(N-M)), for
    N > 2 where j is an integer; 0 where it is not (a normal family)."""
    j, rest = divmod(spec.N + 2, 2 * (spec.N - spec.M))
    if rest:
        return 0.0
    return residue_level_coefficient(j) * spec.u ** (0.5 - j) * spec.v**j


# a family is anomalous of level j when the series has a residue beta_{-1},
# which comes from the j-th power of the subleading term
@pytest.mark.parametrize("N,M,kind,level", [
    (4, 2, "normal", None),       # the basic quartic example
    (6, 4, "anomalous", 2),
    (6, 2, "anomalous", 1),
    (8, 4, "normal", None),
])
def test_classify_reference_families(N, M, kind, level):
    residue = _residue(PotentialSpec.trinomial(N, M, 1.0))
    assert (residue.value != 0.0) == (kind == "anomalous")
    if level is not None:
        assert residue.value == residue_level_coefficient(level)
    else:
        assert residue == Jet1.zero()


def test_classify_residue_values():
    for v in (0.5, 1.0, 2.0):
        assert _residue(PotentialSpec.trinomial(6, 4, v)).value == pytest.approx(
            -v * v / 8.0, rel=1e-14)
        assert _residue(PotentialSpec.trinomial(6, 2, v)).value == pytest.approx(v / 2.0, rel=1e-14)


def test_classify_uncoupled_harmonic():
    # u q^2 + v + lam has the residue (v + lam)/(2 sqrt u), and
    # d/ds log beta_{-1} = psi(1/2) - psi(-1/2) - log u = -2 - log u
    for u, v, lam in ((3.0, 0.0, 1.5), (0.2, 1.0, 0.7), (1.0, 2.0, -0.5)):
        residue = _residue(PotentialSpec(2, 0, u, v, lam))
        want = 0.5 * (v + lam) / math.sqrt(u)
        assert residue.value == pytest.approx(want, rel=1e-14)
        assert residue.deriv == pytest.approx(want * (-2.0 - math.log(u)), rel=1e-13)
    assert _residue(uncoupled(2, 3.0, 0.0)) == Jet1.zero()
    # other uncoupled powers are normal
    assert _residue(uncoupled(4, 1.0, 2.0)) == Jet1.zero()


def test_classify_zero_coupling_degenerates_to_normal():
    for N, M in ((6, 4), (6, 2), (10, 8)):
        assert _residue(PotentialSpec(N, M, 1.0, 0.0, 0.0)) == Jet1.zero()
        assert _residue(PotentialSpec(N, M, 1.0, 0.0, 3.0)) == Jet1.zero()


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
    # the series against the closed form, with the digamma form of its
    # derivative, on anomalous (6,4), (6,2), (10,8) and normal (4,2), (8,4)
    for N, M in ((6, 4), (6, 2), (10, 8), (4, 2), (8, 4)):
        for u in (0.3, 1.0, 2.5):
            for v in (0.5, 1.0, 2.0):
                for lam in (0.0, 0.7):
                    spec = PotentialSpec(N, M, u, v, lam)
                    want = _closed_residue(spec)
                    jet = _residue(spec)
                    assert jet.value == pytest.approx(want, rel=1e-14, abs=0.0)
                    j = (N + 2) // (2 * (N - M))
                    want_deriv = want * residue_log_deriv(j, u) if want else 0.0
                    assert jet.deriv == pytest.approx(want_deriv, rel=1e-12, abs=1e-15)


def test_residue_lambda_independent_for_N_above_two():
    for N, M in ((6, 4), (6, 2), (8, 6)):
        spec0 = PotentialSpec.trinomial(N, M, 1.3, 0.0)
        spec7 = PotentialSpec.trinomial(N, M, 1.3, 7.0)
        r0 = beta_coefficients(spec0, -1).residue()
        r7 = beta_coefficients(spec7, -1).residue()
        assert r0.value == pytest.approx(r7.value, rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("N, M", ((2, 0), (4, 2), (6, 4), (6, 2), (8, 6), (10, 4)))
def test_beta_coefficients_sum_every_order_that_reaches_rho_min(N, M):
    # the orders counted up front are the ones whose terms reach rho_min:
    # the same table as summing twelve orders and dropping the terms below
    for rho_min, n, lam in itertools.product((N // 2, 0, -1, -3, -7), (0, 1, 2), (0.0, 0.7)):
        spec = PotentialSpec(N, M, 1.3, 0.6, lam)
        cells = {}
        for _, terms in itertools.islice(binomial_series(spec, 1.0, n), 12):
            for rho, value, deriv in terms:
                if rho >= rho_min:
                    cells[rho] = [a + b for a, b in zip(cells.get(rho, (0.0, 0.0)), (value, deriv))]
        table = beta_coefficients(spec, rho_min, n)
        assert table.entries == {rho: Jet1(*cells[rho]) for rho in sorted(cells, reverse=True)}


def test_beta_coefficients_form_no_order_below_rho_min():
    # order 2 of q^4 + v q^2, v^2 at rho = -2, is beyond double range at
    # v = 1.4e154 but lies below rho_min = -1; order 2 of q^6 + v q^4, v^2 at
    # rho = -1, is kept, and beyond double range at v = 1e200
    v = 1.4e154
    table = beta_coefficients(PotentialSpec.trinomial(4, 2, v), -1)
    assert table.entries == {2: Jet1(1.0, 0.0), 0: Jet1(0.5 * v, -v)}
    assert beta_coefficients(PotentialSpec.trinomial(6, 4, 1e200), 0).at(1).value == 5e199
    with pytest.raises(AccuracyError, match="order 2 .* beyond double range"):
        beta_coefficients(PotentialSpec.trinomial(6, 4, 1e200), -1)


def test_empty_lattice_slots_are_zero():
    # (8,2): step gcd(6,8)=2 but rho=2 has no (a,b) solution
    table = beta_coefficients(PotentialSpec.trinomial(8, 2, 1.0, 0.0), -1)
    assert table.at(2) == Jet1.zero()
    assert table.at(4) != Jet1.zero()


def test_symanzik_values():
    v, lam = symanzik_map(2, 4, 1.0, 0.0)
    assert v == 1.0 and lam == 0.0
    for g in (0.3, 1.7):
        v, _ = symanzik_map(2, 4, g, 0.0)
        assert v == pytest.approx(g ** (-2.0 / 3.0), rel=1e-15)
    # the energy maps to the shift lam = -v^{2/(M+2)} E
    v, lam = symanzik_map(4, 6, 0.01, 1.5)
    assert v == pytest.approx(0.01 ** -0.75, rel=1e-15)
    assert lam == pytest.approx(-(v ** (1.0 / 3.0)) * 1.5, rel=1e-15)


@given(st.floats(min_value=1e-4, max_value=1e3),
       st.floats(min_value=-5.0, max_value=5.0))
@settings(max_examples=60, deadline=None)
def test_symanzik_round_trip(g, E):
    v, lam = symanzik_map(2, 6, g, E)
    g2, E2 = v ** -2.0, -lam / math.sqrt(v)   # inverse map for (M, N) = (2, 6)
    assert g2 == pytest.approx(g, rel=1e-14)
    assert E2 == pytest.approx(E, rel=1e-13, abs=1e-14)


def test_symanzik_rejects_nonpositive_coupling():
    with pytest.raises(DomainError):
        symanzik_map(2, 4, 0.0, 1.0)


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


@pytest.mark.parametrize("text, length", [
    ("4 2 1 1 0", 1.0),
    ("4 0 1e12 5 0", 1e-2),            # on M = 0, v is a constant: u's length
    ("4 2 1e-8 1 0", 1.0),             # q^2 + 1e-8 q^4: q^2's
    ("4 2 1 464 0", 464.0**-0.25),     # q^4 + 464 q^2: 464 q^2's
    ("6 4 1e-12 0 0", 10.0**1.5),      # v = 0
    ("6 2 1e-24 1e-8 0", 1e2),         # both shallow, v q^2 the stronger
    ("8 6 1e30 1e32 0", 1e-4),         # both steep, v q^6 the stronger
])
def test_length_is_the_stronger_powers(text, length):
    assert PotentialSpec.from_text(text).length() == pytest.approx(length, rel=1e-15)


def test_value_and_derivatives():
    spec = PotentialSpec.trinomial(4, 2, 2.0, 0.5)
    q = np.linspace(0.1, 3.0, 7)
    assert np.allclose(spec.value(q), q**4 + 2.0 * q**2 + 0.5)
    h = 1e-6
    for x in (0.3, 1.1, 2.4):
        fd = (spec.value(x + h) - spec.value(x - h)) / (2 * h)
        assert spec.deriv(x) == pytest.approx(fd, rel=1e-8)
        fd2 = (spec.deriv(x + h) - spec.deriv(x - h)) / (2 * h)
        assert spec.deriv(x, 2) == pytest.approx(fd2, rel=1e-7)
    for spec in (spec, PotentialSpec.trinomial(8, 6, 3.0, 0.5), uncoupled(2, 1.0)):
        for x in (0.3, 1.1, 2.4):
            fd3 = (spec.deriv(x + h, 2) - spec.deriv(x - h, 2)) / (2 * h)
            assert spec.deriv(x, 3) == pytest.approx(fd3, rel=1e-7, abs=1e-7)
