from fractions import Fraction

import pytest

from oscdet.actions import trinomial_action_asymptotic
from oscdet.mellin import (
    FIRST,
    SECOND,
    THIRD,
    MellinPole,
    assemble_asymptotics,
    asymptotic_total,
    contributing_poles,
    enumerate_poles,
)


def test_enumerate_quartic_structure():
    poles = enumerate_poles(4, 2, (-3, 3))
    locations = {(p.source, p.sigma0) for p in poles}
    # mobile progression at 3/2, -1/2, -5/2; fixed ones at 0,1,2,3 and -1/2,-5/2
    assert (THIRD, Fraction(3, 2)) in locations
    assert (THIRD, Fraction(-1, 2)) in locations
    assert (FIRST, Fraction(0)) in locations
    assert (FIRST, Fraction(2)) in locations
    assert (SECOND, Fraction(-1, 2)) in locations
    # the M=2 confluence at -1/2 between the fixed and the mobile line
    sub = [p for p in poles if p.source == SECOND and p.sigma0 == Fraction(-1, 2)]
    assert sub[0].is_confluent and sub[0].is_double and not sub[0].is_pinching


def test_enumerate_64_pinching():
    poles = enumerate_poles(6, 4, (-3, 3))
    lead = [p for p in poles if p.source == THIRD and p.index == 0][0]
    assert lead.sigma0 == Fraction(2)
    assert lead.is_confluent and lead.is_pinching
    assert lead.confluent_with.source == FIRST


def test_degree_identities_exact():
    for N, M in ((4, 2), (6, 2), (6, 4), (8, 4), (10, 6)):
        mu = Fraction(1, 2) + Fraction(1, N)
        for p in enumerate_poles(N, M, (-3, 3)):
            assert p.d_v == p.sigma0
            assert p.d_lambda == mu - Fraction(N - M, N) * p.sigma0
            assert p.d_g == -(M * p.sigma0 + 1) / Fraction(N)


@pytest.mark.parametrize("N,M,lead,sub", [
    (4, 2, Fraction(3, 2), Fraction(-1, 2)),
    (6, 2, Fraction(1), Fraction(-1, 2)),
    (8, 4, Fraction(5, 4), Fraction(-1, 4)),
])
def test_contributing_poles_locations(N, M, lead, sub):
    leading, subleading = contributing_poles(N, M)
    assert leading.sigma0 == lead
    assert subleading.sigma0 == sub


def test_contributing_flags():
    leading, subleading = contributing_poles(6, 2)
    assert leading.is_pinching
    assert subleading.is_double
    leading, subleading = contributing_poles(8, 4)
    assert not leading.is_confluent
    assert not subleading.is_confluent


def satisfies_selection(pole: MellinPole, N: int, M: int) -> bool:
    """sigma(s) < 0 on the convergence side and d_g <= 0 at s = 0.

    Mobile poles run to -infinity as s grows, so they always pass the first
    rule; fixed poles pass it only when they sit left of the contour.
    """
    if not pole.mobile and pole.sigma0 >= 0:
        return False
    return pole.sigma0 >= Fraction(-1, M)


def test_selection_scan_exactly_two_locations():
    # exhaustive rational scan over all even 2 <= M < N <= 12
    for N in range(4, 13, 2):
        for M in range(2, N, 2):
            surviving = {p.sigma0 for p in enumerate_poles(N, M, (-60, 60))
                         if satisfies_selection(p, N, M)}
            assert surviving == {Fraction(N + 2, 2 * (N - M)), Fraction(-1, M)}, (N, M)


def test_assemble_matches_action_route():
    # two independent derivations of the same asymptotics
    for N, M in ((4, 2), (6, 2), (6, 4), (8, 4), (8, 2), (10, 4), (12, 10)):
        for v in (0.5, 2.0, 7.0):
            for lam in (0.0, 0.6, 2.5):
                total = asymptotic_total(N, M, v, lam)
                want = trinomial_action_asymptotic(N, M, v, lam)
                assert total == pytest.approx(want, rel=1e-12, abs=1e-12), (N, M, v, lam)


def test_leading_term_lambda_independent():
    values = {lam: assemble_asymptotics(4, 2, 3.0, lam)[0].evaluate(3.0)
              for lam in (0.0, 1.0, 10.0)}
    assert values[0.0] == values[1.0] == values[10.0]


def test_anomalous_leading_log_coefficient():
    # (6,4) at lam=0: the anomalous factor 2 j beta_{-1}(0)/(N+2) multiplies
    # a bracket starting with -log v; beta_{-1}(0) = -v^2/8, j = 2
    v = 3.0
    term = assemble_asymptotics(6, 4, v, 0.0)[0]
    assert term.degree_v == Fraction(2)
    full_log_coeff = term.coeff_logv * v ** float(term.degree_v)
    bracket_prefactor = 2.0 * 2.0 * (-(v * v) / 8.0) / 8.0
    assert full_log_coeff == pytest.approx(-bracket_prefactor, rel=1e-14)


def test_log_coefficients_only_on_confluent_terms():
    for N, M in ((4, 2), (8, 4), (6, 4), (6, 2)):
        leading, subleading = contributing_poles(N, M)
        terms = assemble_asymptotics(N, M, 2.0, 1.0)
        assert (terms[0].coeff_logv != 0.0) == leading.is_confluent
        assert (terms[1].coeff_logv != 0.0) == subleading.is_confluent
