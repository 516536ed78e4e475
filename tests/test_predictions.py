import math

import pytest

from oscdet import actions, spectral, spectrum
from oscdet.actions import binomial_action
from oscdet.errors import DomainError
from oscdet.potential import PotentialSpec, symanzik_map
from oscdet.predictions import (
    GRID,
    fig2_rows,
    measure_point,
    predict_det_ratio_g,
    predict_Z1,
    verify,
)
from oscdet.spectral import zeta_from_det, zeta_full, zeta_skew
from oscdet.special_functions import EULER_GAMMA, LOG2, digamma


def test_predict_Z1_reference_constants():
    # N = 4: -(1/2) log g + (gamma + 5 log 2)/2
    g = 1e-3
    assert predict_Z1(4, g) == pytest.approx(
        -0.5 * math.log(g) + 0.5 * (EULER_GAMMA + 5.0 * LOG2), abs=1e-13)
    assert predict_Z1(4, 1.0) == pytest.approx(2.0214757838506295, abs=1e-12)
    # N = 6: -(1/4) log g + gamma/2 + 2 log 2
    assert predict_Z1(6, g) == pytest.approx(
        -0.25 * math.log(g) + 0.5 * EULER_GAMMA + 2.0 * LOG2, abs=1e-13)


def test_predict_Z1_general_energy():
    for N in (4, 6):
        for g in (1e-2, 1e-3):
            for E in (0.0, 0.3, -0.8):
                v, _ = symanzik_map(2, N, g, E)
                want = ((1.0 / (N - 2)) * (-math.log(g) + N * LOG2)
                        - 0.5 * (digamma(0.5 * (1.0 - E)) + LOG2))
                assert predict_Z1(N, g, E) == pytest.approx(want, rel=1e-14)


def test_predict_Z1_domain():
    with pytest.raises(DomainError):
        predict_Z1(2, 0.1)
    with pytest.raises(DomainError):
        predict_Z1(4, -0.1)


def test_predict_det_ratio_quartic_hand_form():
    # -2/(3g) + (log g / 2 - 2 log 2) E
    for g in (1e-1, 1e-2, 1e-3):
        for E in (0.0, 0.5, -1.0):
            want = -2.0 / (3.0 * g) + (0.5 * math.log(g) - 2.0 * LOG2) * E
            assert predict_det_ratio_g(4, 2, g, E) == pytest.approx(want, rel=1e-12)


def test_predict_det_ratio_type_N_at_zero_energy():
    # reduces to twice the binomial action
    for N, M in ((4, 2), (8, 4)):
        g = 1e-2
        v, _ = symanzik_map(M, N, g, 0.0)
        want = 2.0 * binomial_action(1.0, v, float(N), float(M)).value
        assert predict_det_ratio_g(N, M, g, 0.0) == pytest.approx(want, rel=1e-13)


def test_predict_det_ratio_anomalous_extra_power():
    # (6,2) is anomalous: the action of q^2 + g q^6 is its finite part, whose
    # residue beta_{-1} = g^(-1/2)/2 brings the extra log g; the shot's ratio0
    # meets it to 0.143 at g = 1e-1 and to 5.4e-4 at 1e-6
    for g in (1e-1, 1e-2, 1e-4, 1e-8):
        want = g**-0.5 * (3.0 + 2.0 * LOG2 + math.log(g)) / 12.0
        assert predict_det_ratio_g(6, 2, g, 0.0) == pytest.approx(want, rel=1e-13)
        assert predict_det_ratio_g(6, 2, g, 0.0) == 2.0 * binomial_action(g, 1.0, 6, 2).value


def test_measure_point_routes_consistent():
    # measure_point reads the determinant route's values from its one shot
    N, g = 4, 1e-2
    p = measure_point(N, g)
    spec = PotentialSpec(N, 2, g, 1.0, 0.0)
    assert p.z1 == zeta_from_det(spec, 1).value
    assert p.zp1 == zeta_from_det(spec, 1, skew=True).value
    assert p.z2 == zeta_from_det(spec, 2).value
    assert p.zp2 == zeta_from_det(spec, 2, skew=True).value
    # slope and z1 are tied by the regularized harmonic trace
    assert p.slope == pytest.approx(-p.z1 + 0.5 * (EULER_GAMMA + LOG2), abs=1e-12)


@pytest.mark.parametrize("N,g", [(4, 1e-4), (4, 3e-4), (6, 1e-4), (8, 1e-4), (4, 1e-10),
                                 (6, 1e-10)])
def test_shot_z2_matches_spectrum_route(N, g):
    # Z(2) from the shot of q^2 + g q^N against its 64 levels and
    # Bohr-Sommerfeld tail; the shot of the partner q^N + v q^2 missed by up
    # to 1.6e-9 at g = 1e-10, where v = g^(-4/(N+2)) magnified its error in
    # d^2 log D/dmu^2 by v
    p = measure_point(N, g)
    z2_levels = zeta_full(PotentialSpec(N, 2, g, 1.0, 0.0), 2, count=64, tol=1e-6).value
    assert abs(p.z2 - z2_levels) <= 2e-10, (N, g, p.z2 - z2_levels)


@pytest.mark.parametrize("N", (4, 6, 8, 10))
def test_measure_point_matches_spectrum_route(N):
    # the shot's Z^P(1), Z(2), Z^P(2) against the first 64 levels of
    # q^2 + g q^N (and the Bohr-Sommerfeld tail of Z(2)); the worst gaps are
    # 2e-11 on z2 (N = 10, g = 1e-8) and 9e-15 on zp1, zp2
    for g in GRID + (1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
        p = measure_point(N, g)
        spec = PotentialSpec(N, 2, g, 1.0, 0.0)
        assert abs(p.z2 - zeta_full(spec, 2, count=64, tol=1e-6).value) <= 2e-10, g
        assert abs(p.zp1 - zeta_skew(spec, 1, count=64, tol=1e-6).value) <= 1e-13, g
        assert abs(p.zp2 - zeta_skew(spec, 2, count=64, tol=1e-6).value) <= 1e-13, g


@pytest.mark.parametrize("N", (4, 6))
@pytest.mark.parametrize("g", (1e-1, 1e-4))
def test_measure_point_default_count_matches_512_levels(N, g):
    # the spectrum route at the 64 levels the cross-check above sums: the
    # second-order Bohr-Sommerfeld tail of Z(2) carries levels 64 and up
    spec = PotentialSpec(N, 2, g, 1.0, 0.0)
    for zeta, s, bound in ((zeta_full, 2, 1e-10), (zeta_skew, 1, 1e-13), (zeta_skew, 2, 1e-13)):
        low, high = zeta(spec, s, count=64).value, zeta(spec, s, count=512).value
        assert low == pytest.approx(high, abs=bound), (zeta.__name__, s)


@pytest.mark.parametrize("job", (lambda: verify(4, (1e-2, 1e-3)),
                                 lambda: fig2_rows((4, 6), (1e-2, 1e-3))), ids=("verify", "fig2"))
def test_verify_and_fig2_solve_no_level(job, monkeypatch):
    # every measured quantity comes from the shot: no eigen solve and no
    # Bohr-Sommerfeld level
    def refuse(*args, **kwargs):
        raise AssertionError("a level was solved")

    monkeypatch.setattr(spectrum, "eigenvalues", refuse)
    for module in (actions, spectral):
        monkeypatch.setattr(module, "bs_level", refuse)
    spectral.det_jet.cache_clear()
    job()


def test_verify_truncated_grid_structure():
    report = verify(4, (1e-1, 3e-2, 1e-2))
    assert report.family == (4, 2)
    assert report.grid == [1e-1, 3e-2, 1e-2]
    for key in ("z1", "zp1", "z2", "zp2", "slope", "ratio0", "skew_ratio0"):
        assert len(report.predicted[key]) == 3
        assert len(report.measured[key]) == 3
        for m, q, r in zip(report.measured[key], report.predicted[key],
                           report.residuals[key]):
            assert r == m - q
    # on a short grid the trend verdicts already hold
    assert report.verdicts["z1_monotone"]
    assert report.verdicts["zp1_regular"]
    import jsonschema

    from oscdet import schemas

    jsonschema.validate(report.payload(), schemas.VERIFY_SCHEMA)
    rows = list(report.to_csv_rows())
    assert rows[0][0] == "g"
    assert len(rows) == 4
