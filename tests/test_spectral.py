import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import ODEintWarning

from oscdet import spectral
from oscdet.cli import main
from oscdet.errors import AccuracyError, DivergenceError, DomainError
from oscdet.potential import PotentialSpec
from oscdet.special_functions import CATALAN, EULER_GAMMA, LOG2
from oscdet.spectral import (
    det_ratio,
    det_ratio_skew,
    dilate_det,
    dilate_zeta,
    harmonic_det,
    harmonic_resolvent_reg,
    harmonic_zeta_full,
    harmonic_zeta_skew,
    shooting_det,
    zeta0_value,
    zeta_from_det,
    zeta_full,
    zeta_skew,
)
from oscdet.spectrum import eigenvalues


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
            ref = PotentialSpec.uncoupled(2, 1.0, lam / r)
            mapped = dilate_det(harmonic_det(1.0, lam / r), r, ref)
            assert direct.log_abs_full == pytest.approx(mapped.log_abs_full, abs=1e-12)
            assert direct.log_abs_skew == pytest.approx(mapped.log_abs_skew, abs=1e-12)


# --------------------------------------------------------------------------
# shooting determinants
# --------------------------------------------------------------------------

def test_shooting_reproduces_harmonic():
    for lam in (0.0, 0.5, 1.0):
        got = shooting_det(PotentialSpec.uncoupled(2, 1.0), lam)
        want = harmonic_det(1.0, lam)
        assert got.method == "shooting"
        assert got.full == pytest.approx(want.full, rel=1e-6)
        assert got.even == pytest.approx(want.even, rel=1e-6)
        assert got.odd == pytest.approx(want.odd, rel=1e-6)


def test_shooting_parity_combination_identities():
    d = shooting_det(PotentialSpec.uncoupled(4, 1.0), 0.5)
    assert d.full == pytest.approx(d.even * d.odd, rel=1e-10)
    assert d.skew == pytest.approx(d.even / d.odd, rel=1e-10)


def test_shooting_rejects_small_q_max():
    with pytest.raises(DomainError):
        shooting_det(PotentialSpec.uncoupled(4, 1.0), 0.0, q_max=3.0)


def test_shooting_integrator_failure_is_an_accuracy_error(monkeypatch, capsys):
    def failing_odeint(func, y0, t, **kwargs):
        warnings.warn("Excess work done on this call.", ODEintWarning)
        return np.array([y0, y0]), {"message": "Excess work done on this call."}

    monkeypatch.setattr(spectral, "odeint", failing_odeint)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(AccuracyError, match="Excess work"):
            shooting_det(PotentialSpec.uncoupled(4, 1.0), 0.0)
        assert main(["det", "--spec", "4 0 1.0 0.0 0.0"]) == 3
    assert caught == []
    assert "Traceback" not in capsys.readouterr().err


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
    spec = PotentialSpec.uncoupled(4, 1.0)
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
    for spec in (PotentialSpec.uncoupled(4, 1.0),
                 PotentialSpec.uncoupled(6, 1.0),
                 PotentialSpec.trinomial(4, 2, 1.0),
                 PotentialSpec.trinomial(4, 2, 400.0)):
        d0 = shooting_det(spec, 0.0)
        for lam in (0.5, 1.0, 2.0):
            dl = shooting_det(spec, lam)
            shoot = math.exp(dl.log_abs_full - d0.log_abs_full)
            product = det_ratio(spec, lam)
            assert shoot == pytest.approx(product, rel=1e-5), (spec, lam)


def test_skew_ratio_routes_agree():
    spec = PotentialSpec.uncoupled(4, 1.0)
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
    spec = PotentialSpec.uncoupled(4, 1.0)
    assert det_ratio(spec, 0.0) == pytest.approx(1.0, abs=1e-12)
    lam3 = eigenvalues(spec, 4, 1e-8).values()[3]
    assert det_ratio(spec, -lam3) == pytest.approx(0.0, abs=1e-9)


def test_det_ratio_sign_below_ground_state():
    spec = PotentialSpec.uncoupled(4, 1.0)
    lam0, lam1 = eigenvalues(spec, 2, 1e-8).values()
    mid = -0.5 * (lam0 + lam1)
    assert det_ratio(spec, mid) < 0.0


def test_det_ratio_requires_zero_free_form():
    with pytest.raises(DomainError):
        det_ratio(PotentialSpec.uncoupled(2, 1.0), 0.5)


# --------------------------------------------------------------------------
# zeta functions
# --------------------------------------------------------------------------

def test_harmonic_zeta_constants():
    assert harmonic_zeta_skew(1).value == pytest.approx(math.pi / 4.0, abs=1e-12)
    assert harmonic_zeta_full(2).value == pytest.approx(math.pi**2 / 8.0, abs=1e-12)
    assert harmonic_zeta_skew(2).value == pytest.approx(CATALAN, abs=1e-12)


def test_harmonic_full_zeta_diverges_at_one():
    with pytest.raises(DivergenceError):
        harmonic_zeta_full(1)
    with pytest.raises(DivergenceError):
        zeta_full(PotentialSpec.uncoupled(2, 1.0), 1)


def test_harmonic_skew_accelerated_vs_partial_sums():
    # 10^4 exact terms summed directly, then averaged once
    k = np.arange(10**4)
    terms = (-1.0) ** k / (2.0 * k + 1.0) ** 2
    partial = np.cumsum(terms)
    oracle = 0.5 * (partial[-1] + partial[-2])
    assert harmonic_zeta_skew(2).value == pytest.approx(oracle, abs=1e-8)


def test_harmonic_zetas_against_mpmath_nsum():
    # closed Hurwitz forms against the ladder sqrt(v)(2k+1) - E summed by mpmath
    for v in (1.0, 2.5):
        for E in (0.0, -1.3, 0.6):
            r = mp.sqrt(v)
            for s in (1, 2, 3):
                skew = mp.nsum(lambda k: (-1) ** k / (r * (2 * k + 1) - E) ** s, [0, mp.inf])
                assert harmonic_zeta_skew(s, E, v).value == pytest.approx(float(skew), rel=1e-14)
                if s > 1:
                    full = mp.nsum(lambda k: 1 / (r * (2 * k + 1) - E) ** s, [0, mp.inf])
                    assert harmonic_zeta_full(s, E, v).value == pytest.approx(float(full),
                                                                              rel=1e-14)


def test_zeta_skew_computed_spectrum_vs_partial_sums():
    spec = PotentialSpec.uncoupled(4, 1.0)
    res = eigenvalues(spec, 384, 1e-6)
    vals = res.values()
    terms = (-1.0) ** np.arange(len(vals)) * vals ** (-2.0)
    partial = np.cumsum(terms)
    oracle = 0.5 * (partial[-1] + partial[-2])
    z = zeta_skew(spec, 2, count=384, tol=1e-6)
    assert z.value == pytest.approx(oracle, abs=1e-8)


def test_zeta_full_tail_fraction_invariant():
    z = zeta_full(PotentialSpec.uncoupled(4, 1.0), 2)
    assert z.tail_fraction < 0.1


def parity_zeta(spec, parity, s, *, count, tol):
    """Plain partial sum over one parity sector (no tail model)."""
    lam = eigenvalues(spec, count, tol).parity_values(parity)
    return float(np.sum(lam ** (-float(s))))


def test_zeta_parity_combinations():
    spec = PotentialSpec.uncoupled(4, 1.0)
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
    # s = 1 on q^4 + q^2 needs 512 levels and still takes 9% from the tail
    for spec, s in ((PotentialSpec.uncoupled(4, 1.0), 2), (PotentialSpec.trinomial(4, 2, 1.0), 1)):
        z_det = zeta_from_det(spec, s, 0.0)
        z_sum = zeta_full(spec, s, 0.0)
        assert z_det.value == pytest.approx(z_sum.value, abs=1e-5), (spec, s)


def test_zeta_from_det_skew_matches_accelerated_sum():
    spec = PotentialSpec.uncoupled(4, 1.0)
    z_det = zeta_from_det(spec, 1, 0.0, skew=True)
    z_sum = zeta_skew(spec, 1, count=384, tol=1e-6)
    assert z_det.value == pytest.approx(z_sum.value, abs=1e-5)


def test_harmonic_resolvent_regularized_value():
    # -1/2 [psi(1/2) + log 2] = (gamma + log 2)/2
    assert harmonic_resolvent_reg(0.0) == pytest.approx(
        0.5 * (EULER_GAMMA + LOG2), abs=1e-13)


# --------------------------------------------------------------------------
# dilation
# --------------------------------------------------------------------------

def test_dilate_uncoupled_quartic():
    # det(v q^4 + lam) = det(q^4 + v^{-1/3} lam): type N, zero exponent
    v, lam = 2.0, 0.7
    direct = shooting_det(PotentialSpec.uncoupled(4, v), lam)
    r = v ** (1.0 / 3.0)
    ref = PotentialSpec.uncoupled(4, 1.0, lam / r)
    mapped = dilate_det(shooting_det(PotentialSpec.uncoupled(4, 1.0), lam / r), r, ref)
    assert direct.log_abs_full == pytest.approx(mapped.log_abs_full, abs=1e-7)
    # skew picks up exactly v^{1/(M+2)}
    assert zeta0_value(ref) == 0.0
    assert direct.log_abs_skew == pytest.approx(mapped.log_abs_skew, abs=1e-7)


def test_dilate_zeta_scaling():
    z = harmonic_zeta_full(2, 0.0)
    z2 = dilate_zeta(z, 3.0)
    assert z2.value == pytest.approx(z.value / 9.0, rel=1e-14)
    assert z2.E == 0.0


def test_dilate_rejects_bad_factor():
    with pytest.raises(DomainError):
        dilate_zeta(harmonic_zeta_full(2), -1.0)
