import itertools
import math

import numpy as np
import pytest
import scipy.sparse
from scipy.linalg import eig_banded

import oscdet
from oscdet import actions, spectrum
from oscdet.errors import AccuracyError, DomainError
from oscdet.potential import PotentialSpec, symanzik_map
from oscdet.spectral import zeta_full
from oscdet.spectrum import _ritz_levels, _sector_band, bs_level, eigenvalues

from helpers import uncoupled

# frozen from a dense-mesh run (h -> h/2 -> h/4, double Richardson) done
# independently of this solver before it was written
QUARTIC_LEVELS = (1.06036209048, 3.79967302980, 7.45569793799, 11.64474550266,
                  16.26182601404, 21.23837292358, 26.52847117974, 32.09859769903)


def test_harmonic_levels():
    res = eigenvalues(uncoupled(2, 1.0), 20, 1e-7)
    for e in res.entries:
        assert e.value == pytest.approx(2 * e.k + 1, abs=1e-6)
        assert 0.0 < e.err_est <= 1e-7


def test_package_resolves_the_solver_on_first_use():
    # the package imports this module, which loads LAPACK, only when asked
    assert oscdet.eigenvalues is spectrum.eigenvalues
    assert oscdet.SpectrumResult is spectrum.SpectrumResult
    assert "SpectrumResult" in oscdet.__all__ and "eigenvalues" in oscdet.__all__
    with pytest.raises(AttributeError):
        oscdet.no_such_name


def test_quartic_levels_against_oracle():
    res = eigenvalues(uncoupled(4, 1.0), 8, 1e-8)
    for e, want in zip(res.entries, QUARTIC_LEVELS):
        assert e.value == pytest.approx(want, abs=5e-8)


def test_parity_labels_alternate_and_interlace():
    res = eigenvalues(PotentialSpec.trinomial(4, 2, 1.0), 12, 1e-6)
    assert [e.parity for e in res.entries[:4]] == ["even", "odd", "even", "odd"]
    vals = res.values()
    assert np.all(np.diff(vals) > 0)


def test_symanzik_spectral_equivalence():
    # E_k(g) of q^2 + g q^4 equals v^{-1/2} lam_k(v) of q^4 + v q^2
    for g in (0.5, 1.0, 2.0):
        v, _ = symanzik_map(2, 4, g, 0.0)
        direct = eigenvalues(PotentialSpec(4, 2, g, 1.0, 0.0), 16, 1e-7).values()
        partner = eigenvalues(PotentialSpec(4, 2, 1.0, v, 0.0), 16, 1e-7).values()
        assert np.max(np.abs(direct - partner / math.sqrt(v))) < 1e-6


def test_err_est_covers_a_doubled_basis():
    # the levels solved on twice the final basis stay within err_est: on a
    # pure power and a coupled quartic at 128 levels, then on near-harmonic
    # (u = 1e-3) to coupled spectra of four shapes; not four times, since
    # where err_est is the rounding floor a solve on 4n states rounds on a
    # norm up to 4^(N/2) times larger and can itself move a level by more
    grid = [(PotentialSpec(N, M, u, 1.0, lam), count)
            for (N, M), u, lam, count in itertools.product(
                ((4, 2), (6, 4), (8, 2), (10, 4)), (1e-3, 1.0), (0.0, 3.0), (1, 64, 256))]
    cases = [(uncoupled(6, 1.0), 128), (PotentialSpec.trinomial(4, 2, 1.0), 128)]
    for spec, count in cases + grid:
        res = eigenvalues(spec, count, 1e-6)
        finer, _ = _ritz_levels(spec, res.params.omega, 2 * res.params.n, count)
        err = np.array([e.err_est for e in res.entries])
        assert np.all(np.abs(finer - res.values()) <= err), (spec, count)


def _csr_sector_band(spec, omega, n, parity):
    """Reference band: Horner's rule on sparse matrices of x^2."""
    half = spec.N // 2
    m = np.arange(parity, 2 * (n + half), 2, dtype=float)
    off = 0.5 * np.sqrt((m[:-1] + 1.0) * (m[:-1] + 2.0))
    x2 = scipy.sparse.diags([off, m + 0.5, off], [-1, 0, 1], format="csr")
    coef = np.zeros(half + 1)
    coef[half] += spec.u * omega ** (-half)
    coef[spec.M // 2] += spec.v * omega ** (-(spec.M // 2))
    coef[1] -= omega
    coef[0] += spec.lam
    eye = scipy.sparse.identity(len(m), format="csr")
    poly = coef[half] * eye
    for c in coef[-2::-1]:
        poly = poly @ x2 + c * eye
    band = np.zeros((half + 1, n))
    for d in range(half + 1):
        band[d, :n - d] = poly.diagonal(-d)[:n - d]
    band[0] += omega * (2.0 * m[:n] + 1.0)
    return band


@pytest.mark.parametrize("spec", (PotentialSpec(4, 2, 1e-3, 1.0, 0.0), uncoupled(6, 1.0),
                                  PotentialSpec(10, 4, 2.0, 3.0, -0.5), PotentialSpec(8, 6, 1.0, 1e3, 1.0),
                                  uncoupled(2, 2.5)))
def test_sector_band_matches_sparse_horner(spec):
    for n, parity in ((6, 0), (40, 1), (512, 0)):
        want = _csr_sector_band(spec, 1.7, n, parity)
        np.testing.assert_allclose(_sector_band(spec, 1.7, n, parity), want, rtol=1e-14, atol=0.0)


# near-harmonic spectra, where the solver's rounding sets err_est, and pure
# and coupled anharmonic ones, where the change over the last basis step
# does; q^2 + 1e-10 q^6, whose Hamiltonian has a 2-norm of only about twice
# its top level, rounds like its levels' own size
ROUNDING_SPECS = (PotentialSpec(4, 2, 1e-2, 1.0, 0.0), PotentialSpec(4, 2, 1e-3, 1.0, 0.0),
                  PotentialSpec(4, 2, 1e-4, 1.0, 0.0), PotentialSpec(6, 2, 1e-2, 1.0, 0.0),
                  uncoupled(6, 1.0), PotentialSpec.trinomial(4, 2, 1.0),
                  PotentialSpec(6, 2, 1e-10, 1.0, 0.0))


@pytest.mark.parametrize("count", (128, 256))
@pytest.mark.parametrize("spec", ROUNDING_SPECS)
def test_err_est_covers_the_solvers_rounding(spec, count):
    # a basis frequency moved in its last digits changes the levels only
    # through rounding; eps * ||H||_1 alone fell short by up to 3.65 times
    res = eigenvalues(spec, count, 1e-6)
    err = np.array([e.err_est for e in res.entries])
    for factor in (1.0 - 1e-14, 1.0 + 1e-14):
        moved, _ = _ritz_levels(spec, res.params.omega * factor, res.params.n, count)
        assert np.all(np.abs(moved - res.values()) <= err)


@pytest.mark.parametrize("count", (128, 256))
@pytest.mark.parametrize("spec", ROUNDING_SPECS)
def test_ritz_levels_match_bisection(spec, count):
    res = eigenvalues(spec, count, 1e-6)
    n, omega = res.params.n, res.params.omega
    err = np.array([e.err_est for e in res.entries])
    values, _ = _ritz_levels(spec, omega, n, count)
    for parity in (0, 1):
        levels = (count + 1 - parity) // 2
        bisection = eig_banded(_sector_band(spec, omega, n, parity), lower=True,
                               eigvals_only=True, select="i", select_range=(0, levels - 1))
        assert np.all(np.abs(values[parity::2] - bisection) <= err[parity::2])


def test_ritz_levels_take_every_level_of_a_block(monkeypatch):
    # the all-level driver is 4-9 times faster than bisection on these blocks;
    # the call is eig_banded's own, which leaves the band to the caller
    calls = []

    def spy(band, **kwargs):
        before = band.copy()
        out = dsbevd(band, **kwargs)
        calls.append((kwargs, np.array_equal(band, before)))
        return out

    dsbevd = spectrum._dsbevd
    monkeypatch.setattr(spectrum, "_dsbevd", spy)
    _ritz_levels(PotentialSpec.trinomial(4, 2, 1.0), 1.3, 64, 10)
    assert calls == [(dict(compute_v=0, lower=1, overwrite_ab=0), True)] * 2


def _spy_on_blocks(monkeypatch):
    """States per parity of every block ``dsbevd`` solves, in order."""
    blocks = []
    dsbevd = spectrum._dsbevd

    def spy(band, **kwargs):
        blocks.append(band.shape[1])
        return dsbevd(band, **kwargs)

    monkeypatch.setattr(spectrum, "_dsbevd", spy)
    return blocks


@pytest.mark.parametrize("spec", (uncoupled(6, 1.0), PotentialSpec.trinomial(4, 2, 1.0)))
def test_eigenvalues_grow_the_basis_by_thirds(monkeypatch, spec):
    # 256 levels, 128 per parity, start on 192 states per parity and are
    # certified one third further on, at 256; a doubling solved 256 and 512
    blocks = _spy_on_blocks(monkeypatch)
    res = spectrum._eigenvalues_cached.__wrapped__(spec, 256, 1e-6)
    assert blocks == [192, 192, 256, 256]
    assert res.params.n == 256


@pytest.mark.parametrize("spec, count, tol, sizes", (
    # q^6 settles within its norm floor, above 1e-14, at 85 states: a
    # larger basis only raises that floor, so the refusal stops there
    (uncoupled(6, 1.0), 64, 1e-14, [48, 64, 85]),
    # a near-harmonic level's floor is its own size, which no basis lowers
    # below tol, but its norm part stays below tol, so the steps go on to
    # 8 * 16 states, the largest basis
    (PotentialSpec(2, 0, 1e-8, 1.0, 0.0), 1, 1e-15, [16, 21, 28, 37, 49, 65, 86, 114, 128])))
def test_refusal_solves_no_basis_that_cannot_reach_tol(monkeypatch, spec, count, tol, sizes):
    blocks = _spy_on_blocks(monkeypatch)
    with pytest.raises(AccuracyError) as exc:
        spectrum._eigenvalues_cached.__wrapped__(spec, count, tol)
    assert blocks == [n for n in sizes for _ in range(2)]
    assert exc.value.best_estimate.params.n == sizes[-1] and exc.value.err_est > tol


@pytest.mark.parametrize("n", (16, 64, 512))
@pytest.mark.parametrize("N, M", ((2, 0), (4, 0), (4, 2), (6, 0), (6, 2), (10, 0), (10, 2)))
def test_ritz_levels_equal_eig_banded(N, M, n):
    # the LAPACK call is eig_banded's own, so every level is the same to the bit
    spec = PotentialSpec(N, M, 1.0, 0.7, 0.1)
    values, _ = _ritz_levels(spec, 1.3, n, 2 * n)
    for parity in (0, 1):
        want = eig_banded(_sector_band(spec, 1.3, n, parity), lower=True, eigvals_only=True)
        assert np.array_equal(values[parity::2], want)


def test_ritz_levels_refuse_a_non_finite_band(monkeypatch):
    def band_with_nan(*args):
        band = sector_band(*args)
        band[0, 3] = math.nan
        return band

    sector_band = spectrum._sector_band
    monkeypatch.setattr(spectrum, "_sector_band", band_with_nan)
    with pytest.raises(AccuracyError, match="not finite"):
        _ritz_levels(PotentialSpec.trinomial(4, 2, 1.0), 1.3, 64, 10)


def test_ritz_levels_refuse_a_failed_solve(monkeypatch):
    def failed(band, **kwargs):
        w, z, _ = dsbevd(band, **kwargs)
        return w, z, 7

    dsbevd = spectrum._dsbevd
    monkeypatch.setattr(spectrum, "_dsbevd", failed)
    with pytest.raises(AccuracyError, match="info = 7"):
        _ritz_levels(PotentialSpec.trinomial(4, 2, 1.0), 1.3, 64, 10)


@pytest.mark.parametrize("v", (1e20, 1e40, 1e60))
def test_bs_level_with_a_turning_point_far_below_one(v):
    # q^4 + v q^2 at large v is harmonic near the origin; Bohr-Sommerfeld is
    # exact there, so level 1 is 3 sqrt(v) with its turning point near v^(-1/4)
    assert bs_level(PotentialSpec.trinomial(4, 2, v), 1) == pytest.approx(3.0 * math.sqrt(v),
                                                                        rel=1e-9)


def test_bs_level_second_order_against_ritz():
    # Dunham's second-order count: level 63 of q^4 to 1.7e-10 (8.8e-6 at first order)
    spec = uncoupled(4, 1.0)
    ritz = eigenvalues(spec, 64, 1e-9).values()[63]
    assert bs_level(spec, 63) == pytest.approx(ritz, rel=1e-9)


def test_level_count_is_first_order_where_the_scale_overflows():
    # q^4 at Q = 1e77: s = 4 Q^4 overflows while Q^4 does not, so that Q
    # takes the first-order count (2/pi) Q^3 int_0^1 sqrt(1 - x^4) dx - 1/2
    # and the Q beside it keeps its second-order one
    count, _ = actions._level_count(uncoupled(4, 1.0))
    with np.errstate(all="ignore"):
        n = count(np.array([2.0, 1e77]))
    area = math.gamma(0.25) * math.gamma(1.5) / (4.0 * math.gamma(1.75))
    assert np.isfinite(n).all()
    assert n[1] == pytest.approx(2.0 / math.pi * 1e77**3 * area - 0.5, rel=1e-14)
    assert n[0] == pytest.approx(count(2.0), rel=1e-15)


@pytest.mark.parametrize("v", (1e-3, 1.0, 7.5))
def test_bs_level_exact_for_harmonic(v):
    # the second-order term vanishes for V'' constant
    for spec in (uncoupled(2, v, 0.3), PotentialSpec(2, 0, v, 4.0, 0.0)):
        for k in (1, 2, 17, 64, 513):
            want = math.sqrt(v) * (2 * k + 1) + spec.value(0.0)
            assert bs_level(spec, k) == pytest.approx(want, rel=1e-12)


def test_monotone_in_coupling():
    values = []
    for v in (0.5, 1.0, 2.0, 4.0):
        values.append(eigenvalues(PotentialSpec.trinomial(4, 2, v), 10, 1e-6).values())
    for a, b in zip(values, values[1:]):
        assert np.all(b > a)


def test_err_est_positive_and_bounded():
    res = eigenvalues(PotentialSpec.trinomial(6, 2, 1.0), 24, 1e-6)
    for e in res.entries:
        assert 0.0 < e.err_est <= 1e-6


def test_count_cap():
    with pytest.raises(DomainError):
        eigenvalues(uncoupled(2, 1.0), 1000, 1e-6)


def test_unreachable_tolerance_carries_best_estimate():
    # below the rounding floor eps * ||H|| of every basis tried
    with pytest.raises(AccuracyError) as exc:
        eigenvalues(uncoupled(6, 1.0), 64, 1e-14)
    best = exc.value.best_estimate
    assert len(best) == 64 and exc.value.err_est > 1e-14
    assert best.values()[0] == pytest.approx(1.1448024537, abs=1e-8)


def test_zeta_full_tail_stable_in_count():
    # the small-g coupled family sits in the harmonic-to-quartic crossover,
    # where a tail over too few levels would move with the count
    spec = PotentialSpec(4, 2, 1e-3, 1.0, 0.0)
    z128 = zeta_full(spec, 2, count=128).value
    z512 = zeta_full(spec, 2, count=512).value
    assert z128 == pytest.approx(z512, abs=1e-7)
