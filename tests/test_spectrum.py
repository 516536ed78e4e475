import math

import numpy as np
import pytest

from oscdet.errors import AccuracyError, DomainError
from oscdet.potential import PotentialSpec, symanzik_map
from oscdet.spectral import zeta_full
from oscdet.spectrum import _ritz_levels, eigenvalues

# frozen from a dense-mesh run (h -> h/2 -> h/4, double Richardson) done
# independently of this solver before it was written
QUARTIC_LEVELS = (1.06036209048, 3.79967302980, 7.45569793799, 11.64474550266,
                  16.26182601404, 21.23837292358, 26.52847117974, 32.09859769903)


def test_harmonic_levels():
    res = eigenvalues(PotentialSpec.uncoupled(2, 1.0), 20, 1e-7)
    for e in res.entries:
        assert e.value == pytest.approx(2 * e.k + 1, abs=1e-6)
        assert 0.0 < e.err_est <= 1e-7


def test_quartic_levels_against_oracle():
    res = eigenvalues(PotentialSpec.uncoupled(4, 1.0), 8, 1e-8)
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
    # the levels solved on twice the final basis stay within err_est
    for spec in (PotentialSpec.uncoupled(6, 1.0), PotentialSpec.trinomial(4, 2, 1.0)):
        res = eigenvalues(spec, 128, 1e-6)
        finer, _ = _ritz_levels(spec, res.params.omega, 2 * res.params.n, len(res))
        err = np.array([e.err_est for e in res.entries])
        assert np.all(np.abs(finer - res.values()) <= err)


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
        eigenvalues(PotentialSpec.uncoupled(2, 1.0), 1000, 1e-6)
    # explicit override allows more
    res = eigenvalues(PotentialSpec.uncoupled(2, 1.0), 600, 1e-4, max_count=1024)
    assert len(res) == 600


def test_unreachable_tolerance_carries_best_estimate():
    # below the rounding floor eps * ||H|| of every basis tried
    with pytest.raises(AccuracyError) as exc:
        eigenvalues(PotentialSpec.uncoupled(6, 1.0), 64, 1e-14)
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
