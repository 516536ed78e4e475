"""Acceptance suite: every shipped claim at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them).  The two
trend criteria share a single verify() run per family through the
module-scoped fixtures.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from oscdet.actions import adaptive_tail, binomial_action, choose_split_point, improper_action
from oscdet.mellin import asymptotic_total, contributing_poles
from oscdet.potential import PotentialSpec, symanzik_map
from oscdet.predictions import verify
from oscdet.special_functions import CATALAN
from oscdet.spectral import harmonic_det, shooting_det, zeta_full, zeta_skew
from oscdet.spectrum import eigenvalues
from oscdet.actions import trinomial_action_asymptotic
from fractions import Fraction

from helpers import uncoupled


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


@pytest.fixture(scope="module")
def verify_reports():
    reports = {}
    for N in (4, 6):
        t0 = time.perf_counter()
        reports[N] = (verify(N), time.perf_counter() - t0)
    return reports


def test_c1_closed_vs_numeric_regularization():
    t0 = time.perf_counter()
    worst = 0.0
    for v in (0.5, 1.0, 2.0):
        got = improper_action(PotentialSpec.trinomial(4, 2, v)).value
        worst = max(worst, abs(got - (-(v**1.5) / 3.0)))
    elapsed = time.perf_counter() - t0
    _report("C1  binomial regularization",
            worst <= 1e-7 and elapsed < 1.0,
            f"max |err| = {worst:.2e}, runtime {elapsed:.2f}s")


def test_c2_anomalous_closed_forms():
    worst = 0.0
    for N, M in ((6, 4), (6, 2)):
        for v in (0.5, 1.0, 2.0):
            closed = binomial_action(1.0, v, float(N), float(M)).value
            numeric = improper_action(PotentialSpec.trinomial(N, M, v)).value
            worst = max(worst, abs(closed - numeric))
    _report("C2  anomalous closed forms", worst <= 1e-6, f"max |err| = {worst:.2e}")


def test_c3_split_point_independence():
    spec = PotentialSpec.trinomial(4, 2, 1.0)
    # improper_action splits at choose_split_point; the other splits take a
    # head by quad and the same tail series
    base = choose_split_point(spec)
    values = [improper_action(spec).value]
    for q in (2.0 * base, 4.0 * base):
        head, _ = quad(lambda x: math.sqrt(spec.value(x)), 0.0, q,
                       epsabs=1e-10, epsrel=1e-12, limit=200)
        values.append(head + adaptive_tail(spec, q))
    spread = max(values) - min(values)
    _report("C3  additivity", spread < 1e-7, f"spread = {spread:.2e}")


def test_c4_harmonic_determinants():
    d0 = harmonic_det(1.0, 0.0).full
    d1 = harmonic_det(1.0, 1.0).full
    closed_ok = (abs(d0 - math.sqrt(2.0)) <= 1e-12
                 and abs(d1 - math.sqrt(math.pi)) <= 1e-12)
    s0 = shooting_det(uncoupled(2, 1.0), 0.0).full
    s1 = shooting_det(uncoupled(2, 1.0), 1.0).full
    shoot_err = max(abs(s0 / d0 - 1.0), abs(s1 / d1 - 1.0))
    _report("C4  harmonic determinant",
            closed_ok and shoot_err <= 1e-6,
            f"closed err = {max(abs(d0 - math.sqrt(2.0)), abs(d1 - math.sqrt(math.pi))):.1e}, "
            f"shooting rel err = {shoot_err:.2e}")


def test_c5_spectrum_and_symanzik():
    t0 = time.perf_counter()
    res = eigenvalues(uncoupled(2, 1.0), 20, 1e-7)
    harm_err = max(abs(e.value - (2 * e.k + 1)) for e in res.entries)
    sym_err = 0.0
    for g in (0.5, 1.0, 2.0):
        v, _ = symanzik_map(2, 4, g, 0.0)
        direct = eigenvalues(PotentialSpec(4, 2, g, 1.0, 0.0), 16, 1e-7).values()
        partner = eigenvalues(PotentialSpec(4, 2, 1.0, v, 0.0), 16, 1e-7).values()
        sym_err = max(sym_err, float(np.max(np.abs(direct - partner / math.sqrt(v)))))
    elapsed = time.perf_counter() - t0
    _report("C5  spectrum + Symanzik",
            harm_err <= 1e-6 and sym_err <= 1e-6 and elapsed < 30.0,
            f"harmonic err = {harm_err:.2e}, Symanzik err = {sym_err:.2e}, "
            f"runtime {elapsed:.1f}s")


def test_c6_zeta_constants():
    q2 = uncoupled(2, 1.0)
    e1 = abs(zeta_skew(q2, 1).value - math.pi / 4.0)
    e2 = abs(zeta_full(q2, 2).value - math.pi**2 / 8.0)
    e3 = abs(zeta_skew(q2, 2).value - CATALAN)
    _report("C6  zeta constants", max(e1, e2, e3) <= 1e-8,
            f"errs = {e1:.1e}, {e2:.1e}, {e3:.1e}")


def test_c7_mellin_structure():
    pole_ok = True
    for N in range(4, 13, 2):
        for M in range(2, N, 2):
            lead, sub = contributing_poles(N, M)
            pole_ok &= lead.sigma0 == Fraction(N + 2, 2 * (N - M))
            pole_ok &= sub.sigma0 == Fraction(-1, M)
            pole_ok &= lead.is_pinching == (Fraction(N + 2, 2 * (N - M)).denominator == 1)
            pole_ok &= sub.is_double == (M == 2)
    worst = 0.0
    for N, M in ((4, 2), (6, 2), (6, 4), (8, 4), (8, 2), (10, 4)):
        for v in (0.5, 2.0):
            for lam in (0.0, 1.0):
                a = asymptotic_total(N, M, v, lam)
                b = trinomial_action_asymptotic(N, M, v, lam)
                worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    _report("C7  Mellin structure", pole_ok and worst <= 1e-12,
            f"poles ok = {pole_ok}, route gap = {worst:.1e}")


def test_c8_fig2_right_reproduction(verify_reports):
    ok = True
    details = []
    for N in (4, 6):
        report, elapsed = verify_reports[N]
        resid = [abs(r) for r in report.residuals["z1"]]
        ok &= report.verdicts["z1_monotone"] and report.verdicts["z1_final"]
        ok &= elapsed < 300.0
        details.append(f"N={N}: final |res| = {resid[-1]:.2e}, "
                       f"monotone = {report.verdicts['z1_monotone']}, "
                       f"runtime {elapsed:.0f}s")
    _report("C8  Z(1) singular law", ok, "; ".join(details))


def test_c9_determinant_asymptotics(verify_reports):
    ok = True
    details = []
    for N in (4, 6):
        report, _ = verify_reports[N]
        grid = report.grid
        slope_rel = [abs(r / p) for r, p in zip(report.residuals["slope"],
                                                report.predicted["slope"])]
        i3 = min(range(len(grid)), key=lambda i: abs(grid[i] - 1e-3))
        slope_ok = all(b < a for a, b in zip(slope_rel[:i3 + 1], slope_rel[1:i3 + 1]))
        slope_ok &= slope_rel[i3] <= 0.02
        ratio = [abs(r) for r in report.residuals["ratio0"]]
        value_ok = all(b < a for a, b in zip(ratio, ratio[1:]))
        ok &= slope_ok and value_ok
        details.append(f"N={N}: slope rel dev at 1e-3 = {slope_rel[i3]:.4f}, "
                       f"|residual| span = {ratio[0]:.1e} -> {ratio[-1]:.1e}")
    _report("C9  det ratio asymptotics", ok, "; ".join(details))


def test_c10_regular_limits(verify_reports):
    ok = True
    details = []
    for N in (4, 6):
        report, _ = verify_reports[N]
        ok &= report.verdicts["zp1_regular"] and report.verdicts["z2_regular"]
        details.append(f"N={N}: zp1 res {abs(report.residuals['zp1'][-1]):.1e}, "
                       f"z2 res {abs(report.residuals['z2'][-1]):.1e}")
    _report("C10 regular limits", ok, "; ".join(details))
