"""The panel quadrature and the bracketed Newton root against mpmath."""

import math

import mpmath as mp
import numpy as np
import pytest

from oscdet import actions, spectral, spectrum
from oscdet.potential import PotentialSpec


@pytest.mark.parametrize("text", ("4 2 1 5 1e-8", "2 0 1 0 1e-8", "6 2 1 464 1e-8",
                                  "4 0 1 0 1e-8", "10 8 1 100 0"))
def test_panel_rule_takes_the_action_head(text):
    # improper_action's head int_0^Q sqrt(V) dq: the constant 1e-8 adds
    # 1e-8/(2 sqrt(v) q) to Pi on every decade between sqrt(1e-8/v) and Q,
    # 2e-9 in all at v = 464, and the head of q^10 + 100 q^8 (2.4e7) cancels
    # against its tail to -1.2e5; the tail is the same call on both sides, and
    # the bound the rule's own, 1e-14 of the head
    spec = PotentialSpec.from_text(text)
    q = actions.choose_split_point(spec)
    with mp.workdps(30):
        def pi(t):
            return mp.sqrt(spec.u * t**spec.N + spec.v * t**spec.M + spec.lam)

        head = mp.quad(pi, [0, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, q / 4, q / 2, q])
    got = actions.improper_action(spec).value
    want = float(head) + actions.adaptive_tail(spec, q)
    assert abs(got - want) <= 1e-14 * head, (got, want)


@pytest.mark.parametrize("text,q_max", [("4 2 1 1 0", 3.0), ("4 0 1 0 0", 1.5),
                                        ("6 2 1 464 1", 6.0), ("10 4 1 1 1e10", 20.0),
                                        ("2 0 1 0 0.3", 4.0)])
def test_panel_rule_takes_the_amplitude_tail(text, q_max):
    # int_{q_max}^inf d^n/dmu^n P'^2/P^{5/2} dq, n = 0, 1, 2, in t = q_max/q
    spec = PotentialSpec.from_text(text)
    got = spectral._amplitude_tail(spec, q_max, 2)
    with mp.workdps(60):     # mp.quad's tolerance is absolute, and the values reach 1e-33
        def dp(q):
            return spec.N * spec.u * q ** (spec.N - 1) + spec.M * spec.v * q ** (spec.M - 1)

        def p(q):
            return spec.u * q**spec.N + spec.v * q**spec.M + spec.lam

        for n, c in enumerate((1, mp.mpf(-5) / 2, mp.mpf(35) / 4)):
            want = mp.quad(lambda q: c * dp(q) ** 2 / p(q) ** (mp.mpf(5) / 2 + n),
                           [q_max, 2 * q_max, mp.inf])
            assert abs(got[n] - want) <= 1e-13 * abs(want), (n, got[n], want)


@pytest.mark.parametrize("what", ("Z(1)", "Z(2)", "det_ratio"))
def test_panel_rule_takes_the_level_tail(what):
    # bs_tail's integral int_{Q_K}^inf -f'(V) (n(V) - K) V' dQ on q^4 + q^2
    # past K = 64 levels, against mpmath's on the same level count
    spec, K = PotentialSpec.trinomial(4, 2, 1.0), 64
    f, df = {"Z(1)": (lambda x: 1.0 / x, lambda x: -1.0 / x**2),
             "Z(2)": (lambda x: x**-2.0, lambda x: -2.0 * x**-3.0),
             "det_ratio": (lambda x: math.log1p(1.0 / x), lambda x: -1.0 / (x * (x + 1.0)))}[what]
    count, density = actions._level_count(spec)
    lam_K = actions.bs_level(spec, K)
    Q_K = actions.turning_point(spec, lam_K)

    def integrand(Q):
        Q = float(Q)
        return -df(spec.value(Q)) * (float(count(Q)) - K) * spec.deriv(Q)

    with mp.workdps(20):
        integral = mp.quad(integrand, [Q_K, 2 * Q_K, 8 * Q_K, mp.inf])
    want = float(integral) + 0.5 * f(lam_K) - df(lam_K) / (12.0 * float(density(Q_K)))
    got = actions.bs_tail(spec, K, f, df)
    assert got == pytest.approx(want, rel=1e-12), (got, want)


def _log_bracket_root(f, lo, hi):
    """q in [lo, hi] with f(q) = 0, solved by mpmath in log q at 50 digits."""
    with mp.workdps(50):
        y = mp.findroot(lambda y: f(mp.exp(y)), (mp.log(lo), mp.log(hi)), solver="anderson")
        return mp.exp(y)


@pytest.mark.parametrize("e", range(-60, 41, 20))
def test_increasing_root_against_mpmath(e):
    # turning points of u q^4 + v q^2, down to 1e-150 (v = 1e300), and split
    # points of the same potentials (x = (v/u) q^-2 = 0.2), to brentq's
    # tolerance: xtol scaled to roots below 1, and 4 eps relative
    u = 10.0**e
    for v in (0.0, 1.0, 1e100, 1e300):
        spec = PotentialSpec(4, 2, u, v, 0.0)
        for lam in (1.0, 1e4):
            got = spectrum.turning_point(spec, lam)
            # one of the two terms is at least lam/2 at the root, neither above lam
            lo = min((lam / (2 * u)) ** 0.25, math.sqrt(lam / (2 * v)) if v else math.inf)
            hi = min((lam / u) ** 0.25, math.sqrt(lam / v) if v else math.inf)
            want = _log_bracket_root(lambda q: u * q**4 + v * q**2 - lam, lo, hi)
            tol = 1e-12 * min(1.0, want) + 4 * np.finfo(float).eps * want
            assert abs(got - want) <= tol, (u, v, lam, got, want)
        if v and math.isfinite(v / u):
            got = actions.choose_split_point(spec)
            if got > spec.length():
                want = _log_bracket_root(lambda q: (v / u) / q**2 - 0.2,
                                         math.sqrt(v / u), math.sqrt(10 * v / u))
                tol = 2e-12 * min(1.0, want) + 4 * np.finfo(float).eps * want
                assert abs(got - want) <= tol, (u, v, got, want)
