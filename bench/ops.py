"""Library operations of the ``routes`` and ``determinants`` workloads and the
correctness gate of each.

``execute(op)`` calls oscdet through its module attributes, so a traced run
sees the call through the installed wrappers.  ``check(op, value, done)``
runs outside the timed region with tracing paused; ``done`` maps the indices
of earlier operations to their values, which the route checks compare
against.  A check returns ``(ok, gap)``: ``gap`` is a relative distance to an
independent route or a closed form, or None when the check has no such
reference.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import oscdet.actions as actions
import oscdet.mellin as mellin
import oscdet.predictions as predictions
import oscdet.spectral as spectral
import oscdet.spectrum as spectrum
from oscdet.potential import PotentialSpec
from scipy.special import digamma

COUNT = 256            # levels per spectrum in routes
FULL_ROUTE_TOL = 1e-5  # shooting vs product ratio, as tests/test_spectral.py
SKEW_ROUTE_TOL = 1e-6
ZETA_TOL = 2e-5        # what zeta_from_det promises


def _spec(op) -> PotentialSpec:
    return PotentialSpec(*op["spec"])


def execute(op):
    kind = op["kind"]
    if kind == "eigenvalues":
        return spectrum.eigenvalues(_spec(op), COUNT)
    if kind == "shoot":
        return spectral.shooting_det(_spec(op), op["shift"])
    if kind == "det_ratio":
        return spectral.det_ratio(_spec(op), op["shift"], count=COUNT)
    if kind == "det_ratio_skew":
        return spectral.det_ratio_skew(_spec(op), op["shift"], count=COUNT)
    if kind == "zeta_full":
        return spectral.zeta_full(_spec(op), op["s"], count=COUNT)
    if kind == "zeta_skew":
        return spectral.zeta_skew(_spec(op), op["s"], count=COUNT)
    if kind == "zeta_from_det":
        return spectral.zeta_from_det(_spec(op), op["s"], skew=op["skew"])
    if kind == "improper_action":
        return actions.improper_action(_spec(op))
    if kind == "binomial_action":
        return actions.binomial_action(1.0, op["v"], 4, 2)
    if kind == "asymptotic_total":
        return mellin.asymptotic_total(op["N"], op["M"], op["v"], op["lam"])
    if kind == "enumerate_poles":
        return mellin.enumerate_poles(op["N"], op["M"])
    if kind == "predict_Z1":
        return predictions.predict_Z1(op["N"], op["g"])
    if kind == "predict_det_ratio_g":
        return predictions.predict_det_ratio_g(4, 2, op["g"], 0.0)
    raise ValueError(f"unknown operation {kind!r}")


def _rel(got, want) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def _find(done, ops, kind, spec, **match):
    for i, value in done.items():
        op = ops[i]
        if op["kind"] == kind and op["spec"] == spec and all(op.get(k) == v for k, v in match.items()):
            return value
    raise LookupError(f"no earlier {kind} operation on {spec}")


def _check_spectrum(res):
    vals = res.values()
    parities = [e.parity for e in res.entries]
    ok = (len(res) == COUNT and bool(np.all(np.isfinite(vals))) and bool(np.all(np.diff(vals) > 0.0))
          and parities == ["even", "odd"] * (COUNT // 2)
          and max(e.err_est for e in res.entries) <= 1e-6)
    return ok, None


def _check_shot(op, d):
    if op.get("harmonic"):
        w = op["spec"][2]
        h = spectral.harmonic_det(w, op["shift"])
        gap = max(abs(d.log_abs_even - h.log_abs_even), abs(d.log_abs_odd - h.log_abs_odd))
        return gap <= 1e-6, gap
    ok = (d.sign_even == 1.0 and d.sign_odd == 1.0
          and math.isfinite(d.log_abs_even) and math.isfinite(d.log_abs_odd))
    if "ref" in op:
        ref_full, ref_skew = op["ref"]
        ok = ok and (abs(d.log_abs_full - ref_full) <= 1e-6 * max(1.0, abs(ref_full))
                     and abs(d.log_abs_skew - ref_skew) <= 1e-6 * max(1.0, abs(ref_skew)))
    return ok, None


def _check_ratio(op, ratio, ops, done, skew):
    d0 = _find(done, ops, "shoot", op["spec"], shift=0.0)
    dl = _find(done, ops, "shoot", op["spec"], shift=op["shift"])
    if skew:
        shoot = math.exp(dl.log_abs_skew - d0.log_abs_skew)
    else:
        shoot = math.exp(dl.log_abs_full - d0.log_abs_full)
    gap = _rel(ratio, shoot)
    return gap <= (SKEW_ROUTE_TOL if skew else FULL_ROUTE_TOL), gap


def _check_zeta_sum(op, z, ops, done):
    """The accelerated sums against plain sums over the same spectrum."""
    vals = _find(done, ops, "eigenvalues", op["spec"]).values()
    s = float(op["s"])
    if op["kind"] == "zeta_full":
        head = float(np.sum(vals ** -s))
        return head < z.value and z.tail_fraction <= 0.1, None
    partial = np.cumsum((-1.0) ** np.arange(len(vals)) * vals ** -s)
    # one averaging step leaves an error of the order of the last term's change
    last = abs(vals[-1] ** -s - vals[-2] ** -s)
    return abs(z.value - 0.5 * (partial[-1] + partial[-2])) <= last, None


def _check_zeta_from_det(op, z):
    if "exact" in op:
        gap = _rel(z.value, op["exact"])
        return abs(z.value - op["exact"]) <= ZETA_TOL * max(1.0, abs(op["exact"])), gap
    return abs(z.value - op["ref"]) <= ZETA_TOL * max(1.0, abs(op["ref"])), None


def _check_poles(op, poles):
    """The two contributing poles (C7) appear where they fall inside the
    default window [-3, 3], and the list runs from the largest location."""
    N, M = op["N"], op["M"]
    found = {(p.sigma0, p.source, p.index) for p in poles}
    wanted = {(Fraction(N + 2, 2 * (N - M)), "third", 0), (Fraction(-1, M), "second", 0)}
    inside = {w for w in wanted if -3 <= w[0] <= 3}
    ordered = all(a.sigma0 >= b.sigma0 for a, b in zip(poles, poles[1:]))
    return ordered and inside <= found, None


def _check_z1(op, value):
    N, g = op["N"], op["g"]
    want = (-math.log(g) + N * math.log(2.0)) / (N - 2.0) - 0.5 * (digamma(0.5) + math.log(2.0))
    gap = _rel(value, want)
    return gap <= 1e-12, gap


def check(op, value, ops, done):
    kind = op["kind"]
    if kind == "eigenvalues":
        return _check_spectrum(value)
    if kind == "shoot":
        return _check_shot(op, value)
    if kind in ("det_ratio", "det_ratio_skew"):
        return _check_ratio(op, value, ops, done, kind == "det_ratio_skew")
    if kind in ("zeta_full", "zeta_skew"):
        return _check_zeta_sum(op, value, ops, done)
    if kind == "zeta_from_det":
        return _check_zeta_from_det(op, value)
    if kind == "improper_action":
        N, M, _, v, _ = op["spec"]
        closed = actions.binomial_action(1.0, v, N, M).value
        gap = abs(value.value - closed) / max(1.0, abs(closed))
        return gap <= 1e-6, gap
    if kind == "binomial_action":
        gap = _rel(value.value, -op["v"] ** 1.5 / 3.0)
        return gap <= 1e-12, gap
    if kind == "asymptotic_total":
        closed = actions.trinomial_action_asymptotic(op["N"], op["M"], op["v"], op["lam"])
        gap = abs(value - closed) / max(1.0, abs(closed))
        return gap <= 1e-12, gap
    if kind == "enumerate_poles":
        return _check_poles(op, value)
    if kind == "predict_Z1":
        return _check_z1(op, value)
    if kind == "predict_det_ratio_g":
        gap = _rel(value, -2.0 / (3.0 * op["g"]))
        return gap <= 1e-10, gap
    raise ValueError(f"no check for {kind!r}")
