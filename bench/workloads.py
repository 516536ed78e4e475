"""Seeded inputs of the three workloads.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  The program sees only the generated
inputs; the same seed gives the same inputs.

* ``paper``: the CLI as the paper's reader runs it, one fresh interpreter per
  job.  ``verify`` for N = 4 and N = 6 on two couplings near 1e-2 and 1e-3,
  then ``fig2`` for both families on the smaller coupling, so that fig2 must
  reproduce the verify measurements from another process.
* ``routes``: the independent-route cross-check of spectrum and shooting on a
  pure sextic and a quartic-plus-quadratic, 256 levels each.
* ``determinants``: the determinant half of ``measure_point`` on four small-g
  Symanzik partners (no eigen solve), then a stream of interactive queries
  on the light modules.

The seed moves values, not the mix: couplings are jittered by a few per cent
around fixed points (or not at all, where a 1% move can change the cost by
half), because the solvers' cost moves in steps with the mesh
and the stencil count and grows steeply with the coupling, and free draws
would make the spread between runs a matter of where a seed lands.

Every operation is one request, numbered by its place in the list.  An
operation marked ``repeat`` is one the program keeps no cache for, so a timed
pass may run it again in the same interpreter and do the same work
(``timed_ops``); every other operation runs once per interpreter.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

REFS_PATH = Path(__file__).with_name("refs.json")
QUERY_REPEATS = 3   # runs of the determinants query stream in one timed pass

# Symanzik partners q^N + v q^2 of q^2 + g q^N, with v and the zetas stored
# in refs.json.  The couplings are fixed: zeta_from_det halves its stencil a
# data-dependent number of times, so a coupling moved by 0.5% can cost 60%
# more, and a seeded coupling would make the spread between runs a matter of
# luck.  The seed drives the query stream.
PARTNERS = ((4, 3e-4), (4, 1e-4), (6, 1e-4), (6, 1e-5))


def _jitter(rng: random.Random, x: float) -> float:
    """x moved by up to 5% either way."""
    return x * 10.0 ** rng.uniform(-0.02, 0.02)


def _design(rng: random.Random | None, lo: float, hi: float, k: int,
            log: bool = True) -> list[float]:
    """k points at the centres of k equal (logarithmic) slices of [lo, hi],
    each moved by up to 1% of a slice (not moved when ``rng`` is None).

    The shooting cost grows steeply with the coupling (as q_max^(N/2+1)), so
    free draws would make a run's time depend on whether a seed lands near
    the top of the range; a jittered design keeps the mix the same."""
    points = []
    for i in range(k):
        x = (i + 0.5 + (rng.uniform(-0.01, 0.01) if rng else 0.0)) / k
        points.append(lo * (hi / lo) ** x if log else lo + (hi - lo) * x)
    return points


def paper(seed: int) -> list[dict]:
    """Three CLI jobs; each runs in its own interpreter and its own directory."""
    rng = random.Random(seed)
    g_hi, g_lo = _jitter(rng, 1e-2), _jitter(rng, 1e-3)
    grid = f"{g_hi!r},{g_lo!r}"
    return [
        {"name": "verify4", "group": "verify", "argv": ["verify", "--N", "4", "--grid", grid]},
        {"name": "verify6", "group": "verify", "argv": ["verify", "--N", "6", "--grid", grid]},
        {"name": "fig2", "group": "fig2",
         "argv": ["fig2", "--families", "4,6", "--grid", repr(g_lo), "--outdir", "."]},
    ]


def _spec(N, M, u, v, lam=0.0):
    return [N, M, u, v, lam]


def routes(seed: int) -> list[dict]:
    """Spectrum, product ratios, shots and zetas on two potentials.

    One lambda is drawn low and one high in [0.25, 2.5]; the route gap grows
    with lambda, so the smallest accuracy of a run comes from the high one.
    """
    rng = random.Random(seed)
    potentials = (("sextic", _spec(6, 0, _jitter(rng, 1.0), 0.0)),
                  ("quartic", _spec(4, 2, 1.0, _jitter(rng, 1.0))))
    ops = []
    for name, spec in potentials:
        lams = (rng.uniform(0.25, 1.0), rng.uniform(1.75, 2.5))
        ops.append({"kind": "eigenvalues", "spec": spec})
        ops.append({"kind": "shoot", "spec": spec, "shift": 0.0})
        for lam in lams:
            ops.append({"kind": "shoot", "spec": spec, "shift": lam})
        for lam in lams:
            ops.append({"kind": "det_ratio", "spec": spec, "shift": lam})
            ops.append({"kind": "det_ratio_skew", "spec": spec, "shift": lam})
        ops.append({"kind": "zeta_full", "spec": spec, "s": 2})
        ops.append({"kind": "zeta_skew", "spec": spec, "s": 1})
        ops.append({"kind": "zeta_skew", "spec": spec, "s": 2})
        for op in ops:
            op.setdefault("group", name)
    return ops


def determinants(seed: int) -> list[dict]:
    rng = random.Random(seed)
    refs = json.loads(REFS_PATH.read_text())
    ops = []
    for N, g in PARTNERS:
        ref = refs[f"{N} {g!r}"]
        spec = _spec(N, 2, 1.0, ref["v"])
        group = f"partner N={N} g={g:.3g}"
        for s, skew, key in ((1, False, "z1"), (1, True, "zp1"), (2, False, "z2")):
            ops.append({"kind": "zeta_from_det", "spec": spec, "s": s, "skew": skew,
                        "ref": ref[key], "group": group})
        ops.append({"kind": "shoot", "spec": spec, "shift": 0.0,
                    "ref": [ref["log_full"], ref["log_skew"]], "group": group})

    # Every kind and shape of query appears the same number of times in every
    # seed, so seeds differ in values and order but not in the mix; shots are
    # the majority, so the median request is a shot rather than a
    # sub-millisecond closed form.  The anharmonic shots sit on the design's
    # centres, like the partners: the cost of some of them jumps by half or
    # more when v and the shift move by 1% (q^4 + v q^2 near v = 8.8,
    # q^8 + v near v = 28), and seeded values would put a request near the
    # tail on either side of that step.
    queries = []
    shots = list(zip(_design(None, 0.5, 50.0, 4), _design(None, 0.0, 5.0, 4, log=False)))
    for N in (4, 6, 8):
        for M in range(0, N, 2):
            for v, shift in shots:
                queries.append({"kind": "shoot", "spec": _spec(N, M, 1.0, v), "shift": shift})
    for w, shift in zip(_design(rng, 0.5, 2.0, 4), _design(rng, 0.0, 5.0, 4, log=False)):
        queries.append({"kind": "shoot", "spec": _spec(2, 0, w, 0.0), "shift": shift,
                        "harmonic": True})
    queries.append({"kind": "zeta_from_det", "spec": _spec(2, 0, 1.0, 0.0), "s": 1,
                    "skew": True, "exact": math.pi / 4.0})
    queries.append({"kind": "zeta_from_det", "spec": _spec(2, 0, 1.0, 0.0), "s": 2,
                    "skew": False, "exact": math.pi**2 / 8.0})
    for (N, M), v in zip(((4, 2), (6, 4), (6, 2), (4, 2)), _design(rng, 0.5, 2.0, 4)):
        queries.append({"kind": "improper_action", "spec": _spec(N, M, 1.0, v)})
    for v in _design(rng, 0.5, 2.0, 2):
        queries.append({"kind": "binomial_action", "v": v})
    for i, (N, M) in enumerate(((4, 2), (6, 2), (8, 4), (10, 4))):
        queries.append({"kind": "asymptotic_total", "N": N, "M": M, "v": rng.uniform(0.5, 2.0),
                        "lam": rng.uniform(0.5, 2.0) if i % 2 else 0.0})
    for N in (6, 10):
        queries.append({"kind": "enumerate_poles", "N": N, "M": rng.randrange(2, N, 2)})
    for N, g in zip((4, 6), _design(rng, 1e-5, 1e-1, 2)):
        queries.append({"kind": "predict_Z1", "N": N, "g": g})
    for g in _design(rng, 1e-5, 1e-1, 2):
        queries.append({"kind": "predict_det_ratio_g", "g": g})
    rng.shuffle(queries)
    for q in queries:
        q["group"] = "queries"
        # zeta_from_det reads its shots through the program's cache
        q["repeat"] = q["kind"] != "zeta_from_det"
    return ops + queries


def numbered(ops: list[dict]) -> list[dict]:
    """The operations with their request numbers."""
    return [dict(op, request=i) for i, op in enumerate(ops)]


def timed_ops(ops: list[dict]) -> list[dict]:
    """One timed pass: every operation, then the repeatable ones again
    ``QUERY_REPEATS - 1`` times in the same order."""
    again = [op for op in ops if op.get("repeat")]
    return ops + again * (QUERY_REPEATS - 1)


WORKLOADS = {"paper": paper, "routes": routes, "determinants": determinants}
