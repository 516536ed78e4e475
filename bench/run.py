"""Benchmark of oscdet: three seeded workloads, timed end to end and per layer.

    python3 bench/run.py --workload {paper,routes,determinants} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
Every timed pass starts in fresh interpreters, so the package's process-wide
caches start cold, as a user's do.  With ``--trace 0`` the run makes as many
passes as fit in ``--seconds`` at the workload's nominal pass length (at
least one), and the end-to-end metrics are printed, every request timed at
its mean over its runs.
With ``--trace 1`` the run makes one untraced and one traced pass on the same
inputs and prints the per-layer metrics; the traced CLI outputs must equal
the untraced ones byte for byte.

Each metric is printed on its own line with its unit, then the machine
record, then one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record, with every operation and (traced) every span,
goes to ``.bench_run/<workload>-seed<seed>-trace<t>/``.  See README.md in
this directory for the definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import paper
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RUN_LIMIT_S = 170.0    # every run ends well inside the 180 s a run may take
SETUP_PROBES = 4       # extra interpreters that only import oscdet.cli
DIGITS_CAP = 16.0      # -log10 of a relative gap below double precision
# Length of one timed pass on a 2-core Xeon, rounded up: the number of passes
# is fixed by --seconds alone, so it does not change with the host's speed.
PASS_S = {"paper": 30.0, "routes": 26.0, "determinants": 20.0}


class Run:
    """Spawns the worker interpreters of one benchmark run."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.setup: list[float] = []
        self.rss: list[float] = []

    def spawn(self, job: dict, jobdir: Path):
        """Run one worker in ``jobdir``; return its result, or None."""
        jobdir.mkdir(parents=True)
        (jobdir / "job.json").write_text(json.dumps(job))
        with open(jobdir / "stdout", "wb") as out, open(jobdir / "stderr", "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen([sys.executable, str(WORKER), "job.json", "result.json"],
                                    cwd=jobdir, stdout=out, stderr=err)
            try:
                proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                return None
        try:
            result = json.loads((jobdir / "result.json").read_text())
        except (OSError, ValueError):
            return None
        self.setup.append(result["ready"] - spawned)
        self.rss.append(result["rss_mb"])
        return result

    def probe_setup(self, count: int = 1):
        for _ in range(count):
            self.spawn({"ops": []}, self.workdir / f"probe{len(self.setup)}")


def library_pass(run: Run, ops: list[dict], passdir: Path, trace: bool) -> dict:
    """One interpreter runs every operation; it checks each itself."""
    result = run.spawn({"ops": ops, "trace": trace}, passdir)
    if result is None:
        records = [{"latency": math.nan, "ok": False, "gap": None, "error": "worker died"}
                   for _ in ops]
        spans = []
    else:
        records, spans = result["ops"], [result["spans"]]
    for op, rec in zip(ops, records):
        rec["request"] = op["request"]
        rec["group"] = op["group"]
        rec["kind"] = op["kind"]
        rec["passed"] = rec["ok"] and rec["error"] is None
    return {"ops": records, "spans": spans, "output_bytes": 0}


def run_pass(run: Run, workload: str, inputs, passdir: Path, trace: bool) -> dict:
    if workload == "paper":
        return paper.run_pass(run, inputs, passdir, trace)
    return library_pass(run, inputs, passdir, trace)


def _digits(gap: float) -> float:
    return min(DIGITS_CAP, -math.log10(gap)) if gap > 0.0 else DIGITS_CAP


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it
    (nearest rank); the maximum when there are fewer than eleven samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    rank = n - 10
    return ordered[rank - 1], 100.0 * rank / n, n


def _pass_times(workload: str, ops: list[dict]):
    """Verification units, the fig2 figure, request latencies and wall time
    of one pass, from one record per operation.  A request is what the
    workload's client waits for: a CLI job on paper, one potential's whole
    cross-check on routes, one library call on determinants."""
    groups: dict[str, float] = {}
    for rec in ops:
        groups[rec["group"]] = groups.get(rec["group"], 0.0) + rec["latency"]
    if workload == "paper":
        verify = [t for g, t in groups.items() if g.startswith("verify")]
        fig2 = groups["fig2"]
        requests = [rec["latency"] for rec in ops]
    elif workload == "routes":
        verify = requests = list(groups.values())
        fig2 = max(groups.values())
    else:
        # the partners' determinant halves together: the short N=6 ones alone
        # would read the machine's jitter more than the program
        verify = [sum(t for g, t in groups.items() if g.startswith("partner"))]
        fig2 = groups["queries"]
        requests = [rec["latency"] for rec in ops]
    return verify, fig2, requests, sum(groups.values())


def folded(ops: list[dict]) -> list[dict]:
    """One record per request, with the mean latency of its runs."""
    runs: dict[int, list[dict]] = {}
    for rec in ops:
        runs.setdefault(rec["request"], []).append(rec)
    return [dict(recs[0], latency=statistics.fmean(r["latency"] for r in recs))
            for _, recs in sorted(runs.items())]


def end_to_end(workload: str, passes: list[dict], run: Run) -> tuple[dict, list[str]]:
    """Every timing is computed over the requests, each at its mean latency
    over its runs in the run.  Runs of one request are spread over the run, so
    the mean averages over the host's changes of speed; a median over single
    runs of short requests would flip with the speed that held for most of
    the run."""
    ops = [rec for p in passes for rec in p["ops"]]
    verify, fig2, requests, wall = _pass_times(workload, folded(ops))
    op_tail, pct, n = tail(requests)
    if workload == "paper":
        gaps = [gap for rec in ops for gap in rec.get("limit_gaps", [])]
    else:
        gaps = [rec["gap"] for rec in ops if rec["gap"] is not None]
    passed = sum(rec["passed"] for rec in ops)
    metrics = {
        "setup_s": (statistics.median(run.setup), "s"),
        "wall_s": (wall, "s"),
        "verify_s": (statistics.median(verify), "s"),
        "fig2_s": (fig2, "s"),
        "op_p50_s": (statistics.median(requests), "s"),
        "op_tail_s": (op_tail, "s"),
        "peak_rss_mb": (max(run.rss), "MB"),
        "accuracy_digits": (min(_digits(g) for g in gaps) if gaps else math.nan, "digits"),
        "ops_passed": (passed / len(ops), "ratio"),
    }
    notes = [f"setup_s over {len(run.setup)} interpreters; {len(passes)} pass(es) ran "
             f"{len(ops)} operations, each distinct one timed at its mean",
             f"op_tail_s is p{pct:.1f} of {n} requests",
             f"ops_passed {passed}/{len(ops)}; ops_failed {len(ops) - passed}/{len(ops)}"]
    notes += [f"not passed: {rec['group']} {rec['kind']} {rec.get('why', '')}".rstrip()
              for rec in ops if not rec["passed"]]
    return metrics, notes


def per_layer(untraced: dict, traced: dict) -> tuple[dict, list[str]]:
    values, layer_self = tracer.summarize(traced["spans"])
    units = {}
    for name in values:
        kind = name.rsplit(".", 1)[-1]
        units[name] = {"self_s": "s", "err_over_tol_max": "ratio",
                       "shots_per_call": "shots/call"}.get(kind, "count")
    gaps = [rec["gap"] for rec in traced["ops"]
            if rec.get("kind") in ("det_ratio", "det_ratio_skew") and rec["gap"] is not None]
    wall = [sum(rec["latency"] for rec in p["ops"]) for p in (untraced, traced)]
    extra = {"spectral.route_gap_max": (max(gaps, default=0.0), "ratio"),
             "cli.output_bytes": (traced["output_bytes"], "bytes"),
             "trace.overhead_s": (wall[1] - wall[0], "s")}
    metrics = {name: (value, units[name]) for name, value in values.items()}
    metrics.update(extra)
    total = sum(layer_self.values())
    notes = ["self time by layer: " + ", ".join(
        f"{layer} {t:.3f} s ({100.0 * t / total:.1f}%)"
        for layer, t in sorted(layer_self.items(), key=lambda kv: -kv[1]))] if total else []
    return metrics, notes


def machine(seed: int) -> dict:
    import numpy   # only for its build record; the program imports its own copy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "blas": blas, "cpu": cpu, "seed": seed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "oscdet" / "cli.py").is_file():
        print(f"bench: no oscdet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_run" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    inputs = workloads.numbered(workloads.WORKLOADS[args.workload](args.seed))
    run = Run(workdir)

    passes = []
    if args.trace:
        run.probe_setup(SETUP_PROBES)
        untraced = run_pass(run, args.workload, inputs, workdir / "untraced", False)
        traced = run_pass(run, args.workload, inputs, workdir / "traced", True)
        if args.workload == "paper":
            paper.compare_outputs(untraced, traced)
        passes = [untraced, traced]
        metrics, notes = per_layer(untraced, traced)
        (workdir / "spans.json").write_text(json.dumps(traced["spans"]))
    else:
        # set-up probes go between the passes, so that they sample the host's
        # speed across the run, not at one moment
        count = max(1, int(args.seconds // PASS_S[args.workload]))
        timed = workloads.timed_ops(inputs)
        for i in range(count):
            run.probe_setup()
            passes.append(run_pass(run, args.workload, timed, workdir / f"pass{i}", False))
        run.probe_setup(max(1, SETUP_PROBES - count))
        metrics, notes = end_to_end(args.workload, passes, run)

    ops = [rec for p in passes for rec in p["ops"]]
    failed = sum(1 for rec in ops if not rec["ok"] or rec["error"] is not None)
    record = {"workload": args.workload, "trace": args.trace, "machine": machine(args.seed),
              "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                          for k, (v, u) in metrics.items()},
              "notes": notes, "ops": ops}
    (workdir / "record.json").write_text(json.dumps(record, indent=1))

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for note in notes:
        print(f"# {note}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
