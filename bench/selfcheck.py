"""The benchmark's own tests.

    python3 bench/selfcheck.py

Runs each workload traced (seed 7), plus one short untraced run, and checks:

* the printed metrics are exactly those listed in BENCHMARK.json, with units;
* every traced function records a call on the workload that exercises it,
  ``spectrum.eigenvalues`` never runs on ``determinants`` and
  ``spectral.zeta_from_det`` never runs on ``routes``;
* the layer split: spectrum has the largest self time on ``paper`` and
  ``routes``, the shooting subtree on ``determinants``;
* traced CLI outputs are byte-identical to untraced ones, and ``paper``
  passes 2 of 3 jobs, the N=6 verify failing only ``slope_trend``;
* in a directory holding only BENCHMARK.json and bench/, the benchmark exits
  non-zero without printing a result.

Exits 1 on the first failed check.  Takes about three minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

EXERCISED = {
    "routes": ("spectrum.eigenvalues", "spectrum.bs_level", "spectral.det_ratio",
               "spectral.det_ratio_skew", "spectral.shooting_det", "spectral.zeta_full",
               "spectral.zeta_skew"),
    "paper": ("spectrum.eigenvalues", "spectral.shooting_det", "spectral.zeta_from_det",
              "spectral.zeta_full", "spectral.zeta_skew", "predictions.measure_point",
              "predictions.verify", "cli.main"),
    "determinants": ("spectral.shooting_det", "spectral.zeta_from_det", "actions.adaptive_tail",
                     "actions.improper_action", "potential.beta_coefficients",
                     "special_functions.log_gamma", "special_functions.digamma",
                     "mellin.enumerate_poles", "mellin.asymptotic_total"),
}
NEVER = {"determinants": "spectrum.eigenvalues", "routes": "spectral.zeta_from_det"}


def check(condition, what):
    print(("ok   " if condition else "FAIL ") + what, flush=True)
    if not condition:
        sys.exit(1)


def bench(workload, trace, cwd=ROOT, seconds=1):
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=200)


def expect_metrics(result, kind):
    out = json.loads(result.stdout.strip().splitlines()[-1])
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    check(got == want, f"{kind} metrics and units match BENCHMARK.json")
    check(out["correct"] and out["failed"] == 0, f"every gate passed ({out['attempted']} operations)")
    return out


def shooting_share(processes):
    """Self time inside shooting_det subtrees, and per layer outside them."""
    inside, outside = 0.0, {}
    for spans in processes:
        covered = [0.0] * len(spans)
        for _, start, end, parent, *_ in spans:
            if parent >= 0:
                covered[parent] += end - start
        under = [False] * len(spans)
        for i, (name, start, end, parent, *_) in enumerate(spans):
            under[i] = name == "spectral.shooting_det" or (parent >= 0 and under[parent])
            self_time = end - start - covered[i]
            if under[i]:
                inside += self_time
            else:
                layer = name.split(".")[0]
                outside[layer] = outside.get(layer, 0.0) + self_time
    return inside, outside


def main():
    result = bench("determinants", 0)
    expect_metrics(result, "end_to_end")

    for workload in ("paper", "routes", "determinants"):
        print(f"-- {workload}, traced", flush=True)
        out = expect_metrics(bench(workload, 1), "per_layer")
        workdir = ROOT / ".bench_run" / f"{workload}-seed7-trace1"
        processes = json.loads((workdir / "spans.json").read_text())
        calls = {}
        for spans in processes:
            for span in spans:
                calls[span[0]] = calls.get(span[0], 0) + 1
        for name in EXERCISED[workload]:
            check(calls.get(name, 0) > 0, f"{name} is called ({calls.get(name, 0)})")
        if workload in NEVER:
            name = NEVER[workload]
            check(out["metrics"][f"{name}.calls"]["value"] == 0, f"{name} is never called")
        _, layer_self = tracer.summarize(processes)
        if workload == "determinants":
            inside, outside = shooting_share(processes)
            check(inside > max(outside.values()),
                  f"shooting subtree {inside:.2f} s is the largest share (others {outside})")
        else:
            top = max(layer_self, key=layer_self.get)
            check(top == "spectrum", f"spectrum has the largest self time ({layer_self})")
        if workload == "paper":
            for job in ("verify4", "verify6", "fig2"):
                a, b = workdir / "untraced" / job, workdir / "traced" / job
                names = sorted(p.name for p in a.iterdir() if p.name not in ("job.json", "result.json"))
                same = all((a / n).read_bytes() == (b / n).read_bytes() for n in names)
                check(same, f"{job}: traced outputs equal untraced ({', '.join(names)})")
            ops = json.loads((workdir / "record.json").read_text())["ops"]
            passed = [op["group"] for op in ops if op["passed"]]
            check(passed == ["verify4", "fig2"] * 2, f"paper passes 2 of 3 jobs per pass: {passed}")
            check(all("slope_trend" in op["why"] for op in ops if op["group"] == "verify6"),
                  "verify --N 6 fails only slope_trend")

    bare = ROOT / ".bench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    result = bench("paper", 0, cwd=bare)
    check(result.returncode != 0 and not result.stdout.strip(),
          f"without the program: exit {result.returncode}, no result printed")
    shutil.rmtree(bare)


if __name__ == "__main__":
    main()
