"""One benchmark interpreter: import oscdet, run one job, write its result.

    python3 bench/worker.py JOB.json RESULT.json

``JOB.json`` holds either ``{"argv": [...]}``, a CLI job that calls
``oscdet.cli.main(argv)`` with the real standard output (the caller redirects
it to a file), or ``{"ops": [...]}``, library operations from
``workloads.py``.  With ``"trace": true`` the layer entry points are wrapped
and every span is written to the result.

The result carries ``ready``, the ``time.monotonic()`` reading once
``oscdet.cli`` is imported; the caller subtracts its own reading taken just
before the spawn (both read the system-wide monotonic clock), which gives the
set-up time.  Exceptions are caught per operation and reported, so one
failing operation does not end the job.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oscdet.cli  # noqa: E402  (timed: this import is the program's set-up)

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from tracer import Tracer  # noqa: E402


def _run_cli(job, tracer):
    error = None
    with tracer.operation(0):
        start = time.perf_counter()
        try:
            code = oscdet.cli.main(job["argv"])
        except SystemExit as exc:   # argparse and the usage errors exit this way
            code = exc.code
        except Exception:
            code, error = None, traceback.format_exc(limit=4)
        latency = time.perf_counter() - start
    sys.stdout.flush()
    return [{"latency": latency, "exit": code, "error": error}]


def _run_ops(job, tracer):
    import ops as library   # imported after READY: the benchmark's own code

    results, done = [], {}
    for i, op in enumerate(job["ops"]):
        record = {"ok": False, "gap": None, "error": None}
        with tracer.operation(i):
            start = time.perf_counter()
            try:
                value = library.execute(op)
            except Exception:
                value, record["error"] = None, traceback.format_exc(limit=4)
            record["latency"] = time.perf_counter() - start
        if record["error"] is None:
            done[i] = value
            with tracer.paused():
                try:
                    ok, gap = library.check(op, value, job["ops"], done)
                    record["ok"], record["gap"] = bool(ok), None if gap is None else float(gap)
                except Exception:
                    record["error"] = traceback.format_exc(limit=4)
        results.append(record)
    return results


def main(job_path, result_path):
    job = json.loads(Path(job_path).read_text())
    if Path(oscdet.cli.__file__).resolve().parent != ROOT / "src" / "oscdet":
        sys.exit(f"oscdet imported from {oscdet.cli.__file__}, not from this checkout")
    tracer = Tracer()
    if job.get("trace"):
        tracer.install()
    results = _run_cli(job, tracer) if "argv" in job else _run_ops(job, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(result_path).write_text(json.dumps(
        {"ready": READY, "rss_mb": rss_mb, "ops": results, "spans": tracer.spans}))


if __name__ == "__main__":
    main(*sys.argv[1:3])
