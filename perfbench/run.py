"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
./src.  One process, one job at a time (closed loop, one client).  Set-up
(import of tamechain, generating or loading the round of jobs, one
warm-up job) is repeated SETUPS times and its median reported as
`setup_s`.  The timed phase then runs whole rounds of the same jobs until
S seconds have passed; a garbage collection precedes every round.
The first execution of every job in the run has
its output checked; later executions must reproduce it exactly.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1, per round of jobs; the traced run also writes
the spans of its first round to .perfbench/trace-<workload>-<seed>.json).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = 3
# Per job, the layers' self times plus the benchmark's own must add up to
# the job's wall time within this share (they differ only by rounding).
GAP_TOLERANCE = 1e-6


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith(("bytes_in", "bytes_out")):
        return "B"
    return "1/s" if key.endswith("jobs_per_s") else "count"


def fresh_import():
    """Import tamechain from ./src, dropping any earlier import first."""
    for name in [m for m in sys.modules if m == "tamechain" or m.startswith("tamechain.")]:
        del sys.modules[name]
    tc = importlib.import_module("tamechain")
    for layer in ("field", "posets", "functors", "chains", "morphisms", "interchange", "cli"):
        importlib.import_module(f"tamechain.{layer}")
    if Path(tc.__file__).resolve().parent != SRC / "tamechain":
        raise ImportError(f"tamechain was imported from {tc.__file__}, not from {SRC}")
    return tc


def fingerprint(wl, output):
    fp = getattr(wl, "fingerprint", None)
    return fp(output) if fp else output


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "tamechain" / "__init__.py").is_file():
        print(f"no tamechain sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (the benchmark's own dependency; not part of set-up)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)

    errors: list[str] = []  # failed output checks
    failures: list[str] = []  # operations that raised or exited non-zero
    setup_times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        tc = fresh_import()
        jobs = wl.setup(tc)
        warm = wl.run(tc, jobs[0])
        setup_times.append(time.perf_counter() - t0)
    errors += wl.check(jobs[0], warm)

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    trace_path = Path.cwd() / ".perfbench" / f"trace-{args.workload}-{args.seed}.json"
    layer_rounds: list[dict] = []
    gap = 0.0
    first: dict[int, object] = {}
    latencies: list[float] = []
    round_times: list[float] = []
    attempted = rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < args.seconds:
        gc.collect()  # every round starts from the same heap state
        done = len(latencies)
        for i, job in enumerate(jobs):
            attempted += 1
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = wl.run(tc, job)
                else:
                    tracer.current_job = attempted - 1
                    out = tracer.span("bench.job", wl.run, tc, job, tracer)
            except Exception as exc:  # a failed operation is counted, not fatal
                failures.append(f"job {i}: {type(exc).__name__}: {exc}")
                continue
            finally:
                if tracer is not None:
                    tracer.current_job = -1
            latencies.append(time.perf_counter() - t0)
            if i not in first:
                first[i] = fingerprint(wl, out)
                errors += [f"job {i}: {e}" for e in wl.check(job, out)]
            elif fingerprint(wl, out) != first[i]:
                errors.append(f"job {i}: output differs from its first execution")
            out = None
        if len(latencies) - done == len(jobs):
            round_times.append(sum(latencies[done:]))
        if tracer is not None:
            if rounds == 0:
                trace_path.parent.mkdir(exist_ok=True)
                tracer.write(trace_path)
            metrics, round_gap = tracer.layer_metrics()
            layer_rounds.append(metrics)
            gap = max(gap, round_gap)
            tracer.clear()
        rounds += 1

    for e in (failures + errors)[:20]:
        print("check:", e, file=sys.stderr)
    ok = len(latencies)
    # A round's jobs over the time they took, median over the rounds: one
    # burst of machine noise moves one round, not the figure.
    jobs_per_s = len(jobs) / statistics.median(round_times) if round_times else 0.0
    if tracer is None:
        lat_ms = [1000.0 * t for t in latencies] or [0.0]
        q = statistics.quantiles(lat_ms, n=10, method="inclusive") if ok > 1 else lat_ms * 9
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "jobs_per_s": {"value": jobs_per_s, "unit": "1/s"},
            "job_ms_p50": {"value": statistics.median(lat_ms), "unit": "ms"},
            "job_ms_p90": {"value": q[8], "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
        }
    else:
        tracer.uninstall()
        if gap > GAP_TOLERANCE:
            errors.append(f"self times miss a job's wall time by {gap:.2e} of it")
        # Per round: counts repeat exactly from round to round; times are averaged.
        layer = {key: statistics.fmean(m[key] for m in layer_rounds) for key in layer_rounds[0]}
        layer["trace.jobs_per_s"] = jobs_per_s
        metrics = {key: {"value": value, "unit": _unit(key)} for key, value in layer.items()}
    correct = not errors and ok > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
