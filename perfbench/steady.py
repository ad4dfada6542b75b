"""Steadiness of the end-to-end metrics across seeds.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--seed0 1000]

Runs the benchmark command of BENCHMARK.json once per seed (seed0,
seed0+1, ...), one run at a time, and prints for every end-to-end metric
the median, the quartiles (statistics.quantiles(values, n=4)) and the
spread (q3 - q1) / median next to the metric's bound.  The bounds in
BENCHMARK.json are set from this output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1000)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    values: dict[str, list[float]] = {}
    shares = set()
    for k in range(args.runs):
        seed = args.seed0 + k
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add((result["failed"], result["attempted"]) if result["failed"] else 0)
        line = " ".join(f"{m}={v['value']:.4g}" for m, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']} {line}", flush=True)
        for m, v in result["metrics"].items():
            values.setdefault(m, []).append(v["value"])
    print(f"\n{args.workload}: {args.runs} runs of {seconds} s; failed shares seen: {sorted(map(str, shares))}")
    print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}  ok(<bound/3)")
    for spec in bench["end_to_end"]:
        vals = values.get(spec["name"], [])
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        ok = spread < spec["bound"] / 3
        print(f"{spec['name']:<14}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}{spread:>9.3f}{spec['bound']:>8.2f}  {'yes' if ok else 'NO'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
