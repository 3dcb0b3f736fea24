"""Steadiness check and baseline record.

Runs the benchmark untraced once per seed 1-10 on each workload, for
BENCHMARK.json's ``run_seconds``, and reports for every end-to-end metric the
median and the spread, the distance between the first and third quartile as
a share of the median.  It exits 1 if any spread exceeds its metric's bound.
Run from the root of a checkout:

    python3 perfbench/steady.py --out perfbench/baseline.json

Each run is a separate process, one after another, like the runs that
compare two commits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SEEDS = range(1, 11)


def spread(values: list[float]) -> float:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", help="write the record here as JSON")
    args = ap.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, *bench["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: incorrect result")
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            print(f"{workload} seed={seed} run_s={time.perf_counter() - t0:.1f} "
                  + " ".join(f"{k}={v:.5g}" for k, v in runs[-1].items()), flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            s = spread(values)
            summary[name] = {"median": statistics.median(values), "spread": s,
                             "bound": bound, "values": values}
            steady &= s <= bound
            verdict = "WIDE" if s > bound else "ok" if s > bound / 3 else "steady"
            print(f"  {workload} {name}: median={summary[name]['median']:.5g} "
                  f"spread={s:.4f} bound={bound} {verdict}", flush=True)
        record["workloads"][workload] = summary
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
