"""nervelab benchmark: one workload, one process, one closed-loop caller.

Run from the root of a checkout:

    python3 perfbench/run.py --workload nerve2 --seed 1 --seconds 20 --trace 0

The workload's job list is built from the seed and set up once (import,
inputs, references, one warm-up job), then run pass after pass, each job
starting when the previous one finished, until ``--seconds`` have gone by
and enough jobs have run for the tail percentile.  ``setup_s`` is the median
of this set-up and of the same set-up made in SETUP_CHILDREN fresh child
processes, so every sample imports nervelab cold and the measuring process
holds one copy of the library.  Every time is reported at the reference
speed: a fixed calibration loop runs between jobs, and each job's time is
scaled by CAL_REF_S over the loop's time next to it (see ``Clock``).  Every
output is checked against its reference outside the timed region.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
run whose library calls are wrapped in spans.  The last line of stdout is
the JSON result; a readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_CHILDREN = 8
SPANS_DIR = ".perfbench-out"
UNTRACED_SHARE = 0.25   # of a traced run's seconds
CAL_REF_S = 0.0015      # calibration_loop() on the baseline machine at its fast speed
SETUP_CAL_REPS = 5      # calibration loops before and after each set-up

END_TO_END_UNITS = {
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "setup_s": "s",
}


def checkout_root() -> Path:
    """The checkout the benchmark runs in: the working directory, which must
    hold the library's sources and the CLI goldens."""
    root = Path.cwd()
    needed = [root / "src" / "nervelab" / "__init__.py", root / "tests" / "cli_cases.py",
              root / "tests" / "golden"]
    missing = [str(p.relative_to(root)) for p in needed if not p.exists()]
    if missing:
        raise SystemExit(f"perfbench: not a nervelab checkout, missing {', '.join(missing)}")
    return root


def load_library(root: Path):
    """Import nervelab and every submodule from ``root/src``."""
    pkg = importlib.import_module("nervelab")
    if Path(pkg.__file__).resolve().parent != (root / "src" / "nervelab").resolve():
        raise SystemExit(f"perfbench: nervelab imported from {pkg.__file__}, not from the checkout")
    mods = {name: importlib.import_module(f"nervelab.{name}") for name in
            ("cli", "serialize", "simplicial", "cat", "twocat", "subdivision",
             "presentations", "lifting", "homology", "localizer", "corpus")}
    return argparse.Namespace(**mods)


def calibration_loop() -> int:
    """Fixed pure-Python work of the kind the library's searches do: tuples,
    dict lookups and a sort.  It does not touch nervelab."""
    counts: dict[tuple[int, int, int], int] = {}
    for i in range(4000):
        key = (i % 7, i % 11, i % 13)
        counts[key] = counts.get(key, 0) + 1
    return len(sorted(counts.items()))


def calibrate() -> float:
    """Seconds one calibration loop takes now."""
    t0 = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - t0


class Clock:
    """Times jobs at the reference speed.

    The shared virtual CPUs the benchmark runs on change speed by up to
    twofold, within a second and from one minute to the next, whatever runs
    on them.  Raw job times follow that speed, so a metric would move by
    more than any bound between two sets of runs of the same code.  A clock
    times the calibration loop before the first job and after every job,
    and reports a job's time scaled by CAL_REF_S over the mean of the two
    loops on either side of it: the time the job would take on the baseline
    machine at its fast speed.  A change to nervelab moves the job times and
    not the loop, so it moves the scaled times by the same share."""

    def __init__(self):
        self.last_cal = calibrate()

    def scaled(self, raw_s: float) -> float:
        """The scaled time of a job that took ``raw_s`` and ended just now."""
        cal = calibrate()
        speed = (self.last_cal + cal) / 2
        self.last_cal = cal
        return raw_s * CAL_REF_S / speed


def set_up(workloads, name: str, seed: int, root: Path):
    """Import, build inputs and references, run the warm-up job; return the
    workload and the time all that took, scaled like a job's time by the
    median calibration loop of SETUP_CAL_REPS before and as many after."""
    cals = [calibrate() for _ in range(SETUP_CAL_REPS)]
    t0 = time.perf_counter()
    nl = load_library(root)
    wl = workloads.build(name, nl, seed, root)
    warm = wl.jobs[wl.warmup]
    if not warm.check(warm.run()):
        raise SystemExit(f"perfbench: warm-up job {warm.kind} failed its check")
    raw_s = time.perf_counter() - t0
    cals += [calibrate() for _ in range(SETUP_CAL_REPS)]
    return wl, raw_s * CAL_REF_S / statistics.median(cals)


def child_setup_times(name: str, seed: int) -> list[float]:
    """The same set-up, each in a fresh process run to its end in turn."""
    times = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", "0", "--setup-only"],
            capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up in a child process failed\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


class Runner:
    """Runs passes over the job list and tallies failures."""

    def __init__(self, wl, reference: list[str] | None = None, tracer=None):
        self.wl = wl
        self.reference = reference
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.job_times: list[float] = []
        self.times_of_job: list[list[float]] = [[] for _ in wl.jobs]
        self.pass_walls: list[float] = []
        self.failures: list[str] = []

    def one_pass(self) -> list[str | None]:
        """Run every job once; return each output's digest (None if it raised).
        Only the jobs are timed, at the reference speed; each check runs
        right after its job, so a pass never holds more than one output."""
        jobs = self.wl.jobs
        order = list(range(len(jobs)))
        if self.wl.shuffle is not None:
            self.wl.shuffle.shuffle(order)
        digests: list[str | None] = [None] * len(jobs)
        wall = 0.0
        gc.collect()
        clock = Clock()
        for i in order:
            job = jobs[i]
            out = None
            t0 = time.perf_counter()
            try:
                if self.tracer is None:
                    out = job.run()
                else:
                    with self.tracer.span(f"harness.{job.kind}"):
                        out = job.run()
            except Exception as exc:  # a job that raises is a failed job, not a crash
                self.failures.append(f"{job.kind}: {type(exc).__name__}: {exc}")
            dt = clock.scaled(time.perf_counter() - t0)
            wall += dt
            self.job_times.append(dt)
            self.times_of_job[i].append(dt)
            self.attempted += 1
            if out is None:
                self.failed += 1
                continue
            digests[i] = hashlib.sha256(out.encode("utf-8")).hexdigest()
            if not job.check(out):
                self.failures.append(f"{job.kind}: output disagrees with its reference")
                self.failed += 1
            elif self.reference is not None and digests[i] != self.reference[i]:
                self.failures.append(f"{job.kind}: traced output differs from untraced")
                self.failed += 1
        self.pass_walls.append(wall)
        return digests

    def run_for(self, seconds: float, min_jobs: int = 0, on_pass=None) -> None:
        """Whole passes until ``seconds`` have gone by, ``min_jobs`` have run and
        this runner has made at least one pass."""
        deadline = time.perf_counter() + seconds
        while (time.perf_counter() < deadline or len(self.job_times) < min_jobs
               or not self.pass_walls):
            if on_pass:
                on_pass()
            self.one_pass()


def end_to_end(runner: Runner, setup_s: float) -> dict[str, float]:
    times_ms = [t * 1000 for t in runner.job_times]
    percentiles = statistics.quantiles(times_ms, n=100, method="inclusive")
    return {
        # the job list's time: each job at its mean over the passes
        "wall_s": sum(statistics.fmean(ts) for ts in runner.times_of_job),
        "job_p50_ms": statistics.median(times_ms),
        "job_tail_ms": percentiles[runner.wl.tail_percentile - 1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
        "setup_s": setup_s,
    }


def main(argv: list[str] | None = None) -> int:
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here))
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once, print the set-up time and exit")
    args = ap.parse_args(argv)

    root = checkout_root()
    sys.path.insert(0, str(root / "tests"))
    sys.path.insert(0, str(root / "src"))

    wl, setup_s = set_up(workloads, args.workload, args.seed, root)
    if args.setup_only:
        print(repr(setup_s))
        return 0
    bench = json.loads((here.parent / "BENCHMARK.json").read_text())

    if args.trace == 0:
        setup_times = [setup_s, *child_setup_times(args.workload, args.seed)]
        setup_s = statistics.median(setup_times)
        runner = Runner(wl)
        runner.run_for(args.seconds, min_jobs=wl.min_jobs)
        values = end_to_end(runner, setup_s)
        units = END_TO_END_UNITS
        listed = bench["end_to_end"]
        samples = {"wall_s": len(runner.pass_walls), "job_p50_ms": len(runner.job_times),
                   "job_tail_ms": len(runner.job_times), "peak_rss_mb": 1,
                   "ok_ratio": runner.attempted, "setup_s": len(setup_times)}
    else:
        import tracing

        # A quarter of the run untraced gives the outputs the traced passes
        # must reproduce byte for byte, and the baseline for the overhead.
        end = time.perf_counter() + args.seconds
        untraced = Runner(wl)
        untraced.reference = untraced.one_pass()
        untraced.run_for(args.seconds * UNTRACED_SHARE)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        runner = Runner(wl, reference=untraced.reference, tracer=tracer)
        marks = []
        runner.run_for(end - time.perf_counter(), on_pass=lambda: marks.append(tracer.snapshot()))
        marks.append(tracer.snapshot())
        values = tracing.layer_metrics(tracer, marks)
        values["trace.overhead_s"] = (statistics.median(runner.pass_walls)
                                      - statistics.median(untraced.pass_walls))
        units = tracing.PER_LAYER
        listed = bench["per_layer"]
        samples = dict.fromkeys(units, len(runner.pass_walls))
        runner.attempted += untraced.attempted
        runner.failed += untraced.failed
        runner.failures += untraced.failures
        tracer.write(root / SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")

    names = [m["name"] for m in listed]
    wrong = [m["name"] for m in listed if units.get(m["name"]) != m["unit"]]
    if wrong:
        raise SystemExit(f"perfbench: BENCHMARK.json metrics unknown or with another unit: {wrong}")
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in names}
    for name in names:
        print(f"{args.workload} seed={args.seed} {name} = {metrics[name]['value']:.6g} "
              f"{metrics[name]['unit']} (n={samples[name]})", file=sys.stderr)
    for failure in runner.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
