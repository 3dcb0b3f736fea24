"""The benchmark's own tests.  Run from the root of a checkout:

    python3 -m pytest perfbench -q

The smoke runs are whole benchmark processes with ``--seconds 0``: each
still runs the passes its tail percentile needs, so the module takes a
minute or two.
"""

from __future__ import annotations

import gzip
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gen
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench_run(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = last_json(bench_run(workload, 0))
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["ok_ratio"]["value"] == 1.0   # failed_ratio 0
    assert all(v["value"] > 0 for v in result["metrics"].values())


# The layer each workload is built to load.
LOADED_LAYER = {"nerve2": "twocat", "homology": "homology", "lifting": "simplicial", "cli": "cli"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_changes_no_output(workload):
    # A traced run fails every job whose output differs from the untraced
    # pass that precedes it, so correct means byte-identical outputs.
    result = last_json(bench_run(workload, 1))
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for layer in (LOADED_LAYER[workload], "serialize"):
        assert result["metrics"][f"{layer}.calls"]["value"] > 0
        assert result["metrics"][f"{layer}.self_s"]["value"] > 0
    spans = ROOT / run.SPANS_DIR / f"spans-{workload}-seed7.jsonl.gz"
    with gzip.open(spans, "rt") as f:
        header = json.loads(f.readline())
        first = json.loads(f.readline())
    assert header["names"][first[0]].startswith("harness.") and first[3] == -1


def test_same_seed_same_inputs():
    nl = run.load_library(ROOT)
    for name in WORKLOADS:
        a, b = (workloads.build(name, nl, 11, ROOT) for _ in range(2))
        c = workloads.build(name, nl, 12, ROOT)
        assert a.inputs == b.inputs and [j.kind for j in a.jobs] == [j.kind for j in b.jobs]
        if a.inputs:
            assert a.inputs != c.inputs
        if a.shuffle is not None:
            orders = []
            for wl in (a, b):
                order = list(range(len(wl.jobs)))
                wl.shuffle.shuffle(order)
                orders.append(order)
            assert orders[0] == orders[1]


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_run("cli", 0, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_generators_hold_their_shapes():
    rng = random.Random(3)
    for _ in range(5):
        less = gen.random_poset(rng, 6, 9, 15)
        assert len(less) == 9 and gen.strict_chains(6, less) == 15
        # nerve levels by brute force over weakly increasing sequences
        leq = less | {(i, i) for i in range(6)}
        seqs = [[x] for x in range(6)]
        for count in gen.nerve_counts(range(6), leq, 3):
            assert len(seqs) == count
            seqs = [s + [y] for s in seqs for y in range(6) if (s[-1], y) in leq]
        cx = gen.random_complex(rng, 6, 10, 4)
        assert [sum(len(s) == k for s in cx) for k in (1, 2, 3)] == [6, 10, 4]


def test_self_time_excludes_children_and_generators_time_only_next():
    tracer = tracing.Tracer()

    def child():
        time.sleep(0.05)

    def parent():
        time.sleep(0.01)
        traced_child()

    def items():
        time.sleep(0.01)
        yield 1
        time.sleep(0.01)
        yield 2

    traced_child = tracer.wrap("cat.child", child)
    traced_parent = tracer.wrap("simplicial.parent", parent)
    traced_items = tracer.wrap("twocat.items", items)
    traced_parent()
    for _ in traced_items():
        time.sleep(0.1)   # the consumer's time is not the generator's
    totals = tracer.layer_totals(0, len(tracer.name))
    assert totals["simplicial.calls"] == 1 and totals["cat.calls"] == 1
    assert 0.01 <= totals["simplicial.self_s"] < 0.04
    assert 0.05 <= totals["cat.self_s"] < 0.08
    # one call, three next(): two items and the StopIteration
    assert totals["twocat.calls"] == 1 and 0.02 <= totals["twocat.self_s"] < 0.1
    assert tracer.counters["twocat.items.yielded"] == 2


def test_clock_scales_a_job_by_the_loops_on_either_side(monkeypatch):
    loops = iter([2 * run.CAL_REF_S, 2 * run.CAL_REF_S, run.CAL_REF_S])
    monkeypatch.setattr(run, "calibrate", lambda: next(loops))
    clock = run.Clock()
    assert clock.scaled(0.2) == pytest.approx(0.1)           # machine at half speed
    assert clock.scaled(0.3) == pytest.approx(0.3 / 1.5)     # mean of the two loops
