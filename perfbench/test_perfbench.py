"""Tests of the benchmark itself: metric lists, span accounting, work counts,
output checks and the refusal to run without the program's source.

    python3 -m pytest perfbench -q

Each traced test runs one untraced and one traced cycle of a workload, so
the module takes about a minute.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_printed_metrics():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)


def test_latency_stats_are_medians_over_cycles():
    # Two call sizes per cycle. One fast call of the larger size moves the
    # pooled median from 15 to 12; the per-cycle statistics stay put.
    cycles = [[10.0, 14.0], [10.0, 20.0], [10.0, 20.0], [10.0, 20.0], []]
    assert statistics.median(v for c in cycles for v in c) == 12.0
    assert run.latency_stats(cycles) == (15.0, 20.0)
    assert run.latency_stats([]) == (0.0, 0.0)


@pytest.fixture(scope="module")
def traced():
    """One traced run (one untraced and one traced cycle) per workload."""
    return {name: run.run(name, seed=0, seconds=1, trace=True) for name in WORKLOADS}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_is_correct_and_reports_every_layer_metric(traced, name):
    detail, result = traced[name]
    assert result["correct"], detail["problems"]
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m for m, _ in run.PER_LAYER}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_layer_self_times_sum_to_the_traced_wall(traced, name):
    detail, result = traced[name]
    accounted = result["metrics"]["trace.accounted_frac"]["value"]
    assert 0.97 <= accounted <= 1.03
    acc = detail["accounting"]
    values = {m: v["value"] for m, v in result["metrics"].items()}
    assert run.accounted_frac(values, acc["traced_cycles"], acc["traced_wall_s"]) == accounted
    # The check fails when the biggest layer drops out of the breakdown.
    biggest = max(run.PARTITION, key=values.get)
    values[biggest] = 0.0
    assert run.accounted_frac(values, acc["traced_cycles"], acc["traced_wall_s"]) < 0.97


def test_conv_runs_on_equiv_workloads_only(traced):
    calls = {name: traced[name][1]["metrics"]["conv.conv2d.calls"]["value"] for name in WORKLOADS}
    assert calls["geometry-sweep"] == 0
    assert calls["equiv-ref"] > 0 and calls["equiv-wide"] > 0


COUNT_METRICS = [
    name
    for name, unit in run.PER_LAYER
    if unit in ("count", "B", "Gflop", "flop/B") and name != "trace.spans"
]


def test_work_counts_repeat_across_cycles_and_runs(traced):
    # Four cycles, two of them traced: counts must match between those two
    # and with the single traced cycle of the fixture's run.
    cycles = 4
    seconds = int(cycles * WORKLOADS["geometry-sweep"]().cycle_s) + 1
    detail, result = run.run("geometry-sweep", seed=0, seconds=seconds, trace=True)
    assert detail["cycles"] == cycles
    assert detail["work_counts_repeat"] and result["correct"]
    first = traced["geometry-sweep"][1]["metrics"]
    for name in COUNT_METRICS:
        assert result["metrics"][name]["value"] == first[name]["value"], name
    assert first["resample.sample_at.points"]["value"] > 0


def test_output_check_catches_a_wrong_value():
    workload = WORKLOADS["geometry-sweep"]()
    run.OUT_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=run.OUT_ROOT))
    try:
        workload.prepare(0, work)
        _, _, codes = run.run_cycle(run.fresh_import(), workload)
        assert codes == [0] * len(workload.argvs)
        reference = workload.reference_entry()
        assert workload.check(reference, codes).failed == 0
        # A command that exits non-zero fails its operations, even when its
        # outputs are right: the sweep's 8 rows, then one warp.
        assert workload.check(reference, [1] + codes[1:]).failed == 8
        assert workload.check(reference, codes[:-1] + [2]).failed == 1
        reference["rows"][3][2] *= 1 + 1e-8
        reference["warps"]["scale"]["sha256"] = "0" * 64
        assert workload.check(reference, codes).failed == 2
    finally:
        shutil.rmtree(work)
        with contextlib.suppress(OSError):
            run.OUT_ROOT.rmdir()


def test_refuses_to_run_without_the_program_source():
    run.OUT_ROOT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=run.OUT_ROOT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "geometry-sweep", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
        with contextlib.suppress(OSError):
            run.OUT_ROOT.rmdir()
