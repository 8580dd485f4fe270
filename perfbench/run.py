#!/usr/bin/env python3
"""seslab benchmark: runs a workload through the seslab CLI in-process,
checks its outputs and prints one JSON result as the last line of stdout.

    python3 perfbench/run.py --workload equiv-ref --seed 0 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics; only the calls behind the latency
metrics are timed. --trace 1 alternates untraced and traced cycles and
reports the per-layer metrics of the traced ones. The line before the result
records the environment and the metrics under their per-workload names.
perfbench/NOTES.md explains the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported, and seslab's
# harness on one thread: with two vCPUs, a second busy thread leaves no
# room for anything else on the machine, and a single competing process then
# slows such a run by half.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["SESLAB_THREADS"] = "1"

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from spans import LATENCY_TARGETS, Tracer, self_under, summarize
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
# At least this many set-ups per untraced run, spread over its cycles.
SETUP_REPEATS = 7

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("primary_ms_p50", "ms"),
    ("primary_ms_tail", "ms"),
    ("secondary_ms_p50", "ms"),
    ("secondary_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
)

# conv2d call shapes C x O x k x H x W of the equiv workloads: first and
# later layers, on the corpus images and on the 96x96 calibration probe.
CONV_SHAPES = (
    "1x4x11x96x320",
    "4x4x11x96x320",
    "1x4x11x96x96",
    "4x4x11x96x96",
    "1x16x5x192x640",
    "16x16x5x192x640",
    "1x16x5x96x96",
    "16x16x5x96x96",
)

PER_LAYER = (
    ("conv.conv2d.calls", "count"),
    ("conv.conv2d.self_s", "s"),
    ("conv.conv2d.gflop", "Gflop"),
    ("conv.conv2d.flop_per_byte", "flop/B"),
    ("conv.conv2d.gflop_per_s", "Gflop/s"),
    *((f"conv.conv2d.{shape}.self_s", "s") for shape in CONV_SHAPES),
    ("conv.conv2d.other_shapes.self_s", "s"),
    ("sesconv.forward.self_s", "s"),
    ("sesconv.scale_projection.self_s", "s"),
    ("sesconv.relu.self_s", "s"),
    ("sesconv.build_stack.self_s", "s"),
    ("resample.scale_transform_stack.calls", "count"),
    ("resample.scale_transform_stack.self_s", "s"),
    ("resample.scale_transform.calls", "count"),
    ("resample.scale_transform.self_s", "s"),
    ("resample.sample_at.calls", "count"),
    ("resample.sample_at.self_s", "s"),
    ("resample.sample_at.points", "count"),
    ("resample.sample_at.ns_per_point", "ns"),
    ("resample.resize.calls", "count"),
    ("resample.resize.self_s", "s"),
    ("resample.warp.self_s", "s"),
    ("geometry.log_polar.self_s", "s"),
    ("geometry.inverse_log_polar.self_s", "s"),
    ("geometry.projective_mapping.self_s", "s"),
    ("geometry.corollary_deviation.self_s", "s"),
    ("geometry.log_polar_roundtrip_ssim.self_s", "s"),
    ("ssim.ssim.calls", "count"),
    ("ssim.ssim.self_s", "s"),
    ("harness.run_experiment.self_s", "s"),
    ("harness.error_map.self_s", "s"),
    ("harness.report_identical_cells", "count"),
    ("harness.CorpusSpec.load.self_s", "s"),
    ("synth.synth_corpus.self_s", "s"),
    ("basis.build_basis.self_s", "s"),
    ("fileio.write_pgm.calls", "count"),
    ("fileio.write_pgm.bytes", "B"),
    ("fileio.write_pgm.self_s", "s"),
    ("fileio.read_pgm.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("grid.as_grid.calls", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.accounted_frac", "ratio"),
    ("trace.spans", "count"),
)

# Finer views of time that another per-layer metric already holds: the conv
# call shapes split conv.conv2d.self_s, and relu and scale_projection are
# part of sesconv.forward.self_s.
BREAKDOWN = {
    *(f"conv.conv2d.{shape}.self_s" for shape in CONV_SHAPES),
    "conv.conv2d.other_shapes.self_s",
    "sesconv.relu.self_s",
    "sesconv.scale_projection.self_s",
}
# The per-layer times that partition a traced cycle: every second it spends
# inside seslab belongs to exactly one of them.
PARTITION = tuple(name for name, unit in PER_LAYER if unit == "s" and name not in BREAKDOWN)

# Spans whose self time inside Stack.forward is the forward's non-conv work:
# normalization, ReLU, stacking of the scale slices and scale projection.
FORWARD_PARTS = {
    "sesconv.Stack.forward",
    "sesconv.ses_conv_input",
    "sesconv.ses_conv_scalewise",
    "sesconv.relu",
    "sesconv.scale_projection",
}


class BenchError(Exception):
    """The benchmark cannot run here (no program source, bad arguments)."""


def fresh_import():
    """Import seslab from this checkout's src/, dropping any loaded copy."""
    if not (SRC / "seslab" / "__init__.py").is_file():
        raise BenchError(f"no seslab source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "seslab" or n.startswith("seslab.")]:
        del sys.modules[name]
    seslab = importlib.import_module("seslab")
    importlib.import_module("seslab.cli")
    if Path(seslab.__file__).resolve().parent != (SRC / "seslab").resolve():
        raise BenchError(f"seslab was imported from {seslab.__file__}, not from {SRC}")
    return seslab


def load_reference(name: str, seed: int):
    """Stored outputs of this workload for ``seed``, or None."""
    return json.loads(REFERENCE.read_text()).get(name, {}).get(str(seed))


def run_cycle(seslab, workload, tracer=None):
    """Run the workload's commands once; returns (cycle wall, per-command
    walls, per-command exit codes). A command that raised has code None."""
    shutil.rmtree(workload.out, ignore_errors=True)
    walls, codes = [], []
    span = tracer.span("bench.cycle") if tracer else contextlib.nullcontext()
    start = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), span:
        for argv in workload.argvs:
            t0 = perf_counter()
            try:
                code = seslab.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # noqa: BLE001 - a failed command is a failed operation
                traceback.print_exc()
                code = None
            walls.append(perf_counter() - t0)
            codes.append(code)
            if code != 0:
                print(f"perfbench: seslab {argv[0]} ended with {code!r}", file=sys.stderr)
    return perf_counter() - start, walls, codes


def git_commit() -> str:
    """HEAD of the checkout, or "unavailable" when it is not a git work tree.
    The ceiling keeps git from taking the commit of an enclosing repository."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    digest = hashlib.sha256()
    for path in sorted((SRC / "seslab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "SESLAB_THREADS": os.environ.get("SESLAB_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


class Tally:
    """Operations attempted and failed over a run, plus the first problems."""

    def __init__(self):
        self.cycles = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, outcome):
        self.cycles += 1
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems.extend(outcome.problems[: 5 - len(self.problems)])


def run(name: str, seed: int, seconds: int, trace: bool):
    """Run one workload; returns (detail, result) dicts."""
    workload = WORKLOADS[name]()
    OUT_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_ROOT))
    try:
        workload.prepare(seed, work)
        reference = load_reference(name, seed)
        setups = []

        def set_up():
            t0 = perf_counter()
            seslab = fresh_import()
            workload.setup(seslab)
            setups.append(perf_counter() - t0)
            return seslab

        cycles = max(1, int(seconds // workload.cycle_s))
        tally = Tally()
        if trace:
            detail, metrics, repeat_ok = traced_run(set_up(), workload, reference, max(2, cycles), tally)
        else:
            # The set-ups are spread over the run, a few before each cycle,
            # so that their median sees the same stretch of time as the
            # cycles do. Each cycle runs on the seslab its last set-up
            # imported.
            timer = Tracer()
            walls, latencies = [], []
            for _ in range(cycles):
                for _ in range(-(-SETUP_REPEATS // cycles)):
                    seslab = set_up()
                first = len(timer.spans)
                timer.install(LATENCY_TARGETS)
                try:
                    wall, per_command, codes = run_cycle(seslab, workload)
                finally:
                    timer.uninstall()
                walls.append(wall)
                latencies.append(workload.latencies(timer.spans[first:], per_command))
                tally.add(workload.check(reference, codes))
            detail, metrics = end_to_end(workload, latencies, setups, walls)
            repeat_ok = True
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT_ROOT.rmdir()
    detail.update(
        {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "cycles": tally.cycles,
            "setups": len(setups),
            "reference": "stored" if reference is not None else "invariants only",
            "failed_frac": {"value": tally.failed / max(1, tally.attempted), "unit": "ratio"},
            "problems": tally.problems,
            "environment": environment(),
        }
    )
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0 and repeat_ok,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": metrics,
    }
    return detail, result


def latency_stats(per_cycle):
    """(p50, tail) in the samples' unit from per-cycle latency samples: the
    median over cycles of each cycle's median and of each cycle's slowest
    call. A cycle's calls differ in size, so a quantile of all samples
    pooled falls on the edge between two sizes and follows the fastest or
    slowest call of one of them."""
    per_cycle = [samples for samples in per_cycle if samples]
    if not per_cycle:
        return 0.0, 0.0
    return (
        statistics.median(statistics.median(samples) for samples in per_cycle),
        statistics.median(max(samples) for samples in per_cycle),
    )


def end_to_end(workload, latencies, setups, walls):
    """``latencies`` holds, per cycle, the workload's labelled latency samples."""
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "items_per_s": workload.items_per_cycle * len(walls) / sum(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    named = {}
    for slot, per_label in zip(("primary", "secondary"), zip(*latencies)):
        label = per_label[0][0]
        p50, slowest = latency_stats([[1000.0 * v for v in seconds] for _, seconds in per_label])
        n = sum(len(seconds) for _, seconds in per_label)
        named[f"{label}_ms_p50"] = {"value": p50, "unit": "ms", "n": n}
        named[f"{label}_ms_tail"] = {"value": slowest, "unit": "ms", "n": n}
        values[f"{slot}_ms_p50"] = p50
        values[f"{slot}_ms_tail"] = slowest
    for key in ("setup_s", "wall_s", "items_per_s", "peak_rss_mb"):
        named[key] = {"value": values[key], "unit": dict(END_TO_END)[key]}
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END}
    return {"named_metrics": named}, metrics


def traced_run(seslab, workload, reference, cycles, tally):
    """Even cycles run untraced, odd ones traced; per-layer metrics are per
    traced cycle. Returns (detail, metrics, whether work counts repeated)."""
    tracer = Tracer()
    untraced, traced, segments, identical = [], [], [], []
    for index in range(cycles):
        if index % 2 == 0:
            wall, _, codes = run_cycle(seslab, workload)
            untraced.append(wall)
        else:
            first = len(tracer.spans)
            tracer.install()
            try:
                wall, _, codes = run_cycle(seslab, workload, tracer)
            finally:
                tracer.uninstall()
            traced.append(wall)
            segments.append(tracer.spans[first:])
        outcome = workload.check(reference, codes)
        tally.add(outcome)
        if index % 2 == 1:
            identical.append(outcome.identical)

    spans = tracer.spans
    summary = summarize(spans)
    counts = [{n: (e["calls"], dict(e["work"])) for n, e in summarize(seg).items()} for seg in segments]
    repeat_ok = all(c == counts[0] for c in counts)
    k = len(segments)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": {}, "by_tag": {}}

    def get(name):
        return summary.get(name, empty)

    conv = get("conv.conv2d")
    flop = conv["work"].get("flop", 0)
    nbytes = conv["work"].get("bytes", 0)
    sample = get("resample.sample_at")
    points = sample["work"].get("points", 0)
    values = {
        "conv.conv2d.gflop": flop / 1e9 / k,
        "conv.conv2d.flop_per_byte": flop / nbytes if nbytes else 0.0,
        "conv.conv2d.gflop_per_s": flop / 1e9 / conv["self_s"] if conv["self_s"] else 0.0,
        "conv.conv2d.other_shapes.self_s": sum(
            v for tag, v in conv["by_tag"].items() if tag not in CONV_SHAPES
        ) / k,
        "sesconv.forward.self_s": self_under(spans, "sesconv.Stack.forward", FORWARD_PARTS) / k,
        "resample.sample_at.points": points / k,
        "resample.sample_at.ns_per_point": 1e9 * sample["self_s"] / points if points else 0.0,
        "harness.report_identical_cells": statistics.mean(identical),
        "fileio.write_pgm.bytes": get("fileio.write_pgm")["work"].get("bytes", 0) / k,
        "trace.overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1.0,
        "trace.spans": len(spans) / k,
    }
    for shape in CONV_SHAPES:
        values[f"conv.conv2d.{shape}.self_s"] = conv["by_tag"].get(shape, 0.0) / k
    for name, _ in PER_LAYER:
        if name not in values and name != "trace.accounted_frac":
            span_name, stat = name.rsplit(".", 1)
            values[name] = get(span_name)["calls" if stat == "calls" else "self_s"] / k
    values["trace.accounted_frac"] = accounted_frac(values, k, sum(traced))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    detail = {
        "traced_walls_s": traced,
        "untraced_walls_s": untraced,
        "work_counts_repeat": repeat_ok,
        "accounting": {
            "traced_cycles": k,
            "traced_wall_s": sum(traced),
            # Self time of the benchmark's own cycle span, which no layer holds.
            "bench_cycle_self_s": get("bench.cycle")["self_s"],
        },
    }
    return detail, metrics, repeat_ok


def accounted_frac(values: dict, k: int, traced_wall: float) -> float:
    """Share of the traced wall that the reported per-layer metrics in
    PARTITION hold; ``values`` are per traced cycle, over ``k`` cycles.
    A span whose self time no reported metric holds lowers it."""
    return k * sum(values[name] for name in PARTITION) / traced_wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        detail, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
