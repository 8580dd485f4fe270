#!/usr/bin/env python3
"""Regenerate perfbench/reference.json from the program in this checkout.

    python3 perfbench/make_reference.py

Runs one cycle of every workload for seeds 0..SEEDS-1 and stores what run.py checks later runs against: the equiv report cells, the
ssim-sweep rows, and the digests and metrics of the warp outputs.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS

SEEDS = 10


def main() -> int:
    reference = {}
    run.OUT_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=run.OUT_ROOT))
    try:
        for name, make in WORKLOADS.items():
            reference[name] = {}
            for seed in range(SEEDS):
                workload = make()
                workload.prepare(seed, work)
                _, _, codes = run.run_cycle(run.fresh_import(), workload)
                outcome = workload.check(None, codes)
                if outcome.failed:
                    raise SystemExit(f"{name} seed {seed}: {outcome.problems}")
                reference[name][str(seed)] = workload.reference_entry()
                print(f"{name} seed {seed}: {outcome.attempted} operations", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.OUT_ROOT.rmdir()
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
