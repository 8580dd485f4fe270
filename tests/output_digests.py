"""SHA-256 digests of the CLI outputs that a refactor must keep byte-identical.

    PYTHONPATH=src python tests/output_digests.py

runs every command below through ``seslab.cli.main`` in a temporary directory
and rewrites ``output_digests.json`` next to this file: the digest of every
file the commands write, and the numpy and OpenBLAS versions that made them.
``tests/test_output_digests.py`` runs the same commands and compares. The
bits depend on OpenBLAS's GEMM summation order, so a table made with other
versions is not evidence either way. Rewrite the table only for a change
that alters numbers on purpose, and say which digests changed and why.

The commands: ``equiv --maps`` in csv and json format at SESLAB_THREADS 1
and 2, on a 2-image config of the reference stack (4x(4 ch, k=11), 3 scales) and
on a 1-image config of the wide stack (2x(16 ch, k=5)), both at 96x320 to
keep the test short; ``ssim-sweep`` at 96 px, and the four ``warp`` modes of
a 1242x375 frame.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

TABLE = Path(__file__).with_name("output_digests.json")

SCALE_FACTORS = [1.0 / 1.2, 1.0 / 1.1, 0.8, 0.7, 0.6]
EQUIV_CONFIGS = {
    "ref": {
        "stack": {"seed": 0},
        "corpus": {"kind": "gaussian-blobs", "count": 2, "height": 96, "width": 320, "seed": 0},
        "scale_factors": SCALE_FACTORS,
        "blocks": [1, 2, 3, 4],
    },
    "wide": {
        "stack": {"seed": 0, "layers": [{"out_channels": 16, "k": 5}, {"out_channels": 16, "k": 5}], "max_order": 2},
        "corpus": {"kind": "bandlimited-noise", "count": 1, "height": 96, "width": 320, "seed": 0},
        "scale_factors": [0.8, 0.6],
        "blocks": [1, 2],
    },
}
# The README's warp example: a patch 30 units ahead, 3 units of forward motion.
GEOMETRY = {
    "plane": {"m": -0.05, "n": 0.05, "o": 1.0, "p": -30.0},
    "motion": {"t": [0.0, 0.0, -3.0]},
    "intrinsics": {"f": 707.0, "u0": 621.0, "v0": 187.5, "width": 1242, "height": 375},
}
WARP_MODES = ("projective", "scale", "logpolar", "invlogpolar")


def versions() -> dict:
    """The numpy and OpenBLAS versions of this process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def commands(work: Path) -> list:
    """(SESLAB_THREADS, argv) of every command, after writing their inputs into
    ``work``; every path in an argv is relative to ``work``."""
    from seslab import synth_image, write_pgm

    runs = []
    for name, config in EQUIV_CONFIGS.items():
        (work / f"{name}.json").write_text(json.dumps(config))
        for threads in ("1", "2"):
            for fmt in ("csv", "json"):
                out = f"equiv-{name}-{fmt}-t{threads}"
                runs.append((threads, ["equiv", "--config", f"{name}.json", "--format", fmt, "--maps", "--out-dir", out]))
    runs.append(("1", ["ssim-sweep", "--heights", "96", "--count", "2", "--format", "json", "--out-dir", "sweep"]))
    for name, payload in GEOMETRY.items():
        (work / f"{name}.json").write_text(json.dumps(payload))
    write_pgm(work / "frame.pgm", synth_image("gaussian-blobs", 375, 1242, seed=2))
    geometry = [arg for name in GEOMETRY for arg in (f"--{name}", f"{name}.json")]
    for mode in WARP_MODES:
        image = "warp-logpolar.pgm" if mode == "invlogpolar" else "frame.pgm"
        argv = ["warp", "--image", image, "--mode", mode, "--out", f"warp-{mode}.pgm", "--out-dir", f"warp-{mode}"]
        argv += geometry if mode in ("projective", "scale") else []
        argv += ["--out-shape", "375,1242"] if mode == "invlogpolar" else []
        runs.append(("1", argv))
    return runs


def digests(work: Path) -> dict:
    """{path relative to ``work``: SHA-256} of every file that the commands and
    their inputs leave in the empty directory ``work``."""
    from seslab.cli import main

    cwd, threads = os.getcwd(), os.environ.get("SESLAB_THREADS")
    os.chdir(work)  # the config echoes hold the relative paths of the argvs
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for count, argv in commands(Path(".")):
                os.environ["SESLAB_THREADS"] = count
                if main(argv) != 0:
                    raise RuntimeError(f"seslab {' '.join(argv)} failed")
    finally:
        os.chdir(cwd)
        if threads is None:
            os.environ.pop("SESLAB_THREADS", None)
        else:
            os.environ["SESLAB_THREADS"] = threads
    files = sorted(p for p in work.rglob("*") if p.is_file())
    return {p.relative_to(work).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def main() -> int:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {"versions": versions(), "digests": digests(Path(tmp))}
    TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"{len(table['digests'])} digests -> {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
