"""The benchmark workloads: inputs made from a seed, the CLI commands of one
cycle, and the checks of their outputs.

A cycle is one pass over a workload's commands. The amount of work per cycle
is fixed; the number of cycles in a run follows from the run length, so both
sides of a comparison run the same work.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
FORWARD = "sesconv.Stack.forward"

# Camera, plane and motion of the README's warp example: a 1242x375 frame,
# a patch 30 units ahead, 3 units of forward motion (scale factor 1.1).
PLANE = {"m": -0.05, "n": 0.05, "o": 1.0, "p": -30.0}
MOTION = {"t": [0.0, 0.0, -3.0]}
INTRINSICS = {"f": 707.0, "u0": 621.0, "v0": 187.5, "width": 1242, "height": 375}


@dataclass
class Outcome:
    """Operations checked in one cycle. An operation is one report cell,
    error map, sweep row or warp output."""

    attempted: int = 0
    failed: int = 0
    identical: int = 0  # report cells bit-identical to the stored reference
    problems: list = field(default_factory=list)

    def op(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REL_TOL * abs(ref)


def read_pgm_header(path: Path):
    """(width, height, maxval, pixels) of a P5 PGM as written by seslab, or None."""
    try:
        raw = path.read_bytes()
    except OSError:
        return None
    parts = raw.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5":
        return None
    try:
        width, height = (int(t) for t in parts[1].split())
        maxval = int(parts[2])
    except ValueError:
        return None
    if maxval > 255 or len(parts[3]) != width * height:
        return None
    return width, height, maxval, np.frombuffer(parts[3], dtype=np.uint8)


def read_csv(path: Path):
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return None, []
    return lines[0], [line.split(",") for line in lines[1:]]


class EquivWorkload:
    """`seslab equiv` on one stack and corpus config, optionally with --maps."""

    kinds = ("ses", "vanilla")

    def __init__(self, name, config, maps, cycle_s):
        self.name = name
        self.config = config
        self.maps = maps
        self.cycle_s = cycle_s  # nominal cycle length on the reference machine

    @property
    def items_per_cycle(self) -> int:
        return self.config["corpus"]["count"]

    def prepare(self, seed: int, work: Path):
        cfg = json.loads(json.dumps(self.config))
        cfg["stack"]["seed"] = seed
        cfg["corpus"]["seed"] = seed
        self.cfg = cfg
        self.out = work / "out"
        config_path = work / f"{self.name}.json"
        config_path.write_text(json.dumps(cfg, indent=2) + "\n")
        argv = ["equiv", "--config", str(config_path), "--out-dir", str(self.out)]
        self.argvs = [argv + (["--maps"] if self.maps else [])]

    def setup(self, seslab):
        """Stack build for both kinds and corpus synthesis, as `equiv` does them."""
        config = seslab.harness.EquivConfig.from_dict(self.cfg)
        for kind in self.kinds:
            seslab.sesconv.build_stack(replace(config.stack, kind=kind))
        config.corpus.load()

    def latencies(self, spans, command_walls):
        """Labelled latency samples of one cycle in seconds: per Stack.forward
        call of the SES stack (primary) and of the vanilla stack (secondary)."""
        return [
            (f"{kind}_forward", [s.end - s.start for s in spans if s.name == FORWARD and s.tag == kind])
            for kind in self.kinds
        ]

    def reference_entry(self) -> dict:
        _, rows = read_csv(self.out / "equiv_report.csv")
        return {"cells": [[r[0], int(r[1]), float(r[2]), float(r[3]), float(r[4]), int(r[5])] for r in rows]}

    def check(self, reference: dict | None, codes) -> Outcome:
        """Check the outputs of one cycle; ``codes`` are its commands' exit
        codes. Every operation of a command that did not exit 0 fails."""
        outcome = Outcome()
        ran = codes[0] == 0
        header, rows = read_csv(self.out / "equiv_report.csv")
        scales = [float(s) for s in self.cfg["scale_factors"]]
        blocks = self.cfg["blocks"]
        expected = [(k, b, s) for k in self.kinds for b in blocks for s in scales]
        got = {}
        if header == "kind,block,scale,delta,log10_delta,n":
            for r in rows:
                try:
                    got[(r[0], int(r[1]), float(r[2]))] = (float(r[3]), float(r[4]), int(r[5]))
                except (IndexError, ValueError):
                    pass
        ref_cells = {}
        if reference is not None:
            ref_cells = {(c[0], c[1], c[2]): c[3:] for c in reference["cells"]}
        count = self.cfg["corpus"]["count"]
        for key in expected:
            cell = got.get(key)
            ok = ran and cell is not None and len(got) == len(expected)
            if ok:
                delta, log10, n = cell
                ok = (
                    math.isfinite(delta)
                    and delta >= 0.0
                    and n == count
                    and (delta == 0.0 or abs(log10 - math.log10(delta)) <= 1e-12)
                )
                ref = ref_cells.get(key)
                if ok and ref is not None:
                    ok = close(delta, ref[0]) and close(log10, ref[1]) and n == ref[2]
                    if delta == ref[0] and log10 == ref[1]:
                        outcome.identical += 1
            outcome.op(ok, f"cell {key}")
        if self.maps:
            height, width = self.cfg["corpus"]["height"], self.cfg["corpus"]["width"]
            for kind in self.kinds:
                for block in blocks:
                    pgm = read_pgm_header(self.out / "maps" / f"error_{kind}_block{block}.pgm")
                    # Maps are peak-normalized, so their largest pixel is
                    # exactly maxval whenever the scale factor is not 1.
                    ok = (
                        ran
                        and pgm is not None
                        and pgm[:3] == (width, height, 255)
                        and int(pgm[3].max()) == 255
                    )
                    outcome.op(ok, f"map {kind} block {block}")
        return outcome


def synthetic_frame(seed: int, height: int, width: int) -> np.ndarray:
    """Smooth 8-bit test frame: a sum of Gaussian blobs over a gentle ramp."""
    rng = np.random.default_rng(seed)
    ys = np.arange(height, dtype=np.float64)[:, None]
    xs = np.arange(width, dtype=np.float64)[None, :]
    image = 0.2 * (xs / width) + 0.1 * (ys / height)
    for _ in range(24):
        cy, cx = rng.uniform(0, height), rng.uniform(0, width)
        std = rng.uniform(6.0, 40.0)
        image = image + rng.uniform(0.2, 1.0) * np.exp(
            -((ys - cy) ** 2 + (xs - cx) ** 2) / (2.0 * std * std)
        )
    image = image / image.max()
    return np.rint(image * 255).astype(np.uint8)


class GeometryWorkload:
    """`seslab ssim-sweep` plus one `seslab warp` per mode on a synthetic
    1242x375 frame. No conv work: bilinear resampling, log-polar geometry,
    SSIM and PGM I/O, on arrays up to 1536x1536 (19 MB each), well beyond
    cache."""

    name = "geometry-sweep"
    heights = (96, 384)
    up_factors = (1.0, 2.0, 3.0, 4.0)
    count = 1
    modes = ("projective", "scale", "logpolar", "invlogpolar")
    cycle_s = 2.5

    @property
    def items_per_cycle(self) -> int:
        return len(self.heights) * len(self.up_factors) * self.count + len(self.modes)

    def prepare(self, seed: int, work: Path):
        self.seed = seed
        self.out = work / "out"
        frame = synthetic_frame(seed, INTRINSICS["height"], INTRINSICS["width"])
        self.frame = work / "frame.pgm"
        header = f"P5\n{INTRINSICS['width']} {INTRINSICS['height']}\n255\n".encode("ascii")
        self.frame.write_bytes(header + frame.tobytes())
        paths = {}
        for key, payload in (("plane", PLANE), ("motion", MOTION), ("intrinsics", INTRINSICS)):
            paths[key] = work / f"{key}.json"
            paths[key].write_text(json.dumps(payload) + "\n")
        out = str(self.out)
        geometry = ["--plane", str(paths["plane"]), "--motion", str(paths["motion"]),
                    "--intrinsics", str(paths["intrinsics"])]
        self.argvs = [
            ["ssim-sweep", "--kind", "checkerboard", "--heights", ",".join(map(str, self.heights)),
             "--up-factors", ",".join(f"{u:g}" for u in self.up_factors),
             "--count", str(self.count), "--seed", str(seed), "--out-dir", out],
        ]
        for mode in self.modes:
            image = str(self.out / "logpolar.pgm") if mode == "invlogpolar" else str(self.frame)
            argv = ["warp", "--image", image, "--mode", mode, "--out", str(self.out / f"{mode}.pgm"),
                    "--out-dir", str(self.out / mode)]
            if mode in ("projective", "scale"):
                argv += geometry
            if mode == "invlogpolar":
                argv += ["--out-shape", f"{INTRINSICS['height']},{INTRINSICS['width']}"]
            self.argvs.append(argv)

    def setup(self, seslab):
        """Corpus synthesis for the sweep and the read of the warp input."""
        for height in self.heights:
            seslab.synth.synth_corpus("checkerboard", self.count, height, height, self.seed)
        seslab.fileio.read_pgm(self.frame)

    def latencies(self, spans, command_walls):
        """Labelled latency samples of one cycle in seconds: per
        log_polar_roundtrip_ssim call (primary) and per warp command
        (secondary)."""
        return [
            ("roundtrip", [s.end - s.start for s in spans if s.name == "geometry.log_polar_roundtrip_ssim"]),
            ("warp", command_walls[1:]),
        ]

    def _warp_metrics(self, mode):
        try:
            return json.loads((self.out / mode / "warp_metrics.json").read_text())
        except (OSError, ValueError):
            return None

    def reference_entry(self) -> dict:
        _, rows = read_csv(self.out / "ssim_sweep.csv")
        warps = {}
        for mode in self.modes:
            digest = hashlib.sha256((self.out / f"{mode}.pgm").read_bytes()).hexdigest()
            warps[mode] = {"sha256": digest, "metrics": self._warp_metrics(mode)}
        return {
            "rows": [[int(r[0]), float(r[1]), float(r[2]), int(r[3])] for r in rows],
            "warps": warps,
        }

    def check(self, reference: dict | None, codes) -> Outcome:
        """Check the outputs of one cycle; ``codes`` are its commands' exit
        codes, the sweep's first. The operations of a command that did not
        exit 0 fail."""
        outcome = Outcome()
        header, rows = read_csv(self.out / "ssim_sweep.csv")
        got = {}
        if header == "height,up_factor,mean_ssim,n":
            for r in rows:
                try:
                    got[(int(r[0]), float(r[1]))] = (float(r[2]), int(r[3]))
                except (IndexError, ValueError):
                    pass
        ref_rows = {}
        if reference is not None:
            ref_rows = {(r[0], r[1]): r[2:] for r in reference["rows"]}
        expected = [(h, u) for h in self.heights for u in self.up_factors]
        for key in expected:
            row = got.get(key)
            ok = codes[0] == 0 and row is not None and len(got) == len(expected)
            if ok:
                mean, n = row
                ok = math.isfinite(mean) and 0.0 < mean <= 1.0 and n == self.count
                ref = ref_rows.get(key)
                if ok and ref is not None:
                    ok = close(mean, ref[0]) and n == ref[1]
            outcome.op(ok, f"sweep row {key}")
        s = 1.0 + MOTION["t"][2] * PLANE["o"] / PLANE["p"]
        for mode, code in zip(self.modes, codes[1:]):
            path = self.out / f"{mode}.pgm"
            pgm = read_pgm_header(path)
            metrics = self._warp_metrics(mode)
            ok = (
                code == 0
                and pgm is not None
                and pgm[:3] == (INTRINSICS["width"], INTRINSICS["height"], 255)
                and 0 < int(pgm[3].max())
                and metrics is not None
                and metrics.get("mode") == mode
            )
            if ok and mode in ("projective", "scale"):
                ok = metrics.get("scale_factor") == s and all(
                    math.isfinite(metrics.get(k, math.nan)) and metrics[k] >= 0.0
                    for k in ("parallel_bound", "parallel_ratio", "corollary_deviation_px")
                )
            if ok and reference is not None:
                ref = reference["warps"][mode]
                ok = hashlib.sha256(path.read_bytes()).hexdigest() == ref["sha256"] and all(
                    key in metrics
                    and (metrics[key] == value if isinstance(value, str) else close(metrics[key], value))
                    for key, value in ref["metrics"].items()
                )
            outcome.op(ok, f"warp {mode}")
        return outcome


def equiv_ref() -> EquivWorkload:
    """The paper's experiment: 4 layers of (4 channels, k=11), 3 scales,
    max_order 3, gaussian blobs at 96x320, 5 scale factors, blocks 1-4, with
    error maps; one image per cycle. conv2d runs 121 tiny tensordots per
    call here, so conv is bound by Python overhead."""
    return EquivWorkload(
        "equiv-ref",
        {
            "stack": {"seed": 0},
            "corpus": {"kind": "gaussian-blobs", "count": 1, "height": 96, "width": 320, "seed": 0},
            "scale_factors": [1.0 / 1.2, 1.0 / 1.1, 0.8, 0.7, 0.6],
            "blocks": [1, 2, 3, 4],
        },
        maps=True,
        cycle_s=9.5,
    )


def equiv_wide() -> EquivWorkload:
    """The same layers used differently: 2 layers of (16 channels, k=5),
    max_order 2, over bandlimited noise at 192x640, so conv is bound by
    memory and BLAS; one image per cycle."""
    return EquivWorkload(
        "equiv-wide",
        {
            "stack": {
                "seed": 0,
                "layers": [{"out_channels": 16, "k": 5}, {"out_channels": 16, "k": 5}],
                "max_order": 2,
            },
            "corpus": {"kind": "bandlimited-noise", "count": 1, "height": 192, "width": 640, "seed": 0},
            "scale_factors": [0.8, 0.6],
            "blocks": [1, 2],
        },
        maps=False,
        cycle_s=6.3,
    )


# Name -> factory of a fresh workload object.
WORKLOADS = {
    "equiv-ref": equiv_ref,
    "equiv-wide": equiv_wide,
    "geometry-sweep": GeometryWorkload,
}
