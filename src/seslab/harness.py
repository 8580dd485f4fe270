"""Equivariance-error measurement of stacks over image corpora.

The measurement compares, per block and per scale factor, the scaled
feature map against the feature map of the scaled image, normalized by the
scaled feature energy. The ses and vanilla stacks are built from identical
seed-derived coefficients so the comparison isolates the architecture.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, SeslabError, check_fields, load
from .fileio import read_pgm
from .grid import BorderPolicy, as_grid, crop_window
from .resample import sample_at, scale_transform, scale_transform_mapping, scale_transform_stack
from .sesconv import Stack, StackSpec, build_stack
from .synth import synth_corpus

THREADS_ENV = "SESLAB_THREADS"
REPORT_KINDS = ("ses", "vanilla")
CSV_HEADER = "kind,block,scale,delta,log10_delta,n"


def thread_count() -> int:
    raw = os.environ.get(THREADS_ENV, "1").strip() or "1"
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
    return max(1, value)


@dataclass(frozen=True)
class CorpusSpec:
    """Synthetic corpus parameters, or a directory of flat PGM images."""

    kind: str = "gaussian-blobs"
    count: int = 20
    height: int = 96
    width: int = 320
    seed: int = 0
    image_dir: str | None = None

    def __post_init__(self):
        check_fields(self)
        if self.image_dir is None and self.count < 1:
            raise ConfigError(f"corpus count must be >= 1, got {self.count}")

    def load(self) -> list:
        if self.image_dir is not None:
            paths = sorted(Path(self.image_dir).glob("*.pgm"))
            if not paths:
                raise ConfigError(f"no .pgm images found in {self.image_dir}")
            return [read_pgm(p) for p in paths]
        return synth_corpus(self.kind, self.count, self.height, self.width, self.seed)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "count": self.count,
            "height": self.height,
            "width": self.width,
            "seed": self.seed,
            "image_dir": self.image_dir,
        }


@dataclass(frozen=True)
class EquivConfig:
    """Full experiment description; deterministic given its values."""

    stack: StackSpec = StackSpec()
    corpus: CorpusSpec = CorpusSpec()
    scale_factors: tuple[float, ...] = (1.0 / 1.2, 1.0 / 1.1, 0.8, 0.7, 0.6)
    blocks: tuple[int, ...] = (1, 2, 3, 4)
    crop_margin: float = 0.1

    def __post_init__(self):
        check_fields(self)
        if not self.scale_factors:
            raise ConfigError("at least one scale factor is required")
        if any(not 0.0 < s <= 1.0 for s in self.scale_factors):
            raise ConfigError(f"scale factors must lie in (0, 1], got {self.scale_factors}")
        if not self.blocks:
            raise ConfigError("at least one block index is required")
        if any(not 1 <= b <= len(self.stack.layers) for b in self.blocks):
            raise ConfigError(
                f"block indices must lie in 1..{len(self.stack.layers)}, got {self.blocks}"
            )
        if not 0.0 <= self.crop_margin < 0.5:
            raise ConfigError(f"crop margin must lie in [0, 0.5), got {self.crop_margin}")

    def to_dict(self) -> dict:
        return {
            "stack": self.stack.to_dict(),
            "corpus": self.corpus.to_dict(),
            "scale_factors": list(self.scale_factors),
            "blocks": list(self.blocks),
            "crop_margin": self.crop_margin,
        }

    @staticmethod
    def from_dict(data: dict) -> "EquivConfig":
        return load(EquivConfig, data)


@dataclass(frozen=True)
class ReportRow:
    kind: str
    block: int
    scale: float
    delta: float
    log10_delta: float
    n: int


@dataclass(frozen=True)
class EquivReport:
    rows: tuple
    metadata: dict
    # Error maps {(kind, block): grid} of the first image at the first scale
    # factor; not part of the CSV or JSON report.
    maps: dict = field(default_factory=dict, compare=False)

    def to_csv_text(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.kind},{r.block},{_fmt(r.scale)},{_fmt(r.delta)},"
                f"{_fmt(r.log10_delta)},{r.n}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        Path(path).write_text(self.to_csv_text())

    def to_json_dict(self) -> dict:
        return {
            "metadata": self.metadata,
            "rows": [
                {
                    "kind": r.kind,
                    "block": r.block,
                    "scale": r.scale,
                    "delta": r.delta,
                    "log10_delta": r.log10_delta,
                    "n": r.n,
                }
                for r in self.rows
            ],
        }

    def write_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n")

    def cell(self, kind: str, block: int, scale: float) -> ReportRow:
        for r in self.rows:
            if r.kind == kind and r.block == block and r.scale == scale:
                return r
        raise KeyError((kind, block, scale))


def _fmt(value: float) -> str:
    return format(value, ".17g")


def _delta_ratio(feats, feats_of_scaled, s: float, margin: float, with_map: bool) -> tuple:
    """One cell's ratio ||T_s F - F(T_s h)||^2 / ||T_s F||^2 over the cropped
    interior and, ``with_map``, the peak-normalized per-pixel error (else None).

    Without a map, T_s F is sampled on the crop window only. With one, it is
    sampled in full for the map and the ratio reads a copy of its window.
    Either way the ratio reduces arrays of the same shape and values.
    """
    rows, cols = crop_window(feats.shape, margin)
    err = None
    if with_map:
        scaled = scale_transform_stack(feats, s, border=BorderPolicy.ZERO)
        err = scaled - feats_of_scaled
        err *= err
        err = np.sum(err, axis=0)
        peak = err.max()
        if peak > 0:
            err /= peak
        window = scaled[..., rows, cols].copy()
    else:
        h, w = feats.shape[-2:]
        xs = np.arange(w, dtype=np.float64)[np.newaxis, cols]
        ys = np.arange(h, dtype=np.float64)[rows, np.newaxis]
        mapping = scale_transform_mapping(feats.shape, s, None)
        window = sample_at(feats, *mapping(xs, ys), BorderPolicy.ZERO)
    num = window - feats_of_scaled[..., rows, cols]
    num *= num
    window *= window
    den_sq = float(np.sum(window))
    if den_sq == 0.0:
        raise SeslabError(
            "equivariance error undefined: scaled feature map is identically zero"
        )
    return float(np.sum(num)) / den_sq, err


def _image_cells(stack: Stack, image, scale_factors, blocks, margin, map_scale=None) -> tuple:
    """Delta cells {(block, s): ratio} of one image, and error maps
    {block: grid} at the scale factor ``map_scale`` (none if it is None)."""
    image = as_grid(image, rank=2, name="image")
    if not np.isfinite(image).all():
        raise SeslabError("image has non-finite pixels; its equivariance error is undefined")
    base = stack.forward(image)
    cells, maps = {}, {}
    for s in scale_factors:
        scaled = stack.forward(scale_transform(image, s, border=BorderPolicy.ZERO))
        for b in blocks:
            cells[(b, s)], grid = _delta_ratio(base[b - 1], scaled[b - 1], s, margin, s == map_scale)
            if grid is not None:
                maps[b] = grid
    return cells, maps


def _check_cell(stack: Stack, s: float, block: int) -> None:
    if not 0.0 < s <= 1.0:
        raise ConfigError(f"scale factor must lie in (0, 1], got {s}")
    if not 1 <= block <= stack.num_blocks:
        raise ConfigError(f"block must lie in 1..{stack.num_blocks}, got {block}")


def equivariance_error(stack: Stack, images, s: float, block: int, crop_margin: float = 0.1) -> float:
    """Mean normalized squared feature difference over ``images``:

        (1/N) sum_i ||T_s F(h_i) - F(T_s h_i)||^2 / ||T_s F(h_i)||^2

    where F is the block's scale-projected activation map and T_s acts
    channel-wise about the feature-map center. A margin of ``crop_margin``
    per side is excluded to keep padding artifacts out.
    """
    _check_cell(stack, s, block)
    ratios = [
        _image_cells(stack, image, (s,), (block,), crop_margin)[0][(block, s)]
        for image in images
    ]
    return math.fsum(ratios) / len(ratios)


def run_experiment(config: EquivConfig) -> EquivReport:
    """Evaluate both stack kinds over the corpus; deterministic per config.

    Corpus items may be evaluated on up to SESLAB_THREADS worker threads, but
    on no more threads than there are images or CPUs; the reduction into
    per-cell means runs in image order either way, so the report is
    byte-identical across thread counts.
    """
    images = config.corpus.load()
    workers = min(thread_count(), len(images), os.cpu_count() or 1)
    map_scales = [config.scale_factors[0]] + [None] * (len(images) - 1)
    rows, maps = [], {}
    for kind in REPORT_KINDS:
        stack = build_stack(replace(config.stack, kind=kind))

        def job(image, map_scale, _stack=stack):
            return _image_cells(
                _stack, image, config.scale_factors, config.blocks, config.crop_margin, map_scale
            )

        if workers <= 1:
            results = list(map(job, images, map_scales))
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(job, images, map_scales))
        maps.update({(kind, block): grid for block, grid in results[0][1].items()})
        for block in config.blocks:
            for s in config.scale_factors:
                values = [cells[(block, s)] for cells, _ in results]
                delta = math.fsum(values) / len(values)
                if not math.isfinite(delta):
                    raise SeslabError(f"{kind} block {block} at scale {s}: mean delta is {delta}")
                log10 = math.log10(delta) if delta > 0.0 else float("-inf")
                rows.append(ReportRow(kind, block, float(s), delta, log10, len(values)))
    metadata = {"config": config.to_dict(), "kinds": list(REPORT_KINDS)}
    return EquivReport(rows=tuple(rows), metadata=metadata, maps=maps)


def error_map(stack: Stack, image, s: float, block: int) -> np.ndarray:
    """Per-pixel squared feature error summed over channels, peak-normalized.

    Returns an [H, W] grid scaled so its maximum is 1 (all-zero maps stay
    all zero, which is the s = 1 case). Like :func:`equivariance_error`, it
    raises SeslabError when the scaled feature map is identically zero.
    """
    _check_cell(stack, s, block)
    return _image_cells(stack, image, (s,), (block,), 0.0, map_scale=s)[1][block]
