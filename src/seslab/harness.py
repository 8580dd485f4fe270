"""Equivariance-error measurement of stacks over image corpora.

The measurement compares, per block and per scale factor, the scaled
feature map against the feature map of the scaled image, normalized by the
scaled feature energy. The ses and vanilla stacks are built from identical
seed-derived coefficients so the comparison isolates the architecture.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, SeslabError, check_fields, dump, load
from .fileio import read_pgm, write_json
from .grid import BorderPolicy, as_grid, crop_window
from .resample import sample_at, scale_transform, scale_transform_mapping, scale_transform_stack
from .sesconv import KINDS, Stack, StackSpec, build_stack
from .synth import MIN_EXTENT, synth_corpus

THREADS_ENV = "SESLAB_THREADS"
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
        if self.image_dir is None:
            if self.count < 1:
                raise ConfigError(f"corpus count must be >= 1, got {self.count}")
            for name, extent in (("height", self.height), ("width", self.width)):
                if extent < MIN_EXTENT:
                    raise ConfigError(
                        f"corpus {name} must be >= {MIN_EXTENT} for synthetic images, got {extent}"
                    )

    def load(self) -> list:
        if self.image_dir is not None:
            paths = sorted(Path(self.image_dir).glob("*.pgm"))
            if not paths:
                raise ConfigError(f"no .pgm images found in {self.image_dir}")
            return [read_pgm(p) for p in paths]
        return synth_corpus(self.kind, self.count, self.height, self.width, self.seed)


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
        if self.corpus.image_dir is None:
            crop_window((self.corpus.height, self.corpus.width), self.crop_margin)

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
    # factor, empty unless asked for; not part of the CSV or JSON report.
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

    def write_json(self, path) -> None:
        write_json(path, {"metadata": self.metadata, "rows": [dump(r) for r in self.rows]})

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

    ``feats_of_scaled`` is F(T_s h) over the whole frame with a map, else over
    the crop window only. Without a map, T_s F is sampled on the crop window
    only too. With one, it is sampled in full for the map and the ratio reads
    a copy of its window. Either way the ratio reduces arrays of the same
    shape and values.
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
        feats_of_scaled = feats_of_scaled[..., rows, cols]
    else:
        h, w = feats.shape[-2:]
        xs = np.arange(w, dtype=np.float64)[np.newaxis, cols]
        ys = np.arange(h, dtype=np.float64)[rows, np.newaxis]
        mapping = scale_transform_mapping(feats.shape, s)
        window = sample_at(feats, *mapping(xs, ys), BorderPolicy.ZERO)
    num = window - feats_of_scaled
    num *= num
    window *= window
    den_sq = float(np.sum(window))
    if den_sq == 0.0:
        raise SeslabError(
            "equivariance error undefined: scaled feature map is identically zero"
        )
    return float(np.sum(num)) / den_sq, err


def _receptive_box(shape: tuple, margin: float, layers) -> tuple:
    """The part of an [H, W] frame that the outputs of ``layers`` read on the
    crop window, as slices: the box of the frame, and the window within it.

    The box is the crop window dilated by the reach R = sum((k - 1) // 2)
    over ``layers`` and clipped to the frame.
    """
    reach = sum((layer.k - 1) // 2 for layer in layers)
    box, window = [], []
    for extent, inner in zip(shape, crop_window(shape, margin)):
        start = max(inner.start - reach, 0)
        box.append(slice(start, min(inner.stop + reach, extent)))
        window.append(slice(inner.start - start, inner.stop - start))
    return tuple(box), tuple(window)


def _image_cells(stack: Stack, image, scale_factors, blocks, margin, map_scale=None) -> tuple:
    """Delta cells {(block, s): ratio} of one image, and error maps
    {block: grid} at the scale factor ``map_scale`` (none if it is None).

    F(h) and the map's F(T_s h) run on the whole frame, since T_s F and the
    map read all of it. Every other F(T_s h) runs on the receptive box of the
    crop window (:func:`_receptive_box`), a cropped copy of T_s h, and its
    cells read the crop window out of that smaller output. They get the
    whole-frame values bit for bit. Zero-fill at a box edge that is a frame
    edge is what the whole-frame forward pads too; at an edge inside the
    frame it is wrong, and each layer of extent k carries that error
    (k - 1) // 2 pixels further in, so at most R pixels into any block
    output up to max(blocks). The window lies R pixels inside such edges.
    conv2d sums in an order that does not depend on a pixel's position, and
    the frozen norm, ReLU and scale projection act pixel by pixel.
    """
    image = as_grid(image, rank=2, name="image")
    if not np.isfinite(image).all():
        raise SeslabError("image has non-finite pixels; its equivariance error is undefined")
    base = stack.forward(image)
    box, window = _receptive_box(image.shape, margin, stack.spec.layers[: max(blocks)])
    cells, maps = {}, {}
    for s in scale_factors:
        with_map = s == map_scale
        scaled_image = scale_transform(image, s, border=BorderPolicy.ZERO)
        scaled = stack.forward(scaled_image if with_map else scaled_image[box])
        for b in blocks:
            feats_of_scaled = scaled[b - 1] if with_map else scaled[b - 1][(..., *window)]
            cells[(b, s)], grid = _delta_ratio(base[b - 1], feats_of_scaled, s, margin, with_map)
            if grid is not None:
                maps[b] = grid
        del scaled, feats_of_scaled  # freed before the next forward allocates its own
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


def run_experiment(config: EquivConfig, maps: bool = True) -> EquivReport:
    """Evaluate both stack kinds over the corpus; deterministic per config.

    With ``maps``, the report also carries the error maps of the first image
    at the first scale factor; without, ``report.maps`` is empty. The rows do
    not depend on it.

    Corpus items may be evaluated on up to SESLAB_THREADS worker threads, but
    on no more threads than there are images or CPUs; the reduction into
    per-cell means runs in image order either way, so the report is
    byte-identical across thread counts.
    """
    images = config.corpus.load()
    for image in images:  # a margin too wide for an image fails before any forward pass
        crop_window(np.shape(image), config.crop_margin)
    workers = min(thread_count(), len(images), os.cpu_count() or 1)
    map_scales = [config.scale_factors[0] if maps else None] + [None] * (len(images) - 1)
    rows, grids = [], {}
    for kind in KINDS:
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
        grids.update({(kind, block): grid for block, grid in results[0][1].items()})
        for block in config.blocks:
            for s in config.scale_factors:
                values = [cells[(block, s)] for cells, _ in results]
                delta = math.fsum(values) / len(values)
                if not math.isfinite(delta):
                    raise SeslabError(f"{kind} block {block} at scale {s}: mean delta is {delta}")
                log10 = math.log10(delta) if delta > 0.0 else float("-inf")
                rows.append(ReportRow(kind, block, float(s), delta, log10, len(values)))
    metadata = {"config": dump(config), "kinds": list(KINDS)}
    return EquivReport(rows=tuple(rows), metadata=metadata, maps=grids)


def error_map(stack: Stack, image, s: float, block: int) -> np.ndarray:
    """Per-pixel squared feature error summed over channels, peak-normalized.

    Returns an [H, W] grid scaled so its maximum is 1 (all-zero maps stay
    all zero, which is the s = 1 case). Like :func:`equivariance_error`, it
    raises SeslabError when the scaled feature map is identically zero.
    """
    _check_cell(stack, s, block)
    return _image_cells(stack, image, (s,), (block,), 0.0, map_scale=s)[1][block]
