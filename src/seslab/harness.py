"""Equivariance-error measurement of stacks over image corpora.

The measurement compares, per block and per scale factor, the scaled
feature map against the feature map of the scaled image, normalized by the
scaled feature energy. The ses and vanilla stacks are built from identical
seed-derived coefficients so the comparison isolates the architecture.
"""

from __future__ import annotations

import math
import os
import reprlib
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, SeslabError, as_real, check_fields, dump, is_integer, load
from .fileio import read_pgm, read_pgm_header, write_json
from .grid import BorderPolicy, as_grid, check_fits_memory, crop_window, within
from .resample import sample_at, scale_transform_mapping
from .sesconv import KINDS, Stack, StackSpec, build_stack
from .synth import MIN_EXTENT, corpus_seeds, synth_image

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

    def describe(self) -> tuple:
        """(extents, load): a Counter of the images per (height, width), and
        load(i), which reads or synthesizes image i. Reads no pixel: an
        image_dir corpus parses each PGM header alone (fileio.read_pgm_header)."""
        if self.image_dir is not None:
            paths = sorted(Path(self.image_dir).glob("*.pgm"))
            if not paths:
                raise ConfigError(f"no .pgm images found in {self.image_dir}")
            return Counter(map(read_pgm_header, paths)), lambda i: read_pgm(paths[i])
        return Counter({(self.height, self.width): self.count}), lambda i: synth_image(
            self.kind, self.height, self.width, int(corpus_seeds(self.seed, i + 1)[i])
        )

    def load(self) -> list:
        """Every image of the corpus, in order."""
        extents, load = self.describe()
        return [load(i) for i in range(extents.total())]


def _check_cells(scale_factors, blocks, num_blocks: int) -> tuple:
    """The scale factors as floats. Raises ConfigError unless they are reals whose
    floats are distinct and lie in (0, 1] and the block indices distinct integers
    in 1..num_blocks, one or more of each; bools are neither."""
    factors = tuple(map(as_real, scale_factors))
    if not factors or not all(0 < s <= 1 for s in factors) or len(set(factors)) < len(factors):
        raise ConfigError(
            f"scale factors must be one or more distinct reals in (0, 1], got {reprlib.repr(scale_factors)}"
        )
    in_range = all(is_integer(b) and 1 <= b <= num_blocks for b in blocks)
    if not (blocks and in_range) or len(set(blocks)) < len(blocks):
        raise ConfigError(
            f"block indices must be one or more distinct integers in 1..{num_blocks}, got {reprlib.repr(blocks)}"
        )
    return factors


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
        if self.stack.kind != "ses":
            raise ConfigError(f"stack.kind must be 'ses' (both kinds are run), got {reprlib.repr(self.stack.kind)}")
        _check_cells(self.scale_factors, self.blocks, len(self.stack.layers))

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


def _sample_scaled(grid, s: float, window) -> np.ndarray:
    """T_s of an [..., H, W] grid, zero-filled, on the (rows, cols) slices
    ``window`` of its frame only: the window of the whole-frame T_s, bit for bit."""
    rows, cols = window
    h, w = grid.shape[-2:]
    xs = np.arange(w, dtype=np.float64)[np.newaxis, cols]
    ys = np.arange(h, dtype=np.float64)[rows, np.newaxis]
    return sample_at(grid, *scale_transform_mapping(grid.shape, s)(xs, ys), BorderPolicy.ZERO)


def _delta_ratio(scaled_feats, feats_of_scaled, crop, with_map: bool) -> tuple:
    """One cell's ratio ||T_s F - F(T_s h)||^2 / ||T_s F||^2 over the crop
    window and, ``with_map``, the peak-normalized per-pixel error (else None).

    T_s F (``scaled_feats``, squared in place) and F(T_s h) are [C, h, w]
    readouts of one window; ``crop`` is the crop window within it. The sums
    read contiguous copies of the crop, which are the arrays themselves when
    the window is the crop: equal arrays, whichever window a cell reads.
    Raises SeslabError, before the map is normalized, if either sum is not
    finite or if T_s F is zero on the crop.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        err = scaled_feats - feats_of_scaled
        err *= err
        grid = np.sum(err, axis=0) if with_map else None
        num = np.ascontiguousarray(err[(..., *crop)])
        den = np.ascontiguousarray(scaled_feats[(..., *crop)])
        den *= den
        num_sq, den_sq = float(np.sum(num)), float(np.sum(den))
    if not (math.isfinite(num_sq) and math.isfinite(den_sq)):
        raise SeslabError("equivariance error undefined: squared features do not sum to a finite number")
    if den_sq == 0.0:
        raise SeslabError("equivariance error undefined: scaled feature map is identically zero")
    if with_map:
        peak = grid.max()
        if peak > 0:
            grid /= peak
    return num_sq / den_sq, grid


def _image_cells(stack: Stack, image, scale_factors, blocks, margin, map_scale=None) -> tuple:
    """Delta cells {(block, s): ratio} of one image, and error maps
    {block: grid} at the scale factor ``map_scale`` (none if it is None).

    Every cell reads a window: the crop window, or the frame at ``map_scale``.
    T_s h is sampled on the frame, F(T_s h) runs on the window (Stack.forward
    reads only the window's receptive field), and T_s F(h) is sampled on the
    window. F(h) runs on the frame. Only layers up to max(blocks) run; none
    depends on a later one.
    """
    image = as_grid(image, rank=2, name="image")
    if not np.isfinite(image).all():
        raise SeslabError("image has non-finite pixels; its equivariance error is undefined")
    crop, frame = crop_window(image.shape, margin), crop_window(image.shape, 0.0)
    n = max(blocks)
    spec = replace(stack.spec, layers=stack.spec.layers[:n])
    stack = replace(stack, spec=spec, banks=stack.banks[:n], norm_stats=stack.norm_stats[: n - 1])
    base = stack.forward(image)
    cells, maps = {}, {}
    for s in scale_factors:
        read = frame if s == map_scale else crop
        scaled = stack.forward(_sample_scaled(image, s, frame), read)
        for b in blocks:
            cells[(b, s)], grid = _delta_ratio(
                _sample_scaled(base[b - 1], s, read), scaled[b - 1], within(crop, read), s == map_scale
            )
            if grid is not None:
                maps[b] = grid
        del scaled  # freed before the next forward allocates its own
    return cells, maps


def equivariance_error(stack: Stack, images, s: float, block: int, crop_margin: float = 0.1) -> float:
    """Mean normalized squared feature difference over ``images``:

        (1/N) sum_i ||T_s F(h_i) - F(T_s h_i)||^2 / ||T_s F(h_i)||^2

    where F is the block's scale-projected activation map and T_s acts
    channel-wise about the feature-map center. A margin of ``crop_margin``
    per side is excluded to keep padding artifacts out.
    """
    (s,) = _check_cells((s,), (block,), stack.num_blocks)
    ratios = [
        _image_cells(stack, image, (s,), (block,), crop_margin)[0][(block, s)]
        for image in images
    ]
    if not ratios:
        raise ConfigError("at least one image is required")
    return math.fsum(ratios) / len(ratios)


def _plan(config: EquivConfig, extents, workers: int) -> None:
    """Raise ConfigError unless every crop window keeps a pixel and the run fits
    in physical memory: ``workers`` images of the largest extent, each with one
    forward's largest [S, C, h, w] map, and the cells of every image."""
    stack, count = config.stack, extents.total()
    channels = max(layer.out_channels for layer in stack.layers[: max(config.blocks)])
    height, width = max(extents, key=lambda extent: as_real(extent[0]) * as_real(extent[1]))
    cells = len(KINDS) * len(config.blocks) * len(config.scale_factors)
    n, h, w = map(reprlib.repr, (count, height, width))
    check_fits_memory(
        workers * as_real(height) * as_real(width) * (1 + stack.num_scales * channels) + as_real(count) * cells,
        f"corpus of {n} images (the largest {h}x{w}) on {workers} worker(s), each holding an image "
        f"and a [{stack.num_scales}, {channels}, {h}, {w}] forward map, and {cells} cells per image",
    )
    for extent in extents:
        crop_window(extent, config.crop_margin)


def run_experiment(config: EquivConfig, maps: bool = True) -> EquivReport:
    """Evaluate both stack kinds over the corpus; deterministic per config.

    With ``maps``, the report also carries the error maps of the first image
    at the first scale factor; without, ``report.maps`` is empty. The rows do
    not depend on it.

    The corpus is planned before any stack is built or pixel read. A job is one
    image, loaded, run through each kind's stack and dropped. Jobs run on up to
    SESLAB_THREADS worker threads, but on no more threads than there are images
    or CPUs; the reduction into per-cell means runs in image order either way,
    so the report is byte-identical across thread counts.
    """
    extents, load = config.corpus.describe()
    count = extents.total()
    workers = min(thread_count(), count, os.cpu_count() or 1)
    _plan(config, extents, workers)
    # No layer's weights or frozen statistics depend on a later layer.
    layers = config.stack.layers[: max(config.blocks)]
    stacks = [build_stack(replace(config.stack, kind=kind, layers=layers)) for kind in KINDS]

    def job(index):
        image = load(index)
        map_scale = config.scale_factors[0] if maps and index == 0 else None
        args = (config.scale_factors, config.blocks, config.crop_margin, map_scale)
        return [_image_cells(stack, image, *args) for stack in stacks]

    if workers <= 1:
        results = list(map(job, range(count)))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(job, range(count)))
    rows, grids = [], {}
    for k, kind in enumerate(KINDS):
        grids.update({(kind, block): grid for block, grid in results[0][k][1].items()})
        for block in config.blocks:
            for s in config.scale_factors:
                values = [result[k][0][(block, s)] for result in results]
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
    (s,) = _check_cells((s,), (block,), stack.num_blocks)
    return _image_cells(stack, image, (s,), (block,), 0.0, map_scale=s)[1][block]
