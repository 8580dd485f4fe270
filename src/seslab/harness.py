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
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .conv import conv2d_scratch
from .errors import ConfigError, SeslabError, as_real, check_fields, dump, is_integer, load
from .fileio import read_pgm, read_pgm_header, write_json
from .grid import BorderPolicy, as_grid, check_fits_memory, crop_window, within
from .resample import _warp, scale_transform_mapping
from .sesconv import KINDS, Stack, StackSpec, build_stack, check_stack_fits
from .synth import KINDS as IMAGE_KINDS, MIN_EXTENT, corpus_seeds, synth_image

THREADS_ENV = "SESLAB_THREADS"
CSV_HEADER = "kind,block,scale,delta,log10_delta,n"


def thread_count() -> int:
    raw = os.environ.get(THREADS_ENV, "1").strip() or "1"
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ConfigError(f"{THREADS_ENV} must be >= 1, got {raw!r}")
    return value


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
        if self.seed < 0:
            raise ConfigError(f"corpus seed must be >= 0, got {reprlib.repr(self.seed)}")
        if self.image_dir is None:
            if self.kind not in IMAGE_KINDS:
                raise ConfigError(f"corpus kind must be one of {IMAGE_KINDS}, got {reprlib.repr(self.kind)}")
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
        image_dir corpus parses each PGM header alone (fileio.read_pgm_header),
        and a synthetic corpus derives its image seeds on the first load."""
        if self.image_dir is not None:
            paths = sorted(Path(self.image_dir).glob("*.pgm"))
            if not paths:
                raise ConfigError(f"no .pgm images found in {self.image_dir}")
            return Counter(map(read_pgm_header, paths)), lambda i: read_pgm(paths[i])
        lock, seeds = threading.Lock(), []

        def load(i):
            with lock:  # one derivation, whichever worker loads first
                if not seeds:
                    seeds.append(corpus_seeds(self.seed, self.count))
            return synth_image(self.kind, self.height, self.width, int(seeds[0][i]))

        return Counter({(self.height, self.width): self.count}), load

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


def _delta_ratio(scaled_feats, feats_of_scaled, crop, with_map: bool) -> tuple:
    """One cell's ratio ||T_s F - F(T_s h)||^2 / ||T_s F||^2 over the crop
    window and, ``with_map``, the peak-normalized per-pixel error (else None).

    T_s F (``scaled_feats``, squared in place) and F(T_s h) are [C, h, w]
    readouts of one window; ``crop`` is the crop window within it. The squared
    difference overwrites F(T_s h), which the caller gives up. The sums read contiguous copies of the crop, which are
    the arrays themselves when the window is the crop: equal arrays,
    whichever window a cell reads. Raises SeslabError, before the map is
    normalized, if either sum is not finite or if T_s F is zero on the crop.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        err = np.subtract(scaled_feats, feats_of_scaled, out=feats_of_scaled)
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
    ``_warp`` samples T_s h on the frame and T_s F(h) on the window, with zero
    fill; F(T_s h) runs on the window (Stack.forward reads only the window's
    receptive field) and F(h) on the frame. Only layers up to max(blocks) run;
    none depends on a later one.
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
        t_s = scale_transform_mapping(image.shape, s)
        scaled = stack.forward(_warp(image, image.shape, t_s, BorderPolicy.ZERO, frame), read)
        for b in blocks:
            cells[(b, s)], grid = _delta_ratio(
                _warp(base[b - 1], image.shape, t_s, BorderPolicy.ZERO, read), scaled[b - 1],
                within(crop, read), s == map_scale,
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


def _measurement_values(layers, height, width) -> float:
    """At most the doubles that ``_image_cells`` holds measuring one image of
    height x width through ``layers``, counted as if all were alive at once
    and every map at the image's extents (the error maps' cells read the
    frame): the image and T_s h; the base forward's readouts; the scaled
    forward's block maxima and its one [C, h, w] scale slice, with the
    largest ``conv2d_scratch``; and one cell's T_s F, with two more of its
    size (the sampler's pass, or ``_delta_ratio``'s two crop copies) and the
    error map."""
    pixels, channels, convs = as_real(height) * as_real(width), 1.0, []
    for layer in layers:
        out = as_real(layer.out_channels)
        convs.append(conv2d_scratch(channels, out, as_real(layer.k), as_real(height), as_real(width)))
        channels = out
    blocks = sum(as_real(layer.out_channels) for layer in layers)
    widest = max(as_real(layer.out_channels) for layer in layers)
    # image and T_s h; both forwards' blocks; the slice; T_s F, two of its size, the map
    return pixels * (2 + 2 * blocks + widest + 3 * widest + 1) + max(convs)


def _plan(config: EquivConfig, extents, workers: int) -> tuple:
    """The spec of each kind, cut to max(blocks) layers, as no layer depends on
    a later one. Raise ConfigError unless every crop window keeps a pixel and
    the run fits in physical memory: each stack (``check_stack_fits``),
    ``workers`` images of the largest extent, each with what its measurement
    holds (``_measurement_values``), and the cells of every image, plus its
    4-byte seed if the corpus is synthetic. Nothing of it grows with the
    number of scales: a forward holds one scale slice at a time. Raise
    DegenerateGeometryError, as ``scale_transform_mapping`` does, unless every
    scale factor maps every extent's pixels to finite points."""
    layers = config.stack.layers[: max(config.blocks)]
    specs = tuple(replace(config.stack, kind=kind, layers=layers) for kind in KINDS)
    count = extents.total()
    weights = sum(map(check_stack_fits, specs))
    height, width = max(extents, key=lambda extent: as_real(extent[0]) * as_real(extent[1]))
    cells = len(KINDS) * len(config.blocks) * len(config.scale_factors)
    synthetic = config.corpus.image_dir is None  # then each image has a 4-byte seed, half a double
    n, h, w = map(reprlib.repr, (count, height, width))
    check_fits_memory(
        workers * _measurement_values(layers, height, width)
        + as_real(count) * (cells + 0.5 * synthetic) + weights,
        f"corpus of {n} images (the largest {h}x{w}) on {workers} worker(s), each holding an image, "
        f"its forwards' readouts, one scale slice and one cell's maps, and {cells} cells"
        f"{' and a seed' * synthetic} per image, and each stack's bases, kernels and calibration",
    )
    for extent in extents:
        crop_window(extent, config.crop_margin)
        for s in config.scale_factors:
            scale_transform_mapping(extent, s)
    return specs


def run_experiment(config: EquivConfig, maps: bool = True) -> EquivReport:
    """Evaluate both stack kinds over the corpus; deterministic per config.

    With ``maps``, the report also carries the error maps of the first image
    at the first scale factor; without, ``report.maps`` is empty. The rows do
    not depend on it.

    The corpus and both stacks are planned before any stack is built or
    pixel read. The run holds one [count, kinds, blocks, scales] array of
    cells, as planned, and up to SESLAB_THREADS workers (no more than images
    or CPUs): worker w loads images w, w + workers, ... in turn and runs
    each through both stacks. Cell means sum in image order, so reports are
    byte-identical across thread counts.
    """
    extents, load = config.corpus.describe()
    count = extents.total()
    workers = min(thread_count(), count, os.cpu_count() or 1)
    stacks = [build_stack(spec) for spec in _plan(config, extents, workers)]
    factors, blocks = config.scale_factors, config.blocks
    deltas = np.empty((count, len(KINDS), len(blocks), len(factors)))
    grids, rows, failed = {}, [], []

    def share(w):
        for index in range(w, count, workers):
            if failed:  # another share raised; the pool cannot stop a running share
                return
            try:
                image, map_scale = load(index), (factors[0] if maps and index == 0 else None)
                for k, stack in enumerate(stacks):
                    cells, kind_maps = _image_cells(stack, image, factors, blocks, config.crop_margin, map_scale)
                    deltas[index, k] = [[cells[(b, s)] for s in factors] for b in blocks]
                    grids.update({(stack.kind, b): grid for b, grid in kind_maps.items()})
            except BaseException:
                failed.append(index)
                raise
            del image  # freed before the next load: a worker holds one image

    if workers <= 1:
        share(0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(share, range(workers)))
    for k, i, j in np.ndindex(deltas.shape[1:]):
        kind, block, s = KINDS[k], blocks[i], factors[j]
        delta = math.fsum(deltas[:, k, i, j]) / count
        if not math.isfinite(delta):
            raise SeslabError(f"{kind} block {block} at scale {s}: mean delta is {delta}")
        rows.append(ReportRow(kind, block, float(s), delta, math.log10(delta) if delta > 0.0 else -math.inf, count))
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
