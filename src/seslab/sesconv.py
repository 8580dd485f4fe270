"""Scale-equivariant steerable convolution layers and comparison stacks."""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .basis import ScaleSet, SteerableBasis, build_basis, check_basis_fits, check_scale_count, scale_set_from_alpha
from .conv import conv2d, conv2d_scratch
from .errors import ConfigError, SeslabError, ShapeError, as_real, check_fields, is_integer
from .grid import BorderPolicy, as_grid, check_fits_memory, check_window, crop, dilate, within
from .resample import scale_transform, scale_transform_stack
from .synth import synth_image

KINDS = ("ses", "vanilla")
NONLINEARITIES = ("relu", "none")

# Canonical scale sets top out at sigma = 1, which is badly undersampled on
# an integer grid. Banks therefore stretch every sigma by a shared base
# width; the sigma_i / sigma_j ratios that drive the equivariance identity
# are unchanged.
DEFAULT_BASE_SIGMA = 2.8


@dataclass(frozen=True)
class SesFilterBank:
    """Trainable coefficients plus the kernels synthesized per basis scale.

    kernels[s] = scale_gains[s] * sum_b weights[..., b] * basis.filters[s, b].
    The shared coefficient tensor makes the trainable parameter count
    independent of the number of scales. Plain banks use unit gains; stacks
    use gains sigma_top / sigma_s, which restores the analytic 1/sigma^2
    cross-scale amplitude law on top of the unit-l2 stored filters and turns
    the matched-scale convolution identity into its clean, factor-free form.
    """

    weights: np.ndarray  # [O, C, num_basis]
    basis: SteerableBasis
    kernels: np.ndarray  # [S, O, C, k, k]
    scale_gains: tuple

    @property
    def num_scales(self) -> int:
        return self.kernels.shape[0]

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    def sigma(self, index: int) -> float:
        return self.basis.sigmas.sigmas[index]

    def gain(self, index: int) -> float:
        return self.scale_gains[index]


def paper_scale_gains(sigmas) -> tuple:
    """Per-scale kernel gains sigma_top / sigma_s (largest scale anchored at 1)."""
    top = sigmas.sigmas[-1]
    return tuple(top / s for s in sigmas.sigmas)


def combine(weights, basis: SteerableBasis, scale_gains=None) -> SesFilterBank:
    """Synthesize and cache per-scale kernels from coefficients and a basis."""
    weights = as_grid(weights, rank=3, name="weights")
    if weights.shape[2] != basis.num_basis:
        raise ShapeError(
            f"weights address {weights.shape[2]} basis members, "
            f"basis has {basis.num_basis}"
        )
    if scale_gains is None:
        gains = (1.0,) * basis.num_scales
    else:
        gains = tuple(float(g) for g in scale_gains)
        if len(gains) != basis.num_scales:
            raise ShapeError(
                f"{len(gains)} scale gains for {basis.num_scales} basis scales"
            )
    kernels = np.einsum(
        "s,ocb,sbij->socij", np.asarray(gains), weights, basis.filters
    )
    weights = weights.copy()
    weights.setflags(write=False)
    kernels.setflags(write=False)
    return SesFilterBank(
        weights=weights, basis=basis, kernels=kernels, scale_gains=gains
    )


def ses_conv_input(image, bank: SesFilterBank, border: BorderPolicy = BorderPolicy.ZERO):
    """Convolve a [C, H, W] grid once per scale into [S, O, H, W], as one conv2d
    of the [S*O, C, k, k] kernels. Nothing in seslab calls it (the forward
    convolves one scale at a time), so its traced span reads 0."""
    kernels = bank.kernels.reshape((-1,) + bank.kernels.shape[2:])
    out = conv2d(image, kernels, border)
    return out.reshape((bank.num_scales, bank.out_channels) + out.shape[1:])


def ses_conv_scalewise(x, bank: SesFilterBank, border: BorderPolicy = BorderPolicy.ZERO):
    """Convolve each scale slice of a [S, C, H, W] map with its own-scale kernel;
    no scale mixing happens inside the convolution. Nothing in seslab calls
    it, so its traced span reads 0."""
    x = as_grid(x, rank=4, name="features")
    if x.shape[0] != bank.num_scales:
        raise ShapeError(
            f"feature map has {x.shape[0]} scales, bank has {bank.num_scales}"
        )
    return np.stack([conv2d(x_s, kernels, border) for kernels, x_s in zip(bank.kernels, x)])


def scale_projection(x) -> np.ndarray:
    """Elementwise max over the scale axis: [S, C, H, W] -> [C, H, W], a new
    array. Nothing in seslab calls it, so its traced span reads 0."""
    return as_grid(x, rank=4, name="features").max(axis=0)


_SUM_BLOCK = 1 << 15  # values per pass of _exact_sum: the block's temporaries stay in L2
_EXACT_COUNT = 1 << 25  # values per run of bin sums; each bin sum is exact below 2**26
_HI_BITS = ~np.int64((1 << 27) - 1)  # clears the low 27 of the 52 stored significand bits
_BINS = 1 << 12  # a bin per sign and exponent field, the top 12 bits of a float64


def _exact_sum(flat: np.ndarray) -> float:
    """math.fsum(flat) of a contiguous float64 vector, bit for bit.

    Each value splits exactly into hi = its bits with the low 27 cleared
    (26 significant bits) and lo = value - hi (at most 27 bits). Binned by
    sign and exponent field, the hi parts of one bin are multiples of one
    power of two q below 2**26 q, and the lo parts multiples of q / 2**27
    below q. So any partial sum of fewer than 2**26 of them is exact, in any
    order, and fsum of the few nonzero bin sums is the correctly rounded total.
    Where fsum's running sum of the bin sums overflows though the total need
    not, the bin sums are added as integers in units of 2**-1074 and divided
    once, which rounds correctly too. The result is inf or nan if a value is
    not finite, or if the values of one sign and binade, or all of them, sum
    past the float64 range.
    """
    sums = np.zeros((-(-flat.size // _EXACT_COUNT), 2, _BINS))
    for start in range(0, flat.size, _SUM_BLOCK):
        block = flat[start : start + _SUM_BLOCK]
        bins = (block.view(np.uint64) >> 52).view(np.int64)
        hi = (block.view(np.int64) & _HI_BITS).view(np.float64)
        run = sums[start // _EXACT_COUNT]
        run[0] += np.bincount(bins, hi, minlength=_BINS)
        run[1] += np.bincount(bins, np.subtract(block, hi, out=hi), minlength=_BINS)
    terms = sums[sums != 0].tolist()
    try:
        return math.fsum(terms)
    except ValueError:  # inf - inf
        return math.nan
    except OverflowError:  # a running sum of finite terms overflowed
        pass
    units = sum(n << (1075 - d.bit_length()) for n, d in map(float.as_integer_ratio, terms))
    try:
        return units / (1 << 1074)
    except OverflowError:  # the total is past the float64 range
        return math.nan


def _exact_mean_var(values: np.ndarray) -> tuple:
    # Exact two-pass statistics: an exact sum is a function of the value
    # multiset only, so normalization commutes bit-for-bit with circular
    # spatial shifts.
    flat = np.ascontiguousarray(values).ravel()
    mean = _exact_sum(flat) / flat.size
    centered = flat - mean
    var = _exact_sum(np.multiply(centered, centered, out=centered)) / flat.size
    return mean, var


def se_norm(x) -> np.ndarray:
    """Forward-only 3D normalization per channel across (scale, H, W), into a new array."""
    x = as_grid(x, rank=4, name="features")
    return _normalize_in_place(x.copy(), _channel_stats(x))


def relu(x: np.ndarray) -> np.ndarray:
    """Rectify a float64 array in place and return it."""
    return np.maximum(x, 0.0, out=x)


@dataclass(frozen=True)
class LayerSpec:
    out_channels: int
    k: int = 7
    nonlinearity: str = "relu"

    def __post_init__(self):
        check_fields(self)
        if self.out_channels < 1:
            raise ConfigError(f"out_channels must be >= 1, got {self.out_channels}")
        if self.k < 1 or self.k % 2 == 0:
            raise ConfigError(f"layer kernel extent must be odd, got {self.k}")
        if self.nonlinearity not in NONLINEARITIES:
            raise ConfigError(
                f"nonlinearity must be one of {NONLINEARITIES}, got {self.nonlinearity!r}"
            )


@dataclass(frozen=True)
class StackSpec:
    """Description of a small comparison stack.

    Both kinds draw identical seed-derived coefficients; the vanilla variant
    is a single-scale SES stack on the largest-scale kernels, so any
    equivariance gap between the two is architectural rather than an
    initialization artifact. The first layer consumes the raw image; each
    later layer applies normalization, its own nonlinearity, then its
    convolution. Reported block outputs are the scale-projected per-layer
    convolution results.
    """

    kind: str = "ses"
    layers: tuple[LayerSpec, ...] = (LayerSpec(4, 11), LayerSpec(4, 11), LayerSpec(4, 11), LayerSpec(4, 11))
    alpha: float = 0.1
    num_scales: int = 3
    seed: int = 0
    base_sigma: float = DEFAULT_BASE_SIGMA
    max_order: int = 3

    def __post_init__(self):
        check_fields(self)
        if self.kind not in KINDS:
            raise ConfigError(f"stack kind must be one of {KINDS}, got {self.kind!r}")
        if not self.layers:
            raise ConfigError("stack needs at least one layer")
        if self.seed < 0:
            raise ConfigError(f"stack seed must be >= 0, got {reprlib.repr(self.seed)}")
        if not self.base_sigma > 0:
            raise ConfigError(f"base_sigma must be positive, got {self.base_sigma}")
        if self.max_order < 0:
            raise ConfigError(f"max_order must be >= 0, got {self.max_order}")
        for layer in self.layers:
            if (self.max_order + 1) ** 2 > layer.k * layer.k:
                raise ConfigError(
                    f"max_order {self.max_order} needs more than {layer.k}x{layer.k} "
                    f"pixels per filter"
                )
        check_scale_count("num_scales", self.num_scales)
        scale_set_from_alpha(self.alpha, self.num_scales)  # validates alpha

    def scale_set(self) -> ScaleSet:
        """The sigmas of every bank: num_scales of them, or vanilla's largest alone."""
        count = self.num_scales if self.kind == "ses" else 1
        return scale_set_from_alpha(self.alpha, count).scaled(self.base_sigma)


CALIBRATION_SIZE = 96


@dataclass(frozen=True)
class Stack:
    """An immutable stack of banks; forward passes are pure.

    Normalization layers run inference-style: their per-channel statistics
    are frozen at build time (calibrated once on a seed-derived probe
    image), so each norm is a fixed affine map. Per-input statistics would
    make the normalization itself scale-sensitive and mask the
    convolutional equivariance the harness measures. Every convolution
    zero-fills its border.
    """

    spec: StackSpec
    banks: tuple
    norm_stats: tuple  # per layer >= 2: (mean[C], var[C])

    def __post_init__(self):
        channels = [bank.in_channels for bank in self.banks[1:]]
        shapes = [tuple(np.shape(a) for a in pair) for pair in self.norm_stats]
        if shapes != [((c,), (c,)) for c in channels]:
            raise ShapeError(
                f"norm_stats must hold one (mean[C], var[C]) pair per layer after the first, "
                f"C being its input channels {channels}; got shapes {shapes}"
            )

    @property
    def kind(self) -> str:
        return self.spec.kind

    @property
    def num_blocks(self) -> int:
        return len(self.banks)

    @property
    def weight_count(self) -> int:
        return sum(b.weights.size for b in self.banks)

    def forward(self, image, window=None) -> list:
        """Per-block [C, h, w] activations of a rank-2 image on ``window``, its
        (rows, cols) slices, or on the whole image if ``window`` is None.

        Each layer runs only where later layers read it: on the window dilated
        by the reach (k - 1) // 2 of each later layer, clipped to the image. It
        zero-fills only past the image's edges, so every block equals the
        window of the whole-image block bit for bit. No layer mixes scales, so
        the scale slices run through the whole stack one after another. Each
        block is the window of slice 0's map, into which every later slice's
        window folds by ``np.maximum``, in slice order as ``scale_projection``
        takes it. The last layer writes exactly the window, so ``_layers``
        convolves each slice straight into the last block, and folds it there;
        the forward copies and folds the earlier blocks. The blocks are views
        of one new array, so a forward makes one allocation for them, which
        keeps the allocator from returning and refaulting their pages forward
        after forward.
        """
        image = as_grid(image, rank=2, name="image")
        rows, cols = check_window(image.shape, window)
        shapes = [(bank.out_channels, rows.stop - rows.start, cols.stop - cols.start) for bank in self.banks]
        ends = np.cumsum([math.prod(shape) for shape in shapes])
        blocks = [part.reshape(shape) for part, shape in zip(np.split(np.empty(ends[-1]), ends[:-1]), shapes)]
        for n, (i, x, read) in enumerate(_layers(self.spec, self.banks, image, self.norm_stats, window, into=blocks[-1])):
            if i == len(blocks) - 1:  # _layers convolved it into its block
                continue
            if n < len(blocks):  # slice 0
                np.copyto(blocks[i], x[(..., *read)])
            else:
                np.maximum(blocks[i], x[(..., *read)], out=blocks[i])
        return blocks


def _normalize_in_place(x, stats):
    """Apply the per-channel affine norm to a [..., C, H, W] map in place and return it."""
    mean, var = stats
    shape = (-1, 1, 1)
    x -= mean.reshape(shape)
    x /= np.sqrt(var + 1e-5).reshape(shape)
    return x


def _channel_stats(maps):
    """Per-channel (mean[C], var[C]) of the [C, H, W] maps of every scale,
    a sequence or an [S, C, H, W] array, across (scale, H, W).

    Raises SeslabError naming the first channel whose values or squared
    deviations do not sum to a finite number; a non-finite mean makes the
    variance non-finite too.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        mean, var = zip(*(_exact_mean_var(np.stack([x[c] for x in maps])) for c in range(len(maps[0]))))
    bad = np.flatnonzero(~np.isfinite(var))
    if bad.size:
        raise SeslabError(
            f"channel {bad[0]}: values or their squared deviations do not sum to a finite number"
        )
    return np.array(mean), np.array(var)


def _margins(inner, outer, reach: int) -> tuple:
    """conv2d's (top, bottom, left, right) margins for a layer of this reach that
    reads the (rows, cols) slices ``outer`` of a frame and writes ``inner``."""
    (rows, cols), (in_rows, in_cols) = inner, outer
    return (
        reach - (rows.start - in_rows.start), reach - (in_rows.stop - rows.stop),
        reach - (cols.start - in_cols.start), reach - (in_cols.stop - cols.stop),
    )


def _layers(spec: StackSpec, banks, image, norm_stats, window=None, scales=None, into=None):
    """Run each scale slice s of ``scales`` (all of the banks' if None), in
    turn, through ``banks`` on ``image`` and yield, per slice and layer i, the
    triple (i, the layer's [C, h, w] map of slice s, the (rows, cols) slices
    of ``window`` within it).

    No layer mixes scales: layer 1 convolves the image with the scale-s
    kernels and each later layer slice s of the layer before it. regions[i]
    is the part of the image that layer i reads, and regions[i + 1] the part
    it writes: the window dilated by the reach of every layer from i on, or
    from i + 1 on. The loop holds one map, in one buffer sized for the
    largest layer and shared by every slice. A yielded map is valid until the
    generator resumes: then the frozen norm norm_stats[i - 1], read only now,
    and the layer's nonlinearity overwrite it in place, and layer i writes
    its output into the start of the buffer.

    With ``into``, a [C, h, w] array of the last layer's output shape, the
    last layer writes there instead: the first slice overwrites it and each
    later slice folds into it by ``np.maximum``, and the map yielded for that
    layer is ``into``. The buffer is then sized for the earlier layers only,
    and the last layer's conv2d reads the buffer without copying it. Every
    conv2d reads its input in place, at any margins, except that layers
    2..n-1 (2..n without ``into``) write into the buffer they read, so their
    conv2d copies its input first.
    """
    window = check_window(image.shape, window)
    reaches = [(layer.k - 1) // 2 for layer in spec.layers[: len(banks)]]
    regions = [dilate(image.shape, window, sum(reaches[i:])) for i in range(len(reaches) + 1)]
    shapes = [(bank.out_channels, rows.stop - rows.start, cols.stop - cols.start)
              for bank, (rows, cols) in zip(banks, regions[1:])]
    held = shapes if into is None else shapes[:-1]  # the last layer writes into ``into``
    buf = np.empty(max(map(math.prod, held))) if held else None
    for n, s in enumerate(range(banks[0].num_scales) if scales is None else scales):
        x = image[(np.newaxis, *regions[0])]
        for i, (bank, layer, shape) in enumerate(zip(banks, spec.layers, shapes)):
            if i:
                _normalize_in_place(x, norm_stats[i - 1])
                if layer.nonlinearity == "relu":
                    relu(x)
            margins = _margins(regions[i + 1], regions[i], reaches[i])
            direct = into is not None and i == len(banks) - 1
            out = into if direct else buf[: math.prod(shape)].reshape(shape)
            x = conv2d(x, bank.kernels[s], BorderPolicy.ZERO, out=out, margins=margins, fold=direct and n > 0)
            yield i, x, within(window, regions[i + 1])


def _calibrate(spec: StackSpec, banks) -> tuple:
    """The frozen norm statistics of ``banks``: per layer >= 2, the per-channel
    statistics of its input when the stack runs on the whole probe image.

    Only layers 1..n-1 run, since no norm reads the last layer's output, and
    nothing is projected; a one-layer stack runs no convolution. One slice
    generator per scale advances in lockstep, so each layer's S maps are
    alive together for its statistics.
    """
    if len(banks) < 2:
        return ()
    # The probe is derived from the stack seed, so both kinds of a shared
    # spec see the same probe and stay comparable.
    probe = synth_image("gaussian-blobs", CALIBRATION_SIZE, CALIBRATION_SIZE, seed=spec.seed)
    stats = []
    slices = [_layers(spec, banks[:-1], probe, stats, scales=(s,)) for s in range(banks[0].num_scales)]
    for maps in zip(*slices):
        stats.append(_channel_stats([x for _, x, _ in maps]))
    return tuple(stats)


def check_stack_fits(spec: StackSpec) -> float:
    """The doubles that ``build_stack(spec)`` holds, counted as if all were
    alive at once: each distinct k's ``check_basis_fits``, each layer's [S, O,
    C, k, k] kernels and [O, C, B] coefficients, S = len(spec.scale_set()), and
    the calibration forward: the probe, S slice loops in lockstep and
    ``_channel_stats``' two [S, 96, 96] channel copies and block temporaries.
    Raises ConfigError naming the k of the first basis, or of the first layer,
    that takes them past physical memory, or else the calibration forward."""
    values, channels, bases = 0.0, 1.0, set()
    members, scales = as_real((spec.max_order + 1) ** 2), len(spec.scale_set())
    for i, layer in enumerate(spec.layers, start=1):
        if layer.k not in bases:
            bases.add(layer.k)
            values += check_basis_fits(scales, spec.max_order, layer.k)
        out, k = as_real(layer.out_channels), as_real(layer.k)
        values += out * channels * (scales * k * k + members)
        check_fits_memory(
            values,
            f"layer {i} of k {reprlib.repr(layer.k)} (the bases, [S, O, C, k, k] kernels and coefficients "
            f"of layers 1..{i})",
        )
        channels = out
    if len(spec.layers) > 1:
        n, size = len(spec.layers) - 1, CALIBRATION_SIZE
        loops = slice_loop_values(spec.layers[:-1], size, size, scales)
        values += size * size * (1 + 2 * scales) + 4 * _SUM_BLOCK + loops
        check_fits_memory(
            values, f"the calibration forward of layers 1..{n} on a {size}x{size} probe, and the stack's weights"
        )
    return values


def slice_loop_values(layers, height, width, loops: int = 1) -> float:
    """The doubles that ``loops`` slice loops of ``_layers`` hold on a height x
    width image: each loop's buffer, [C, height, width] for the widest layer,
    and one convolution's ``conv2d_scratch``, the largest of ``layers``, which
    counts the copy of the input that a layer writing into its own buffer
    makes. It stays an upper bound for a forward, whose last layer writes into
    its block instead of the buffer and reads the buffer uncopied."""
    h, w, outs = as_real(height), as_real(width), [as_real(layer.out_channels) for layer in layers]
    convs = [conv2d_scratch(c, o, as_real(layer.k), h, w) for c, o, layer in zip([1.0] + outs, outs, layers)]
    return loops * max(outs) * h * w + max(convs)


def build_stack(spec: StackSpec) -> Stack:
    """Build a stack with fan-in uniform weights, w ~ U[-a, a], a = 1/sqrt(C k^2).
    Raises ConfigError as ``check_stack_fits`` does before any basis is built."""
    check_stack_fits(spec)  # here, not under the base_sigma re-wrap below
    sigmas = spec.scale_set()
    rng = np.random.default_rng(spec.seed)
    basis_cache: dict = {}
    banks = []
    in_channels = 1
    for layer in spec.layers:
        basis = basis_cache.get(layer.k)
        if basis is None:
            try:
                basis = build_basis(sigmas, max_order=spec.max_order, k=layer.k)
            except ConfigError as exc:
                raise ConfigError(f"base_sigma {spec.base_sigma}: {exc}") from None
            basis_cache[layer.k] = basis
        bound = 1.0 / math.sqrt(in_channels * layer.k * layer.k)
        weights = rng.uniform(
            -bound, bound, size=(layer.out_channels, in_channels, basis.num_basis)
        )
        banks.append(combine(weights, basis, scale_gains=paper_scale_gains(sigmas)))
        in_channels = layer.out_channels
    return Stack(spec=spec, banks=tuple(banks), norm_stats=_calibrate(spec, banks))


def _residue(image, s, lhs_kernels, rhs_kernels, amp, crop_margin) -> float:
    """Relative l2 residue of conv(T_s h, lhs_kernels) against
    amp * T_s conv(h, rhs_kernels), both zero-filled and cropped by ``crop_margin``."""
    image = as_grid(image, rank=2, name="image")
    lhs = crop(conv2d(scale_transform(image, s)[np.newaxis], lhs_kernels), crop_margin)
    rhs = crop(amp * scale_transform_stack(conv2d(image[np.newaxis], rhs_kernels), s), crop_margin)
    denom = float(np.linalg.norm(rhs))
    if denom == 0.0:
        raise SeslabError("relative residue undefined: reference signal is zero")
    return float(np.linalg.norm(lhs - rhs)) / denom


def scale_matched_residue(
    bank: SesFilterBank,
    image,
    scale_i: int,
    scale_j: int,
    crop_margin: float = 0.15,
) -> float:
    """Relative l2 residue of the matched-kernel scale identity.

    The continuous identity for the analytic filter family is

        conv(T_s h, K_i) = amp * T_s conv(h, K_j),   s = sigma_i / sigma_j,

    where amp = s * gain_i / gain_j accounts for the bank's cross-scale
    amplitude convention: amp = 1 for banks built with the analytic
    1/sigma^2 gains (stacks) and amp = s for plain unit-l2 banks. Both
    convolutions zero-fill, and borders are cropped by ``crop_margin`` per
    side before comparing. Raises ShapeError unless ``scale_i`` and
    ``scale_j`` are integers in 0..S-1 for the bank's S scales.
    """
    for name, index in (("scale_i", scale_i), ("scale_j", scale_j)):
        if not (is_integer(index) and 0 <= index < bank.num_scales):
            raise ShapeError(f"{name} must be an integer in 0..{bank.num_scales - 1}, got {reprlib.repr(index)}")
    s = bank.sigma(scale_i) / bank.sigma(scale_j)
    amp = s * bank.gain(scale_i) / bank.gain(scale_j)
    return _residue(image, s, bank.kernels[scale_i], bank.kernels[scale_j], amp, crop_margin)


def single_scale_residue(bank: SesFilterBank, image, s: float, crop_margin: float = 0.15) -> float:
    """The same measurement when the kernel cannot follow the image scaling.

    A single-scale (vanilla) layer of the bank's largest-scale kernels K
    claims conv(T_s h, K) = T_s conv(h, K); the returned residue is the
    relative l2 failure of that claim.
    """
    return _residue(image, s, bank.kernels[-1], bank.kernels[-1], 1.0, crop_margin)
