"""Scale-equivariant steerable convolution layers and comparison stacks."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .basis import ScaleSet, SteerableBasis, build_basis, check_scale_count, scale_set_from_alpha
from .conv import conv2d
from .errors import ConfigError, SeslabError, ShapeError, check_fields
from .grid import BorderPolicy, as_grid, crop
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
    scale_gains: tuple | None = None

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
        return self.scale_gains[index % self.num_scales]


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
    """Convolve a [C, H, W] grid once per scale, stacking along a new scale axis."""
    image = as_grid(image, rank=3, name="input")
    return _conv_per_scale([image] * bank.num_scales, bank, border)


def ses_conv_scalewise(x, bank: SesFilterBank, border: BorderPolicy = BorderPolicy.ZERO):
    """Convolve each scale slice of a [S, C, H, W] map with its own-scale kernel.

    The inter-scale kernel extent is 1: no scale mixing happens inside the
    convolution.
    """
    x = as_grid(x, rank=4, name="features")
    if x.shape[0] != bank.num_scales:
        raise ShapeError(
            f"feature map has {x.shape[0]} scales, bank has {bank.num_scales}"
        )
    return _conv_per_scale(x, bank, border)


def _conv_per_scale(inputs, bank: SesFilterBank, border) -> np.ndarray:
    """Convolve inputs[s] with the scale-s kernels into one new [S, O, H, W] array."""
    out = np.empty((bank.num_scales, bank.out_channels) + inputs[0].shape[1:])
    for kernels, x, out_s in zip(bank.kernels, inputs, out):
        conv2d(x, kernels, border, out=out_s)
    return out


def scale_projection(x) -> np.ndarray:
    """Elementwise max over the scale axis: [S, C, H, W] -> [C, H, W]."""
    x = as_grid(x, rank=4, name="features")
    return x.max(axis=0)


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
    The result is inf or nan if a value is not finite, or if the values of
    one sign and binade, or all of them, sum past the float64 range.
    """
    sums = np.zeros((-(-flat.size // _EXACT_COUNT), 2, _BINS))
    for start in range(0, flat.size, _SUM_BLOCK):
        block = flat[start : start + _SUM_BLOCK]
        bins = (block.view(np.uint64) >> 52).view(np.int64)
        hi = (block.view(np.int64) & _HI_BITS).view(np.float64)
        run = sums[start // _EXACT_COUNT]
        run[0] += np.bincount(bins, hi, minlength=_BINS)
        run[1] += np.bincount(bins, np.subtract(block, hi, out=hi), minlength=_BINS)
    try:
        return math.fsum(sums[sums != 0].tolist())
    except (OverflowError, ValueError):  # an overflowing total, or inf - inf
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


def se_norm(x, epsilon: float = 1e-5) -> np.ndarray:
    """Forward-only 3D normalization per channel across (scale, H, W), into a new array."""
    x = as_grid(x, rank=4, name="features")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return _normalize_in_place(x.copy(), _channel_stats(x), epsilon)


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
        return scale_set_from_alpha(self.alpha, self.num_scales).scaled(self.base_sigma)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "layers": [
                {"out_channels": l.out_channels, "k": l.k, "nonlinearity": l.nonlinearity}
                for l in self.layers
            ],
            "alpha": self.alpha,
            "num_scales": self.num_scales,
            "seed": self.seed,
            "base_sigma": self.base_sigma,
            "max_order": self.max_order,
        }


CALIBRATION_SIZE = 96


@dataclass(frozen=True)
class Stack:
    """An immutable stack of banks; forward passes are pure.

    Normalization layers run inference-style: their per-channel statistics
    are frozen at build time (calibrated once on a seed-derived probe
    image), so each norm is a fixed affine map. Per-input statistics would
    make the normalization itself scale-sensitive and mask the
    convolutional equivariance the harness measures.
    """

    spec: StackSpec
    banks: tuple
    norm_stats: tuple  # per layer >= 2: (mean[C], var[C])
    border: BorderPolicy = BorderPolicy.ZERO

    @property
    def kind(self) -> str:
        return self.spec.kind

    @property
    def num_blocks(self) -> int:
        return len(self.banks)

    @property
    def weight_count(self) -> int:
        return sum(b.weights.size for b in self.banks)

    def forward(self, image) -> list:
        """Per-block [C, H, W] activations for a rank-2 image."""
        image = as_grid(image, rank=2, name="image")
        return _propagate(self.spec, self.banks, self.border, image, self.norm_stats)[0]


def _normalize_in_place(x, stats, epsilon=1e-5):
    """Apply the per-channel affine norm to a [S, C, H, W] map in place and return it."""
    mean, var = stats
    shape = (1, -1, 1, 1)
    x -= mean.reshape(shape)
    x /= np.sqrt(var + epsilon).reshape(shape)
    return x


def _channel_stats(x):
    """Per-channel (mean[C], var[C]) of a [S, C, H, W] map across (scale, H, W).

    Raises SeslabError naming the first channel whose values or squared
    deviations do not sum to a finite number; a non-finite mean makes the
    variance non-finite too.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        mean, var = zip(*(_exact_mean_var(x[:, c]) for c in range(x.shape[1])))
    bad = np.flatnonzero(~np.isfinite(var))
    if bad.size:
        raise SeslabError(
            f"channel {bad[0]}: values or their squared deviations do not sum to a finite number"
        )
    return np.array(mean), np.array(var)


def _propagate(spec: StackSpec, banks, border, image, norm_stats=None) -> tuple:
    """Per-block scale-projected activations and the norm statistics used.

    Every feature map is [S, C, H, W]. A vanilla stack is a single-scale SES
    stack on the largest-scale kernels. With ``norm_stats=None`` each norm
    uses its own input's statistics, which is the calibration pass.

    Each conv output is a new array owned by this call: its projection is
    copied into ``blocks``, then the norm and ReLU overwrite it in place.
    """
    scales = slice(None) if spec.kind == "ses" else slice(-1, None)
    banks = [replace(bank, kernels=bank.kernels[scales]) for bank in banks]
    x = ses_conv_input(image[np.newaxis], banks[0], border)
    blocks = [scale_projection(x)]
    stats = []
    for i, (bank, layer) in enumerate(zip(banks[1:], spec.layers[1:])):
        stats.append(_channel_stats(x) if norm_stats is None else norm_stats[i])
        _normalize_in_place(x, stats[-1])
        if layer.nonlinearity == "relu":
            relu(x)
        x = ses_conv_scalewise(x, bank, border)
        blocks.append(scale_projection(x))
    return blocks, tuple(stats)


def build_stack(spec: StackSpec, border: BorderPolicy = BorderPolicy.ZERO) -> Stack:
    """Build a stack with fan-in uniform weights, w ~ U[-a, a], a = 1/sqrt(C k^2)."""
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
    border = BorderPolicy.coerce(border)
    # The probe is derived from the stack seed, so both kinds of a shared
    # spec see the same probe and stay comparable.
    probe = synth_image("gaussian-blobs", CALIBRATION_SIZE, CALIBRATION_SIZE, seed=spec.seed)
    _, norm_stats = _propagate(spec, banks, border, probe)
    return Stack(spec=spec, banks=tuple(banks), norm_stats=norm_stats, border=border)


def _relative_l2(lhs: np.ndarray, rhs: np.ndarray, crop_margin: float) -> float:
    lhs, rhs = crop(lhs, crop_margin), crop(rhs, crop_margin)
    denom = float(np.linalg.norm(rhs))
    if denom == 0.0:
        raise SeslabError("relative residue undefined: reference signal is zero")
    return float(np.linalg.norm(lhs - rhs)) / denom


def scale_matched_residue(
    bank: SesFilterBank,
    image,
    scale_i: int,
    scale_j: int,
    border: BorderPolicy = BorderPolicy.ZERO,
    crop_margin: float = 0.15,
) -> float:
    """Relative l2 residue of the matched-kernel scale identity.

    The continuous identity for the analytic filter family is

        conv(T_s h, K_i) = amp * T_s conv(h, K_j),   s = sigma_i / sigma_j,

    where amp = s * gain_i / gain_j accounts for the bank's cross-scale
    amplitude convention: amp = 1 for banks built with the analytic
    1/sigma^2 gains (stacks) and amp = s for plain unit-l2 banks. Borders
    are cropped by ``crop_margin`` per side before comparing.
    """
    image = as_grid(image, rank=2, name="image")
    s = bank.sigma(scale_i) / bank.sigma(scale_j)
    amp = s * bank.gain(scale_i) / bank.gain(scale_j)
    scaled = scale_transform(image, s)
    lhs = conv2d(scaled[np.newaxis], bank.kernels[scale_i], border)
    ref = conv2d(image[np.newaxis], bank.kernels[scale_j], border)
    rhs = amp * scale_transform_stack(ref, s)
    return _relative_l2(lhs, rhs, crop_margin)


def single_scale_residue(
    bank: SesFilterBank,
    image,
    s: float,
    scale_index: int = -1,
    border: BorderPolicy = BorderPolicy.ZERO,
    crop_margin: float = 0.15,
) -> float:
    """The same measurement when the kernel cannot follow the image scaling.

    A single-scale (vanilla) layer claims conv(T_s h, K) = T_s conv(h, K);
    the returned residue is the relative l2 failure of that claim.
    """
    image = as_grid(image, rank=2, name="image")
    kernels = bank.kernels[scale_index]
    lhs = conv2d(scale_transform(image, s)[np.newaxis], kernels, border)
    rhs = scale_transform_stack(conv2d(image[np.newaxis], kernels, border), s)
    return _relative_l2(lhs, rhs, crop_margin)
