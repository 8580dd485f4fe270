"""Fast invariant checks behind `seslab selftest`."""

from __future__ import annotations

import numpy as np

from .basis import build_basis, hermite, scale_set_from_alpha
from .conv import conv2d
from .errors import SeslabError
from .geometry import CameraIntrinsics, PatchPlane, corollary_deviation
from .grid import BorderPolicy
from .harness import equivariance_error
from .resample import scale_transform
from .sesconv import StackSpec, LayerSpec, build_stack
from .ssim import ssim
from .synth import synth_image

# Explicit probabilist's polynomials, kept separate from the recurrence.
_EXPLICIT_HERMITE = (
    lambda x: np.ones_like(x),
    lambda x: x,
    lambda x: x**2 - 1,
    lambda x: x**3 - 3 * x,
    lambda x: x**4 - 6 * x**2 + 3,
)


def _check_conv_identity():
    rng = np.random.default_rng(7)
    image = rng.uniform(size=(1, 9, 11))
    kernel = np.zeros((1, 1, 3, 3))
    kernel[0, 0, 1, 1] = 1.0
    out = conv2d(image, kernel, BorderPolicy.ZERO)
    if not np.array_equal(out, image):
        return "centered delta kernel does not reproduce the input"
    return None


def _check_conv_shift():
    rng = np.random.default_rng(8)
    image = rng.uniform(size=(2, 12, 10))
    kernels = rng.uniform(size=(3, 2, 3, 3))
    rolled = np.roll(image, (3, 4), axis=(1, 2))
    lhs = conv2d(rolled, kernels, BorderPolicy.CIRCULAR)
    rhs = np.roll(conv2d(image, kernels, BorderPolicy.CIRCULAR), (3, 4), axis=(1, 2))
    if not np.array_equal(lhs, rhs):
        return "circular shift does not commute bit-exactly with conv2d"
    return None


def _check_hermite():
    xs = np.linspace(-5, 5, 41)
    for n, poly in enumerate(_EXPLICIT_HERMITE):
        if np.abs(hermite(n, xs) - poly(xs)).max() > 1e-9:
            return f"recurrence disagrees with the explicit H_{n} polynomial"
    return None


def _check_basis_norm():
    basis = build_basis(scale_set_from_alpha(0.1, 3), max_order=6, k=7)
    filters = basis.filters
    norms = np.linalg.norm(filters.reshape(filters.shape[0], filters.shape[1], -1), axis=2)
    worst = np.abs(norms - 1.0).max()
    if worst > 1e-12:
        return f"filter l2 norms deviate from 1 by {worst:.3g}"
    return None


def _check_scale_identity():
    image = synth_image("gaussian-blobs", 24, 24, seed=3)
    if not np.array_equal(scale_transform(image, 1.0), image):
        return "scale transform at s = 1 is not a bit-exact identity"
    return None


def _check_projective_reduction():
    worst = corollary_deviation(CameraIntrinsics.centered(707.0, 128, 96), PatchPlane(0.0, 0.0, 1.0, -30.0), -3.0)
    if worst > 1e-9:
        return f"projective map deviates from the scale map by {worst:.3g} px"
    return None


def _check_delta_at_unit_scale():
    spec = StackSpec(kind="ses", layers=(LayerSpec(2, k=5), LayerSpec(2, k=5)), seed=1)
    stack = build_stack(spec)
    image = synth_image("gaussian-blobs", 32, 32, seed=5)
    delta = equivariance_error(stack, [image], s=1.0, block=2)
    if delta != 0.0:
        return f"equivariance error at s = 1 is {delta:.3g}, expected exactly 0"
    return None


def _check_ssim_unity():
    image = synth_image("bandlimited-noise", 24, 24, seed=11)
    value = ssim(image, image)
    if value != 1.0:
        return f"ssim(a, a) = {value!r}, expected exactly 1.0"
    return None


def _check_ssim_symmetry():
    a = synth_image("bandlimited-noise", 24, 31, seed=11)
    b = synth_image("gaussian-blobs", 24, 31, seed=12)
    ab, ba = ssim(a, b), ssim(b, a)
    if ab != ba:
        return f"ssim(a, b) = {ab!r} but ssim(b, a) = {ba!r}, expected the same bits"
    return None


def run_selftest() -> list:
    """Run every check; returns (name, failure-message-or-None) pairs."""
    checks = [
        ("conv-identity-kernel", _check_conv_identity),
        ("conv-circular-shift-commutes", _check_conv_shift),
        ("hermite-recurrence", _check_hermite),
        ("basis-filter-l2-norm", _check_basis_norm),
        ("scale-transform-unit-identity", _check_scale_identity),
        ("projective-reduces-to-scale", _check_projective_reduction),
        ("delta-zero-at-unit-scale", _check_delta_at_unit_scale),
        ("ssim-self-unity", _check_ssim_unity),
        ("ssim-symmetric", _check_ssim_symmetry),
    ]
    results = []
    for name, fn in checks:
        try:
            failure = fn()
        except SeslabError as exc:
            failure = str(exc)
        results.append((name, failure))
    return results
