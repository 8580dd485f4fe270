"""Deterministic synthetic image generation for desk-scale experiments."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError

KINDS = ("gaussian-blobs", "checkerboard", "bandlimited-noise")

MIN_BLOB_STD = 2.0  # keeps the corpus band-limited enough to resample fairly
NOISE_SIGMA = 2.0  # std in pixels of the Gaussian low-pass applied to white noise
MIN_EXTENT = 8  # smallest height and width of a synthetic image


def synth_image(kind: str, height: int, width: int, seed: int, cell: int | None = None) -> np.ndarray:
    """Deterministic test image of the requested kind, values in [0, 1].

    ``cell`` selects the checkerboard cell size (default min(h, w) // 8).
    """
    if height < MIN_EXTENT or width < MIN_EXTENT:
        raise ShapeError(f"synthetic images need extents >= {MIN_EXTENT}, got {height}x{width}")
    if kind == "gaussian-blobs":
        return _blobs(height, width, seed)
    if kind == "checkerboard":
        return _checkerboard(height, width, cell, seed)
    if kind == "bandlimited-noise":
        return _noise(height, width, seed)
    raise ConfigError(f"unknown synthetic image kind {kind!r}; expected one of {KINDS}")


def render_gaussian_blobs(height: int, width: int, blobs) -> np.ndarray:
    """Analytic sum of Gaussians sampled at pixel centers.

    ``blobs`` is an iterable of (center_row, center_col, std, amplitude).
    This is the continuous-image oracle used to calibrate resampling tests.
    """
    ys = np.arange(height, dtype=np.float64)[:, None]
    xs = np.arange(width, dtype=np.float64)[None, :]
    image = np.zeros((height, width))
    for cy, cx, std, amp in blobs:
        image += amp * np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2) / (2.0 * std * std))
    return image


def _blobs(height, width, seed):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(3, 9))
    hi = min(3.5, max(MIN_BLOB_STD + 0.5, min(height, width) / 12.0))
    blobs = []
    for _ in range(count):
        cy = rng.uniform(0.1, 0.9) * (height - 1)
        cx = rng.uniform(0.1, 0.9) * (width - 1)
        std = rng.uniform(MIN_BLOB_STD, hi)
        amp = rng.uniform(0.3, 1.0)
        blobs.append((cy, cx, std, amp))
    image = render_gaussian_blobs(height, width, blobs)
    image /= image.max()
    # Far tails fall below the smallest normal double. Arithmetic on such
    # subnormals takes a slow path on x86, and they are far below anything
    # the corpus measures, so they are flushed to zero.
    image[image < np.finfo(np.float64).tiny] = 0.0
    return image


def _checkerboard(height, width, cell, seed):
    if cell is None:
        cell = max(1, min(height, width) // 8)
    if cell < 1:
        raise ConfigError(f"checkerboard cell must be >= 1, got {cell}")
    # seed only moves the phase, so corpora get distinct grid alignments
    oy, ox = np.random.default_rng(seed).integers(0, 2 * cell, size=2)
    ys = (np.arange(height)[:, None] + oy) // cell
    xs = (np.arange(width)[None, :] + ox) // cell
    return ((ys + xs) % 2).astype(np.float64)


def _noise(height, width, seed):
    rng = np.random.default_rng(seed)
    white = rng.standard_normal((height, width))
    fy = np.fft.fftfreq(height)[:, None]
    fx = np.fft.rfftfreq(width)[None, :]
    transfer = np.exp(-2.0 * np.pi**2 * NOISE_SIGMA**2 * (fy * fy + fx * fx))
    smooth = np.fft.irfft2(np.fft.rfft2(white) * transfer, s=(height, width))
    lo, hi = smooth.min(), smooth.max()
    return (smooth - lo) / (hi - lo)


def synth_corpus(kind: str, count: int, height: int, width: int, seed: int) -> list:
    """List of ``count`` images with per-image seeds derived from ``seed``."""
    if count < 1:
        raise ConfigError(f"corpus size must be >= 1, got {count}")
    children = np.random.SeedSequence(seed).generate_state(count)
    return [synth_image(kind, height, width, int(s)) for s in children]
