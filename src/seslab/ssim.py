"""Structural similarity (SSIM) with the standard Gaussian-window settings."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError
from .grid import as_grid

WINDOW_SIZE = 11
WINDOW_SIGMA = 1.5
K1 = 0.01
K2 = 0.03


def gaussian_window() -> np.ndarray:
    """The WINDOW_SIZE Gaussian taps of std WINDOW_SIGMA, normalized to unit sum."""
    x = np.arange(WINDOW_SIZE, dtype=np.float64) - (WINDOW_SIZE - 1) / 2.0
    w = np.exp(-(x * x) / (2.0 * WINDOW_SIGMA * WINDOW_SIGMA))
    return w / w.sum()


def _local_mean(img: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Separable valid-region correlation with a unit-sum window."""
    t = sliding_window_view(img, taps.size, axis=0) @ taps
    return sliding_window_view(t, taps.size, axis=1) @ taps


def ssim(a, b, data_range: float | None = None) -> float:
    """Mean local SSIM of two equal-shape rank-2 grids.

    Uses an 11x11 Gaussian window (sigma 1.5) over the valid interior with
    C1 = (0.01 L)^2 and C2 = (0.03 L)^2. When ``data_range`` is omitted, L
    is inferred from the joint value range of both inputs (falling back to
    1 for constant pairs), which keeps the measure symmetric.
    """
    a = as_grid(a, rank=2, name="first image")
    b = as_grid(b, rank=2, name="second image")
    if a.shape != b.shape:
        raise ShapeError(f"ssim inputs must have equal shapes, got {a.shape} vs {b.shape}")
    if min(a.shape) < WINDOW_SIZE:
        raise ShapeError(f"ssim needs extents >= {WINDOW_SIZE}, got {a.shape}")
    if data_range is None:
        span = float(max(a.max(), b.max()) - min(a.min(), b.min()))
        data_range = span if span > 0 else 1.0
    elif data_range <= 0:
        raise ValueError(f"data_range must be positive, got {data_range}")
    c1 = (K1 * data_range) ** 2
    c2 = (K2 * data_range) ** 2
    taps = gaussian_window()
    mu_a = _local_mean(a, taps)
    mu_b = _local_mean(b, taps)
    mu_aa = mu_a * mu_a
    mu_bb = mu_b * mu_b
    mu_ab = mu_a * mu_b
    var_a = _local_mean(a * a, taps) - mu_aa
    var_b = _local_mean(b * b, taps) - mu_bb
    cov = _local_mean(a * b, taps) - mu_ab
    score = ((2.0 * mu_ab + c1) * (2.0 * cov + c2)) / (
        (mu_aa + mu_bb + c1) * (var_a + var_b + c2)
    )
    return float(score.mean())
