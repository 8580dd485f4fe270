"""Structural similarity (SSIM) with the standard Gaussian-window settings."""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ShapeError, as_real
from .grid import as_grid
from .resample import BLOCK_POINTS

WINDOW_SIZE = 11
WINDOW_SIGMA = 1.5
K1 = 0.01
K2 = 0.03


def gaussian_window() -> np.ndarray:
    """The WINDOW_SIZE Gaussian taps of std WINDOW_SIGMA, normalized to unit sum."""
    x = np.arange(WINDOW_SIZE, dtype=np.float64) - (WINDOW_SIZE - 1) / 2.0
    w = np.exp(-(x * x) / (2.0 * WINDOW_SIGMA * WINDOW_SIGMA))
    return w / w.sum()


def ssim(a, b, data_range: float | None = None) -> float:
    """Mean local SSIM of two equal-shape rank-2 grids.

    Uses an 11x11 Gaussian window (sigma 1.5) over the valid interior with
    C1 = (0.01 L)^2 and C2 = (0.03 L)^2. When ``data_range`` is omitted, L
    is inferred from the joint value range of both inputs (falling back to
    1 for constant pairs), which keeps the measure symmetric.

    Four local means are taken: of a, b, a b and a^2 + b^2, since the
    variances enter only as var_a + var_b. Every step is symmetric in a and
    b, so swapping them gives the same bits; with a == b the numerator and
    denominator agree bit for bit (2 x == x + x), so the score is exactly 1.
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
    elif not 0 < as_real(data_range) < math.inf:
        raise ConfigError(f"data_range must be a positive finite real, got {data_range}")
    else:
        data_range = as_real(data_range)
    c1 = (K1 * data_range) ** 2
    c2 = (K2 * data_range) ** 2
    taps = gaussian_window()
    size = taps.size
    h, w = a.shape
    # The row pass of a, b, a^2 + b^2 and a b: each output row is the taps'
    # weighted sum of ``size`` image rows, one BLAS matrix-vector product.
    rows = np.empty((4, h - size + 1, w))
    squares = np.multiply(a, a)
    product = np.multiply(b, b)
    squares += product
    np.multiply(a, b, out=product)
    for i, image in enumerate((a, b, squares, product)):
        np.matmul(sliding_window_view(image, size, axis=0), taps, out=rows[i])
    del image, squares, product  # not held through the column pass
    # The column pass on the transposed view of the row pass, with no copy:
    # each window of ``size`` columns is then a row of a matrix whose leading
    # dimension is the row length, which BLAS takes (the untransposed windows
    # overlap with unit stride, which numpy runs in its scalar loop). The
    # local means come out transposed, indexed [x, y], in bands of x that keep
    # the score's in-place passes in cache.
    windows = sliding_window_view(rows.transpose(0, 2, 1), size, axis=1)
    n_x, n_y = windows.shape[1:3]
    step = max(1, BLOCK_POINTS // n_y)
    maps = np.empty((5, min(step, n_x), n_y))
    total = 0.0
    for lo in range(0, n_x, step):
        band = maps[:, : min(step, n_x - lo)]
        np.matmul(windows[:, lo : lo + step], taps, out=band[:4])
        total += _quarter_score_sum(band, c1, c2)
    return 4.0 * total / (n_x * n_y)


def ssim_scratch(h: float, w: float) -> float:
    """At most the doubles that ``ssim`` holds besides its h x w inputs: the row
    pass's four (h - 10) x w maps, a^2 + b^2 and a b, and five band maps."""
    return 4 * (h - WINDOW_SIZE + 1) * w + 2 * h * w + 5 * max(BLOCK_POINTS, h)


def _quarter_score_sum(maps: np.ndarray, c1: float, c2: float) -> float:
    """Sum of a quarter of the SSIM scores, from the stacked local means of
    a, b, a^2 + b^2 and a b and a fifth map to compute in; overwrites all five.

    score = (2 mu_ab + c1)(2 cov + c2) / ((mu_a^2 + mu_b^2 + c1)(var_a + var_b + c2)),
    with a factor of 2 taken out of each numerator factor, which is exact.
    """
    mu_a, mu_b, sum_sq, cross, score = maps
    np.multiply(mu_a, mu_b, out=score)
    cross -= score
    cross += c2 / 2
    score += c1 / 2
    score *= cross
    mu_a *= mu_a
    mu_b *= mu_b
    mu_a += mu_b
    sum_sq -= mu_a
    sum_sq += c2
    mu_a += c1
    mu_a *= sum_sq
    score /= mu_a
    return float(score.sum())
