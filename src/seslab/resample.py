"""Bilinear sampling, warping, scale transforms, and resizing of [..., H, W] grids."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ShapeError
from .grid import BorderPolicy, as_grid


@dataclass(frozen=True)
class PixelMapping:
    """Closed-form map from an output pixel (x, y) to source coordinates.

    ``fn`` receives broadcastable arrays of x (column) and y (row)
    coordinates and returns the source (x, y) arrays. The map must be total
    on the output domain; coordinates falling outside the source grid are
    handled by the border policy at sampling time.
    """

    fn: Callable[[np.ndarray, np.ndarray], tuple]

    def __call__(self, xs, ys):
        return self.fn(xs, ys)

    @staticmethod
    def identity() -> "PixelMapping":
        return PixelMapping(lambda xs, ys: (xs, ys))

    @staticmethod
    def shift(dx: float, dy: float) -> "PixelMapping":
        """Move content by (+dx, +dy): output(x, y) samples image(x - dx, y - dy)."""
        return PixelMapping(lambda xs, ys: (xs - dx, ys - dy))

    @staticmethod
    def scale_about(s: float, cx: float, cy: float) -> "PixelMapping":
        """The scale transform T_s about (cx, cy); s > 1 magnifies."""
        return PixelMapping(lambda xs, ys: (cx + (xs - cx) / s, cy + (ys - cy) / s))


# Output values per block of the point kernel. A block's temporaries are about
# twenty arrays of at most BLOCK_POINTS 8-byte values (about 2.5 MiB), so
# they stay in cache and peak memory does not grow with the point count.
BLOCK_POINTS = 1 << 14


def sample_at(grid, xs, ys, border: BorderPolicy = BorderPolicy.CLAMP) -> np.ndarray:
    """Bilinearly sample an ``[..., H, W]`` grid at real-valued (x=col, y=row) coordinates.

    ``xs`` and ``ys`` broadcast against each other to the point shape P;
    the result has shape ``[..., *P]``, every leading slice sampled at the
    same points. An open grid, ``xs`` of shape (1, W) and ``ys`` of shape
    (H, 1) as an axis-aligned ``warp`` and ``resize`` pass them, goes
    through the separable kernel ``_sample_separable``. Any other point
    shape goes through the blocked point kernel ``_sample_points``. Both
    blend the same four corners with the same expressions in the same
    order, so the kernel chosen never changes a bit of the result. For ZERO
    both read a one-pixel ring of zeros that out-of-grid indices clamp onto.
    """
    grid = as_grid(grid, name="grid")
    border = BorderPolicy.coerce(border)
    xs, ys = _finite_coordinates(xs, ys)
    if xs.ndim == ys.ndim == 2 and xs.shape[0] == 1 and ys.shape[1] == 1:
        return _sample_separable(grid, xs[0], ys[:, 0], border)
    xs, ys = np.broadcast_arrays(xs, ys)
    lead = grid.shape[:-2]
    out = np.empty((*lead, xs.size))
    _sample_points(_point_source(grid, border), grid.shape[-2:], xs.ravel(), ys.ravel(), border, out)
    return out.reshape(lead + xs.shape)


def _finite_coordinates(xs, ys):
    xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("sample coordinates must be finite")
    return xs, ys


def _point_source(grid, border):
    """The grid the point kernel gathers from, flattened over its trailing two
    axes: the zero-ringed grid for ZERO, the grid itself otherwise."""
    if border is BorderPolicy.ZERO:
        grid = np.pad(grid, [(0, 0)] * (grid.ndim - 2) + [(1, 1), (1, 1)])
    return grid.reshape(*grid.shape[:-2], -1)


def _sample_points(flat, shape, xs, ys, border, out):
    """Point kernel: ``out[..., i]`` samples the point (xs[i], ys[i]).

    ``flat`` is the ``_point_source`` of a grid whose trailing extents are
    ``shape``; ``xs`` and ``ys`` are flat. Points are walked in blocks of
    about ``BLOCK_POINTS`` output values. Per block, floor, fraction and
    corner indices are worked out once per axis and shared by all slices,
    the four corners are gathered by flat index, and the blend is written
    in place into the block's slice of ``out``. The in-place products and
    sums only commute operands, which rounds the same; the takes use
    mode="clip", as every index is in range by construction.
    """
    h, w = shape
    row = w + 2 if border is BorderPolicy.ZERO else w
    step = max(1, BLOCK_POINTS // math.prod(flat.shape[:-1]))
    for lo in range(0, xs.size, step):
        x, y = xs[lo : lo + step], ys[lo : lo + step]
        x0f = np.floor(x)
        y0f = np.floor(y)
        fx = x - x0f
        fy = y - y0f
        c0, c1 = _corner_indices(x0f.astype(np.intp), w, border)
        r0, r1 = _corner_indices(y0f.astype(np.intp), h, border)
        r0 *= row
        r1 *= row
        # top and bottom start as the corners v00 and v10 and are blended in place
        top, v01, bottom, v11 = (
            np.take(flat, index, axis=-1, mode="clip")
            for index in (r0 + c0, r0 + c1, r1 + c0, r1 + c1)
        )
        gx = 1.0 - fx
        top *= gx
        v01 *= fx
        top += v01
        bottom *= gx
        v11 *= fx
        bottom += v11
        o = out[..., lo : lo + step]
        np.multiply(top, 1.0 - fy, out=o)
        bottom *= fy
        o += bottom


def _sample_separable(grid, xs, ys, border):
    """Separable kernel: output (i, j) samples the point (xs[j], ys[i]).

    The x pass blends, once per output column, every source row that some
    output row reads: ``t = (1 - fx) * g[:, c0] + fx * g[:, c1]``, the point
    kernel's ``top`` and ``bottom``. The y pass blends rows of t:
    ``(1 - fy) * t[r0] + fy * t[r1]``. The in-place products and sums only
    commute operands, which rounds the same. Leading slices go one at a
    time, so no temporary grows with the channel count. The takes use
    mode="clip", which skips the bounds check and the buffered ``out`` of
    the default mode; every index is in range by construction.

    For ZERO, an output whose four corners all lie on the zero ring blends
    zeros with non-negative weights, which gives +0.0. The output starts as
    +0.0, and only the window from the first to the last live column and
    row is sampled, straight into the output, with the same expressions.
    """
    lead = grid.shape[:-2]
    h, w = grid.shape[-2:]
    x0f = np.floor(xs)
    y0f = np.floor(ys)
    shape = (*lead, ys.size, xs.size)
    zero = border is BorderPolicy.ZERO
    live_rows = live_cols = slice(None)
    if zero:
        live_rows, live_cols = _live_window(y0f, h), _live_window(x0f, w)
        if live_rows is None or live_cols is None:
            return np.zeros(shape)
    xs, x0f, ys, y0f = xs[live_cols], x0f[live_cols], ys[live_rows], y0f[live_rows]
    fx = xs - x0f
    fy = (ys - y0f)[:, np.newaxis]
    gx = 1.0 - fx
    gy = 1.0 - fy
    c0, c1 = _corner_indices(x0f.astype(np.intp), w, border)
    r0, r1 = _corner_indices(y0f.astype(np.intp), h, border)
    rows, at = np.unique(np.concatenate([r0, r1]), return_inverse=True)
    at0, at1 = at[: ys.size], at[ys.size :]
    if zero:
        # rows index the zero-ringed grid, whose ring rows 0 and h + 1 sort to the ends
        src = np.zeros((rows.size, w + 2))
        lo, hi = np.searchsorted(rows, [1, h + 1])
        inner, rows = src[lo:hi, 1:-1], rows[lo:hi] - 1
    # Allocated after the buffers above: allocating it first left a glibc
    # heap layout that raised the peak RSS of the next forward pass by 15 MB.
    out = np.zeros(shape) if zero else np.empty(shape)
    window = out[..., live_rows, live_cols]
    for index in np.ndindex(*lead):
        if zero:
            inner[...] = grid[index][rows]
        else:
            src = grid[index][rows]
        t = np.take(src, c0, axis=1, mode="clip")
        t *= gx
        right = np.take(src, c1, axis=1, mode="clip")
        right *= fx
        t += right
        o = window[index]
        # a take into a window narrower than the output would go through a copy
        top = np.take(t, at0, axis=0, out=o if o.flags.c_contiguous else None, mode="clip")
        top *= gy
        bottom = np.take(t, at1, axis=0, mode="clip")
        bottom *= fy
        np.add(top, bottom, out=o)
    return out


def _live_window(i0f, n):
    """Slice from the first to the last output whose corner i0 or i0 + 1 lies
    in [0, n), given the floors ``i0f``; None when there is none."""
    live = np.flatnonzero((i0f >= -1.0) & (i0f < n))
    return slice(live[0], live[-1] + 1) if live.size else None


def _corner_indices(i0, n, border):
    """In-grid indices of the corners i0 and i0 + 1 along an axis of extent n.

    For ZERO they index the padded axis of extent n + 2, where indices
    outside [0, n) land on the zero ring.
    """
    if border is BorderPolicy.CIRCULAR:
        return i0 % n, (i0 + 1) % n
    if border is BorderPolicy.ZERO:
        return np.clip(i0 + 1, 0, n + 1), np.clip(i0 + 2, 0, n + 1)
    return np.clip(i0, 0, n - 1), np.clip(i0 + 1, 0, n - 1)


def warp(
    image,
    mapping: PixelMapping,
    border: BorderPolicy = BorderPolicy.CLAMP,
    out_shape: tuple | None = None,
) -> np.ndarray:
    """Inverse-mapping resampler over the trailing two axes of an ``[..., H, W]`` grid:
    output[..., y, x] = sample(image, mapping(x, y)).

    The mapping is first evaluated on a band of output rows. If it returns
    an open grid, ``(1, W)`` columns and ``(rows, 1)`` rows as an
    axis-aligned map (``scale_about``, ``shift``, identity) does, it is
    evaluated once over all rows and sampled by the separable kernel. Any
    other map is evaluated and sampled one band of
    ``max(1, BLOCK_POINTS // (prod(lead) * W))`` rows at a time, straight
    into that band of the output, so no full-size coordinate array is built.
    """
    image = as_grid(image, name="image")
    border = BorderPolicy.coerce(border)
    h, w = out_shape if out_shape is not None else image.shape[-2:]
    _check_extents("warp output", h, w)
    lead = image.shape[:-2]
    band = max(1, BLOCK_POINTS // (math.prod(lead) * w))
    xs = np.arange(w, dtype=np.float64)[np.newaxis, :]
    ys = np.arange(h, dtype=np.float64)[:, np.newaxis]
    sx, sy = mapping(xs, ys[:band])
    if np.shape(sx) == (1, w) and np.shape(sy) == (min(band, h), 1):
        return sample_at(image, *mapping(xs, ys), border)
    flat = _point_source(image, border)
    out = np.empty((*lead, h * w))
    for first in range(0, h, band):
        rows = ys[first : first + band]
        if first:
            sx, sy = mapping(xs, rows)
        sx, sy = (np.broadcast_to(c, (rows.size, w)).ravel() for c in _finite_coordinates(sx, sy))
        points = out[..., first * w : (first + rows.size) * w]
        _sample_points(flat, image.shape[-2:], sx, sy, border, points)
    return out.reshape(*lead, h, w)


def scale_transform(
    image,
    s: float,
    center: tuple | None = None,
    border: BorderPolicy = BorderPolicy.CLAMP,
) -> np.ndarray:
    """Scale transform T_s about ``center`` given as (row, col).

    output(y, x) = image(cy + (y - cy)/s, cx + (x - cx)/s); s > 1 magnifies,
    s < 1 shrinks. The default center is the exact image center. T_1 returns
    a bit-exact copy.
    """
    return _scale_about(as_grid(image, rank=2, name="image"), s, center, border)


def scale_transform_stack(
    stack,
    s: float,
    center: tuple | None = None,
    border: BorderPolicy = BorderPolicy.CLAMP,
) -> np.ndarray:
    """Apply ``scale_transform`` over the trailing two axes of a rank >= 2 grid, as one warp."""
    return _scale_about(as_grid(stack, name="stack"), s, center, border)


def scale_transform_mapping(shape: tuple, s: float, center: tuple | None) -> PixelMapping:
    """The mapping of ``scale_transform`` on a grid whose trailing extents are
    ``shape[-2:]``: T_s about ``center`` (row, col), or about the exact grid
    center when it is None."""
    if not np.isfinite(s) or s <= 0:
        raise ValueError(f"scale factor must be positive and finite, got {s}")
    if center is None:
        cy, cx = (shape[-2] - 1) / 2.0, (shape[-1] - 1) / 2.0
    else:
        cy, cx = float(center[0]), float(center[1])
    return PixelMapping.scale_about(s, cx, cy)


def _scale_about(grid, s, center, border):
    mapping = scale_transform_mapping(grid.shape, s, center)
    if s == 1.0:
        return grid.copy()
    return warp(grid, mapping, border)


def resize(
    image, out_h: int, out_w: int, border: BorderPolicy = BorderPolicy.CLAMP
) -> np.ndarray:
    """Bilinear resize with endpoint-aligned sampling."""
    image = as_grid(image, rank=2, name="image")
    _check_extents("resize target", out_h, out_w)
    h, w = image.shape
    ys = (
        np.arange(out_h, dtype=np.float64) * ((h - 1) / (out_h - 1))
        if out_h > 1
        else np.full(1, (h - 1) / 2.0)
    )
    xs = (
        np.arange(out_w, dtype=np.float64) * ((w - 1) / (out_w - 1))
        if out_w > 1
        else np.full(1, (w - 1) / 2.0)
    )
    return sample_at(image, xs[np.newaxis, :], ys[:, np.newaxis], border)


def _check_extents(what, h, w):
    if not all(isinstance(n, numbers.Integral) and n >= 1 for n in (h, w)):
        raise ShapeError(f"{what} extents must be integers >= 1, got {h}x{w}")
