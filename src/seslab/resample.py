"""Bilinear sampling, warping, scale transforms, and resizing of [..., H, W] grids."""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DegenerateGeometryError, ShapeError, as_real, is_integer
from .grid import BorderPolicy, as_grid, check_fits_memory


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
        raise ShapeError("sample coordinates must be finite")
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
    ``shape``, or one row fewer; ``xs`` and ``ys`` are flat. Points are
    walked in blocks of about ``BLOCK_POINTS`` output values. Per block,
    floor, fraction and corner indices are worked out once per axis and
    shared by all slices, the four corners are gathered by flat index, and
    the blend is written in place into the block's slice of ``out``. The
    in-place products and sums only commute operands, which rounds the
    same. The takes use mode="wrap", which skips the bounds check: an index
    of the grid is in range by construction, and one into the extra row of
    a ``shape`` one row taller wraps onto row 0.
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
            np.take(flat, index, axis=-1, mode="wrap")
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

    ``_separable_plan`` works out the rows and corner columns the outputs
    read, and ``_blend`` blends them. Leading slices go one at a time, so no
    temporary grows with the channel count.

    For ZERO, an output whose four corners all lie on the zero ring blends
    zeros with non-negative weights, which gives +0.0. The output starts as
    +0.0, and only the plan's live window is sampled, straight into the
    output, with the same expressions.
    """
    lead = grid.shape[:-2]
    h, w = grid.shape[-2:]
    shape = (*lead, ys.size, xs.size)
    plan = _separable_plan(xs, ys, (h, w), border)
    if plan is None:
        return np.zeros(shape)
    zero = border is BorderPolicy.ZERO
    rows = plan.rows
    if zero:
        # rows index the zero-ringed grid, whose ring rows 0 and h + 1 sort to the ends
        src = np.zeros((rows.size, w + 2))
        lo, hi = np.searchsorted(rows, [1, h + 1])
        inner, rows = src[lo:hi, 1:-1], rows[lo:hi] - 1
    # Allocated after the buffers above: allocating it first left a glibc
    # heap layout that raised the peak RSS of the next forward pass by 15 MB.
    out = np.zeros(shape) if zero else np.empty(shape)
    window = out[(..., *plan.live)]
    for index in np.ndindex(*lead):
        if zero:
            inner[...] = grid[index][rows]
        else:
            src = grid[index][rows]
        _blend(src, plan, window[index])
    return out


@dataclass(frozen=True)
class _SeparablePlan:
    """Output (i, j) of the ``live`` window (rows, cols) blends the corner rows
    ``rows[at0[i]]`` and ``rows[at1[i]]`` and the corner columns ``c0[j]`` and
    ``c1[j]`` with fractions ``fx[j]`` and ``fy[i, 0]``. For ZERO the rows and
    columns index the zero-ringed grid."""

    rows: np.ndarray
    at0: np.ndarray
    at1: np.ndarray
    c0: np.ndarray
    c1: np.ndarray
    fx: np.ndarray
    fy: np.ndarray
    live: tuple

    def compact_columns(self) -> tuple:
        """The source columns the plan reads, ascending, and the plan with
        ``c0`` and ``c1`` indexing them, for a source of only those columns."""
        cols, at = np.unique(np.concatenate([self.c0, self.c1]), return_inverse=True)
        return cols, replace(self, c0=at[: self.c0.size], c1=at[self.c0.size :])


def _separable_plan(xs, ys, shape, border):
    """The ``_SeparablePlan`` of the outputs (xs[j], ys[i]) on a grid of trailing
    extents ``shape``; None for ZERO when no output has a corner in the grid."""
    h, w = shape
    x0f = np.floor(xs)
    y0f = np.floor(ys)
    live = (slice(None), slice(None))
    if border is BorderPolicy.ZERO:
        live = (_live_window(y0f, h), _live_window(x0f, w))
        if live[0] is None or live[1] is None:
            return None
    live_rows, live_cols = live
    xs, x0f, ys, y0f = xs[live_cols], x0f[live_cols], ys[live_rows], y0f[live_rows]
    fx = xs - x0f
    fy = (ys - y0f)[:, np.newaxis]
    c0, c1 = _corner_indices(x0f.astype(np.intp), w, border)
    r0, r1 = _corner_indices(y0f.astype(np.intp), h, border)
    rows, at = np.unique(np.concatenate([r0, r1]), return_inverse=True)
    return _SeparablePlan(rows, at[: ys.size], at[ys.size :], c0, c1, fx, fy, live)


def _blend(src, plan, o):
    """Write into ``o`` the plan's blend of ``src``, the grid's rows ``plan.rows``.

    The x pass blends, once per output column, every row of src:
    ``t = (1 - fx) * src[:, c0] + fx * src[:, c1]``, the point kernel's
    ``top`` and ``bottom``. The y pass blends rows of t:
    ``(1 - fy) * t[at0] + fy * t[at1]``. The in-place products and sums only
    commute operands, which rounds the same. The takes use mode="clip",
    which skips the bounds check and the buffered ``out`` of the default
    mode; every index is in range by construction.

    The second take of each pass runs in row bands of ``BAND_VALUES``
    values, so besides ``o`` only t and one band are held, never a second
    full-size take.
    """
    t = np.take(src, plan.c0, axis=1, mode="clip")
    t *= 1.0 - plan.fx
    for lo, hi in _bands(*t.shape):
        right = np.take(src[lo:hi], plan.c1, axis=1, mode="clip")
        right *= plan.fx
        t[lo:hi] += right
        del right  # freed before the next band is taken
    gy = 1.0 - plan.fy
    for lo, hi in _bands(*o.shape):
        band = o[lo:hi]
        # a take into a window narrower than the output would go through a copy
        top = np.take(t, plan.at0[lo:hi], axis=0, out=band if band.flags.c_contiguous else None, mode="clip")
        top *= gy[lo:hi]
        bottom = np.take(t, plan.at1[lo:hi], axis=0, mode="clip")
        bottom *= plan.fy[lo:hi]
        np.add(top, bottom, out=band)
        del top, bottom


# Values per band of ``_blend``'s second takes: a 192x640 window, the widest
# slice the equivariance harness samples, is one band.
BAND_VALUES = 1 << 17


def _bands(rows, cols, values=BAND_VALUES):
    """(lo, hi) bands of at most ``values`` values, or one row, of a rows x cols array."""
    step = max(1, values // cols)
    return ((lo, min(lo + step, rows)) for lo in range(0, rows, step))


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
    i1 = i0 + 1
    if border is BorderPolicy.CIRCULAR:
        i1 %= n
        return i0 % n, i1
    if border is BorderPolicy.ZERO:
        i2 = i1 + 1
        return np.clip(i1, 0, n + 1, out=i1), np.clip(i2, 0, n + 1, out=i2)
    return np.clip(i0, 0, n - 1), np.clip(i1, 0, n - 1, out=i1)


def warp(
    image,
    mapping: Callable,
    border: BorderPolicy = BorderPolicy.CLAMP,
    out_shape: tuple | None = None,
) -> np.ndarray:
    """Inverse-mapping resampler over the trailing two axes of an ``[..., H, W]`` grid:
    output[..., y, x] = sample(image, mapping(x, y)), where ``mapping`` is any
    function from broadcastable output (x, y) arrays to source (x, y) arrays.

    The mapping is first evaluated on a band of output rows. If it returns
    an open grid, ``(1, W)`` columns and ``(rows, 1)`` rows as an
    axis-aligned map such as ``scale_about`` does, it is evaluated once over
    all rows and sampled by the separable kernel. Any other map is evaluated
    and sampled one band of ``max(1, BLOCK_POINTS // (prod(lead) * W))`` rows
    at a time, straight into that band of the output, so no full-size
    coordinate array is built. Raises ConfigError as ``_check_output`` does.
    """
    image = as_grid(image, name="image")
    border = BorderPolicy.coerce(border)
    h, w = out_shape if out_shape is not None else image.shape[-2:]
    _check_output("warp output", h, w, image.shape[:-2])
    return _warp(image, image.shape[-2:], mapping, border, (slice(0, h), slice(0, w)))


def _warp(image, shape, mapping, border, window):
    """``warp`` of ``image`` read as a grid of trailing extents ``shape``, on the
    (rows, cols) slices ``window`` of the output frame, with explicit bounds and
    unit step: window pixel (y, x) is frame pixel (rows.start + y, cols.start + x).

    ``shape`` is the image's own, or one row taller: then the point
    kernel's extra last row reads row 0 (the theta wrap of the inverse
    log-polar), and every map goes through the point kernel.
    """
    rows, cols = window
    xs = np.arange(cols.start, cols.stop, dtype=np.float64)[np.newaxis, :]
    ys = np.arange(rows.start, rows.stop, dtype=np.float64)[:, np.newaxis]
    h, w = ys.size, xs.size
    lead = image.shape[:-2]
    band = max(1, BLOCK_POINTS // (math.prod(lead) * w))
    sx, sy = mapping(xs, ys[:band])
    if shape == image.shape[-2:] and np.shape(sx) == (1, w) and np.shape(sy) == (min(band, h), 1):
        return sample_at(image, *mapping(xs, ys), border)
    flat = _point_source(image, border)
    out = np.empty((*lead, h * w))
    for first in range(0, h, band):
        band_ys = ys[first : first + band]
        if first:
            sx, sy = mapping(xs, band_ys)
        sx, sy = (np.broadcast_to(c, (band_ys.size, w)).ravel() for c in _finite_coordinates(sx, sy))
        points = out[..., first * w : (first + band_ys.size) * w]
        _sample_points(flat, shape, sx, sy, border, points)
    return out.reshape(*lead, h, w)


def warp_scratch(shape, out_shape, separable: bool, border: BorderPolicy = BorderPolicy.CLAMP) -> float:
    """At most the doubles that ``_warp`` holds besides a grid of extents
    ``shape`` and its output of trailing extents ``out_shape``. A point map:
    the kernel's blocks, twenty arrays of BLOCK_POINTS values or an output
    row, and for ZERO the ringed grid. An axis-aligned map (``separable``),
    per leading slice: the source rows, two per output row at most, with
    ZERO's ring, their x pass or ring copy, two bands, and twenty per-row and
    per-column arrays."""
    (*lead, h, w), (out_h, out_w) = map(as_real, shape), map(as_real, out_shape)
    if not separable:
        ring = math.prod(lead) * (h + 2) * (w + 2) if border is BorderPolicy.ZERO else 0.0
        return 20 * max(BLOCK_POINTS, out_w) + ring
    rows, band = min(h + 2, 2 * out_h), max(out_w, min(BAND_VALUES, out_h * out_w))
    return rows * (w + 2 + max(w, out_w)) + 2 * band + 20 * (out_h + out_w)


def scale_transform(image, s: float, border: BorderPolicy = BorderPolicy.CLAMP) -> np.ndarray:
    """Scale transform T_s about the exact image center (cy, cx) = ((H-1)/2, (W-1)/2).

    output(y, x) = image(cy + (y - cy)/s, cx + (x - cx)/s); s > 1 magnifies,
    s < 1 shrinks. T_1 returns a bit-exact copy.
    """
    return scale_transform_stack(as_grid(image, rank=2, name="image"), s, border)


def scale_transform_stack(stack, s: float, border: BorderPolicy = BorderPolicy.CLAMP) -> np.ndarray:
    """Apply ``scale_transform`` over the trailing two axes of a rank >= 2 grid, as one warp."""
    stack = as_grid(stack, name="stack")
    mapping = scale_transform_mapping(stack.shape, s)
    if s == 1.0:
        return stack.copy()
    return warp(stack, mapping, border)


def scale_about(s: float, cx: float, cy: float) -> Callable:
    """The pixel mapping of the scale transform T_s about (cx, cy); s > 1 magnifies.
    Raises DegenerateGeometryError unless ``s`` is a positive finite real."""
    real = as_real(s)
    if not 0 < real < math.inf:
        raise DegenerateGeometryError(f"scale factor must be positive and finite, got {s}")
    return lambda xs, ys: (cx + (xs - cx) / real, cy + (ys - cy) / real)


def scale_transform_mapping(shape: tuple, s: float) -> Callable:
    """The mapping of ``scale_transform`` on a grid whose trailing extents are
    ``shape[-2:]``: T_s about the exact grid center. Raises
    DegenerateGeometryError as ``scale_about`` does, and unless T_s maps the
    grid's last pixel, the farthest from the center, to a finite point."""
    h, w = shape[-2:]
    mapping = scale_about(s, (w - 1) / 2.0, (h - 1) / 2.0)
    with np.errstate(over="ignore"):  # refused below instead
        corner = mapping(np.float64(w - 1), np.float64(h - 1))
    if not np.isfinite(corner).all():
        raise DegenerateGeometryError(f"scale factor {s} maps the corner of a {h}x{w} grid past the float range")
    return mapping


def resize(image, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize with endpoint-aligned sampling; the sample points never
    leave the grid, and clamp at its edges. Raises ConfigError as
    ``_check_output`` does."""
    image = as_grid(image, rank=2, name="image")
    _check_output("resize target", out_h, out_w)
    h, w = image.shape
    xs, ys = _endpoint_aligned(w, out_w), _endpoint_aligned(h, out_h)
    return sample_at(image, xs[np.newaxis, :], ys[:, np.newaxis])


def _resize_plan(shape, out_h: int, out_w: int) -> _SeparablePlan:
    """The separable plan of ``resize`` from a grid of extents ``shape``."""
    return _separable_plan(
        _endpoint_aligned(shape[1], out_w), _endpoint_aligned(shape[0], out_h), shape, BorderPolicy.CLAMP
    )


def _endpoint_aligned(n: int, out_n: int) -> np.ndarray:
    """``resize``'s sample coordinates along an axis of extent n."""
    if out_n > 1:
        return np.arange(out_n, dtype=np.float64) * ((n - 1) / (out_n - 1))
    return np.full(1, (n - 1) / 2.0)


def _check_extents(what, h, w):
    if not all(is_integer(n) and n >= 1 for n in (h, w)):
        raise ShapeError(f"{what} extents must be integers >= 1, got {h}x{w}")


def _check_output(what, h, w, lead: tuple = ()):
    """Raise ShapeError as ``_check_extents`` does, and ConfigError unless a
    [*lead, h, w] output fits in the machine's physical memory; call it before
    the output is allocated."""
    _check_extents(what, h, w)
    shape = (*lead, h, w)
    check_fits_memory(math.prod(map(as_real, shape)), f"{what} {'x'.join(map(reprlib.repr, shape))}")
