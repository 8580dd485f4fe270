"""Dense 2D convolution (correlation semantics) over multi-channel grids."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ShapeError, is_integer
from .grid import BorderPolicy, as_grid

BLOCK_BYTES = 1 << 19  # bounds a row block's patch and each of its accumulators: they stay in L2
HEADER_VALUES = 1024  # 8 KiB, in doubles: conv2d's array objects and views besides their data


def conv2d(
    image: np.ndarray,
    kernels: np.ndarray,
    border: BorderPolicy = BorderPolicy.ZERO,
    out: np.ndarray | None = None,
    margins: tuple | None = None,
    fold: bool = False,
) -> np.ndarray:
    """Correlate a [C, H, W] grid with a [O, C, k, k] kernel stack.

    Stride is 1. The input is padded under the border policy by ``margins``,
    (top, bottom, left, right) pixels, each in 0..k//2; the output is then
    [O, H + top + bottom - k + 1, W + left + right - k + 1]. The default pads
    k//2 on every side, so the spatial output size equals the input size
    ("same" output); a side padded by 0 loses k//2 output pixels ("valid" on
    that side). No kernel flip is applied:

        out[o, u, v] = sum_{c,i,j} image[c, u+i-top, v+j-left] * kernels[o, c, i, j]

    The kernel extent k must be odd and the input channel count must match
    the kernels' channel dimension. With ``out`` given, a C-contiguous float64
    array of the output shape, the result is written into it and ``out`` is
    returned; ``out`` may share memory with ``image``, even when the output is
    smaller than the input. With ``fold`` the result is folded into ``out``
    instead, row block by row block, as ``np.maximum(out, result, out=out)``
    would fold it, bit for bit. The input, contiguous or not, is read in
    place: each row block's patch is filled from it under the border policy,
    as numpy.pad would pad it, so no padded copy is made. It is copied only
    when ``out`` shares its memory, since later row blocks reread rows that
    earlier ones overwrite.

    Each output is a sum over the column taps j, in j order, of one dot product
    over (c, i). That order does not depend on the output's position or on the
    thread count, so circular shifts commute with conv2d bit-exactly, and an
    output pixel has the same bits in any grid whose padded input around it is
    the same. For that, every matrix product has a multiple of 8 columns: the
    BLAS may sum the last N mod 8 columns of an N-column product in another
    order than the columns before them (OpenBLAS 0.3.31 does), so the patch
    and accumulators carry zero slack columns, which are discarded.
    """
    image = as_grid(image, rank=3, name="input")
    kernels = as_grid(kernels, rank=4, name="kernels")
    out_ch, in_ch, kh, kw = kernels.shape
    if kh != kw:
        raise ShapeError(f"kernels must be square, got {kh}x{kw}")
    if kh % 2 == 0:
        raise ShapeError(f"kernel extent must be odd, got {kh}")
    if image.shape[0] != in_ch:
        raise ShapeError(f"channel mismatch: input has {image.shape[0]} channels, kernels expect {in_ch}")
    margins = (kh // 2,) * 4 if margins is None else tuple(margins)
    _, h, w = image.shape
    if len(margins) != 4 or not all(is_integer(m) and 0 <= m <= kh // 2 for m in margins):
        raise ShapeError(f"margins must be 4 integers in 0..{kh // 2}, got {margins}")
    top, bottom, left, right = margins
    wp = w + left + right
    shape = (out_ch, ho, wo) = (out_ch, h + top + bottom - kh + 1, wp - kw + 1)
    if min(ho, wo) < 1:
        raise ShapeError(f"margins {margins} leave no output pixel of a {h}x{w} input for k = {kh}")
    if out is None:
        out = np.empty(shape)
    elif not (isinstance(out, np.ndarray) and out.shape == shape
              and out.dtype == np.float64 and out.flags.c_contiguous):
        raise ShapeError(f"out must be a C-contiguous float64 array of shape {shape}")
    border = BorderPolicy.coerce(border)
    if np.may_share_memory(image, out):  # later row blocks reread rows that earlier ones overwrite
        image = image.copy()
    # Flatten each channel of the padded map, of width wp. Output (u, v) of a block of
    # rows starting at r0 is then column t = (u - r0) * wp + v, and tap (c, i, j) reads
    # flat[c, (r0 + i) * wp + j + t]. So one [C*k, rows*wp] patch, whose row (c, i) is
    # the block's rows shifted down by i, serves every column tap j through the view
    # patch[:, j : j + cols]; columns v >= the output width are discarded, and so are
    # the zero slack columns that make cols a multiple of 8. The patch is filled from
    # the input itself: padded row r0 + i + q reads input row r0 + i + q - top.
    taps = np.ascontiguousarray(kernels.transpose(3, 0, 1, 2)).reshape(kw, out_ch, in_ch * kh)
    blocks = -(-ho // max(1, BLOCK_BYTES // (8 * max(in_ch * kh, out_ch) * wp)))
    rows = -(-ho // blocks)  # equal blocks; the last one may overlap its predecessor
    span = rows * wp
    cols = -(-(span - kw + 1) // 8) * 8
    patch = np.empty((in_ch, kh, cols + kw - 1))
    patch[:, :, span:] = 0.0
    rhs = patch.reshape(in_ch * kh, -1)
    grid = patch[:, :, :span].reshape(in_ch, kh, rows, wp)  # [c, i, q] is padded row r0 + i + q
    inner = grid[..., left : left + w]
    sources = [(x, _source(x - left, w, border)) for x in [*range(left), *range(left + w, wp)]]
    grid[..., [x for x, src in sources if src is None]] = 0.0  # pad columns the same in every block
    pads = [(x, left + src) for x, src in sources if src is not None]  # pad columns copied per block
    # A block whose input rows r0 - top .. r0 - top + rows + k - 2 all lie in the
    # input reads them through one strided view.
    reach = max(h - rows - kh + 2, 0)
    s0, s1, s2 = image.strides
    interior = as_strided(image, (in_ch, reach, kh, rows, w), (s0, s1, s1, s1, s2), writeable=False)
    # Contiguous accumulators add fastest; their columns past cols stay 0.
    acc, tmp = np.zeros((out_ch, max(span, cols))), np.zeros((out_ch, max(span, cols)))
    for r0 in range(0, ho, rows):
        r0 = min(r0, ho - rows)
        if 0 <= r0 - top < reach:
            np.copyto(inner, interior[:, r0 - top])
        else:
            _fill_rows(inner, image, r0 - top, border)
        for x, src in pads:
            grid[..., x] = grid[..., src]
        np.matmul(taps[0], rhs[:, :cols], out=acc[:, :cols])
        for j in range(1, kw):
            np.matmul(taps[j], rhs[:, j : j + cols], out=tmp[:, :cols])
            acc += tmp
        result, target = acc[:, :span].reshape(out_ch, rows, wp)[:, :, :wo], out[:, r0 : r0 + rows]
        if fold:  # rows that an overlapping last block folds again keep their bits
            np.maximum(target, result, out=target)
        else:
            target[...] = result
    return out


def _source(y: int, n: int, border: BorderPolicy) -> int | None:
    """The index in 0..n-1 of the input row or column that index y of its
    padded axis (counted from the input's first one) reads under ``border``,
    or None where it reads a zero: numpy.pad's "constant", "edge" and "wrap"
    modes, also where y lies more than n outside."""
    if 0 <= y < n:
        return y
    if border is BorderPolicy.CLAMP:
        return min(max(y, 0), n - 1)
    if border is BorderPolicy.CIRCULAR:
        return y % n
    return None


def _fill_rows(patch: np.ndarray, image: np.ndarray, y0: int, border: BorderPolicy) -> None:
    """Fill a row block's [C, k, rows, w] patch from the [C, h, w] input: row
    (c, i, q) holds input row y0 + i + q under ``border``."""
    _, kh, rows, _ = patch.shape
    h = image.shape[1]
    for i in range(kh):
        y = y0 + i
        lo, hi = min(max(-y, 0), rows), min(max(h - y, 0), rows)  # rows q that lie in the input
        np.copyto(patch[:, i, lo:hi], image[:, y + lo : y + hi])
        for q in [*range(lo), *range(hi, rows)]:
            src = _source(y + q, h, border)
            patch[:, i, q] = 0.0 if src is None else image[:, src]


def conv2d_scratch(in_ch: float, out_ch: float, k: float, h: float, w: float) -> float:
    """At most the doubles that conv2d holds besides its input and output, for
    a [in_ch, h, w] input, [out_ch, in_ch, k, k] kernels and the default
    margins: the input's copy when ``out`` shares its memory, the taps, and
    a row block's [in_ch * k, .] patch and two [out_ch, .] accumulators.
    Each of those three has a block's columns and at most k + 8 more, and a
    block has at most BLOCK_BYTES / (8 * max(in_ch * k, out_ch)) columns
    unless it is one padded row. HEADER_VALUES more cover the objects of the
    arrays and views that conv2d makes."""
    wp = w + k - 1
    cols = max(BLOCK_BYTES / (8 * max(in_ch * k, out_ch)), wp) + k + 8
    return in_ch * h * w + out_ch * in_ch * k * k + (in_ch * k + 2 * out_ch) * cols + HEADER_VALUES
