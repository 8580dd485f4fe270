"""Dense 2D convolution (correlation semantics) over multi-channel grids."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError
from .grid import BorderPolicy, as_grid, pad_mode

BLOCK_BYTES = 1 << 19  # bounds a row block's patch and each of its accumulators: they stay in L2


def conv2d(
    image: np.ndarray,
    kernels: np.ndarray,
    border: BorderPolicy = BorderPolicy.ZERO,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Correlate a [C, H, W] grid with a [O, C, k, k] kernel stack.

    Stride is 1 and the spatial output size equals the input size ("same"
    output under the border policy). No kernel flip is applied:

        out[o, u, v] = sum_{c,i,j} image[c, u+i-k//2, v+j-k//2] * kernels[o, c, i, j]

    The kernel extent k must be odd and the input channel count must match
    the kernels' channel dimension. With ``out`` given, a C-contiguous float64
    [O, H, W] array, the result is written into it and ``out`` is returned;
    ``out`` may be ``image`` itself when O == C.

    Each output is a sum over the column taps j, in j order, of one dot product
    over (c, i). That order does not depend on the output's position or on the
    thread count, so circular shifts commute with conv2d bit-exactly.
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
    _, h, w = image.shape
    if out is None:
        out = np.empty((out_ch, h, w))
    elif not (isinstance(out, np.ndarray) and out.shape == (out_ch, h, w)
              and out.dtype == np.float64 and out.flags.c_contiguous):
        raise ShapeError(f"out must be a C-contiguous float64 array of shape {(out_ch, h, w)}")
    padded = pad2d(image, kh // 2, BorderPolicy.coerce(border))
    if np.may_share_memory(padded, out):  # k = 1 pads nothing; the last block rereads rows
        padded = padded.copy()
    # Flatten each channel of the padded map, of width wp. Output (u, v) of a block of
    # rows starting at r0 is then column t = (u - r0) * wp + v, and tap (c, i, j) reads
    # flat[c, (r0 + i) * wp + j + t]. So one [C*k, rows*wp] patch, whose row (c, i) is
    # the block's rows shifted down by i, serves every column tap j through the view
    # patch[:, j : j + cols]; columns v >= W are discarded.
    wp = w + kw - 1
    taps = np.ascontiguousarray(kernels.transpose(3, 0, 1, 2)).reshape(kw, out_ch, in_ch * kh)
    blocks = -(-h // max(1, BLOCK_BYTES // (8 * max(in_ch * kh, out_ch) * wp)))
    rows = -(-h // blocks)  # equal blocks; the last one may overlap its predecessor
    span, cols = rows * wp, rows * wp - kw + 1
    windows = sliding_window_view(padded.reshape(in_ch, -1), span, axis=1)
    patch = np.empty((in_ch, kh, span))
    rhs = patch.reshape(in_ch * kh, span)
    # Contiguous accumulators add fastest; their last kw - 1 columns stay 0.
    acc, tmp = np.zeros((out_ch, span)), np.zeros((out_ch, span))
    for r0 in range(0, h, rows):
        r0 = min(r0, h - rows)
        np.copyto(patch, windows[:, r0 * wp : (r0 + kh) * wp : wp])
        np.matmul(taps[0], rhs[:, :cols], out=acc[:, :cols])
        for j in range(1, kw):
            np.matmul(taps[j], rhs[:, j : j + cols], out=tmp[:, :cols])
            acc += tmp
        out[:, r0 : r0 + rows] = acc.reshape(out_ch, rows, wp)[:, :, :w]
    return out


def pad2d(image: np.ndarray, margin: int, border: BorderPolicy) -> np.ndarray:
    """Pad the trailing two axes by ``margin`` on each side."""
    if margin == 0:
        return image
    spec = [(0, 0)] * (image.ndim - 2) + [(margin, margin), (margin, margin)]
    return np.pad(image, spec, mode=pad_mode(border))
