"""Dense 2D convolution (correlation semantics) over multi-channel grids."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError
from .grid import BorderPolicy, as_grid, pad_mode

BLOCK_BYTES = 1 << 20  # patch matrix per GEMM: fits in L2, where a whole im2col takes 100s of MB


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
    [O, H, W] array, the result is written into it and ``out`` is returned.
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
    windows = sliding_window_view(padded, (kh, kw), axis=(1, 2)).transpose(0, 3, 4, 1, 2)
    weights = kernels.reshape(out_ch, -1)
    flat = out.reshape(out_ch, h * w)
    # A row block of the [C, k, k, H, W] windows, copied, is the [C*k*k, rows*W] patch matrix.
    # Each output is one (c, i, j) dot product in an order independent of its position, so
    # circular shifts commute bit-exactly and the thread count cannot matter.
    rows = max(1, BLOCK_BYTES // (weights.nbytes // out_ch * w))
    for r0 in range(0, h, rows):
        patches = windows[..., r0 : r0 + rows, :].reshape(weights.shape[1], -1)
        np.matmul(weights, patches, out=flat[:, r0 * w : (r0 + rows) * w])
    return out


def pad2d(image: np.ndarray, margin: int, border: BorderPolicy) -> np.ndarray:
    """Pad the trailing two axes by ``margin`` on each side."""
    if margin == 0:
        return image
    spec = [(0, 0)] * (image.ndim - 2) + [(margin, margin), (margin, margin)]
    if BorderPolicy.coerce(border) is BorderPolicy.ZERO:
        return np.pad(image, spec, mode="constant", constant_values=0.0)
    return np.pad(image, spec, mode=pad_mode(border))
