"""Dense float64 grid validation and border handling."""

from __future__ import annotations

import enum
import os

import numpy as np

from .errors import ConfigError, ShapeError


class BorderPolicy(enum.Enum):
    """How sampling and padding treat coordinates outside the source grid."""

    ZERO = "zero-fill"
    CLAMP = "clamp"
    CIRCULAR = "circular"

    @classmethod
    def coerce(cls, value) -> "BorderPolicy":
        if isinstance(value, BorderPolicy):
            return value
        label = str(value).lower()
        for member in cls:
            if member.value == label or member.name.lower() == label:
                return member
        raise ConfigError(f"unknown border policy: {value!r}")


def check_fits_memory(values: float, plan: str) -> None:
    """Raise ConfigError naming ``plan`` unless ``values`` doubles fit in the
    machine's physical memory; call it before allocating any of them."""
    planned = 8.0 * values
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if not planned <= physical:
        raise ConfigError(
            f"{plan} plans {planned:.3g} bytes, more than the machine's physical memory ({physical} bytes)"
        )


def crop(arr: np.ndarray, margin: float) -> np.ndarray:
    """View of ``arr`` without a border of ``margin`` x extent on each side of its last two axes."""
    return arr[(..., *crop_window(arr.shape, margin))]


def crop_window(shape: tuple, margin: float) -> tuple:
    """The (rows, cols) slices that ``crop`` keeps of a grid with trailing extents ``shape[-2:]``.

    Raises ConfigError unless ``margin`` lies in [0, 0.5) and the window
    keeps at least one pixel.
    """
    h, w = shape[-2:]
    if not 0.0 <= margin < 0.5:
        raise ConfigError(f"crop margin must lie in [0, 0.5), got {margin} for a {h}x{w} grid")
    my = int(round(h * margin))
    mx = int(round(w * margin))
    if my >= h - my or mx >= w - mx:
        raise ConfigError(f"crop margin {margin} leaves no pixel of a {h}x{w} grid")
    return slice(my, h - my), slice(mx, w - mx)


def check_window(shape: tuple, window) -> tuple:
    """``window``, (rows, cols) slices of a grid with trailing extents ``shape[-2:]``,
    as slices with explicit bounds inside the grid; the whole grid if it is None.

    Raises ShapeError unless each slice has unit step and keeps at least one pixel.
    """
    if window is None:
        window = (slice(None), slice(None))
    if not (isinstance(window, tuple) and len(window) == 2 and all(isinstance(s, slice) for s in window)):
        raise ShapeError(f"window must be a (rows, cols) pair of slices, got {window!r}")
    spans = [range(n)[s] for n, s in zip(shape[-2:], window)]
    if any(len(r) == 0 or r.step != 1 for r in spans):
        raise ShapeError(f"window {window} must keep at least one pixel of a {shape[-2]}x{shape[-1]} grid in unit steps")
    return tuple(slice(r.start, r.stop) for r in spans)


def dilate(shape: tuple, window, reach: int) -> tuple:
    """The (rows, cols) slices ``window`` widened by ``reach`` pixels on each side and
    clipped to a grid with trailing extents ``shape[-2:]``."""
    return tuple(slice(max(s.start - reach, 0), min(s.stop + reach, n)) for n, s in zip(shape[-2:], window))


def within(inner, outer) -> tuple:
    """The slices ``inner`` relative to the start of the slices ``outer``."""
    return tuple(slice(i.start - o.start, i.stop - o.start) for i, o in zip(inner, outer))


def as_grid(data, rank: int | None = None, name: str = "grid") -> np.ndarray:
    """Return ``data`` as a float64 array with validated rank and extents."""
    arr = np.asarray(data, dtype=np.float64)
    if rank is not None:
        if arr.ndim != rank:
            raise ShapeError(
                f"{name} must have rank {rank}, got rank {arr.ndim} with shape {arr.shape}"
            )
    elif not 2 <= arr.ndim <= 5:
        raise ShapeError(f"{name} must have rank 2..5, got rank {arr.ndim}")
    if arr.size == 0:
        raise ShapeError(f"{name} extents must all be >= 1, got shape {arr.shape}")
    return arr
