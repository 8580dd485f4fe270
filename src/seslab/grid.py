"""Dense float64 grid validation and border handling."""

from __future__ import annotations

import enum

import numpy as np

from .errors import ShapeError


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
        raise ValueError(f"unknown border policy: {value!r}")


_PAD_MODES = {
    BorderPolicy.ZERO: "constant",
    BorderPolicy.CLAMP: "edge",
    BorderPolicy.CIRCULAR: "wrap",
}


def pad_mode(border: BorderPolicy) -> str:
    """numpy.pad mode implementing the given border policy."""
    return _PAD_MODES[BorderPolicy.coerce(border)]


def crop(arr: np.ndarray, margin: float) -> np.ndarray:
    """View of ``arr`` without a border of ``margin`` x extent on each side of its last two axes."""
    return arr[(..., *crop_window(arr.shape, margin))]


def crop_window(shape: tuple, margin: float) -> tuple:
    """The (rows, cols) slices that ``crop`` keeps of a grid with trailing extents ``shape[-2:]``."""
    h, w = shape[-2:]
    my = int(round(h * margin))
    mx = int(round(w * margin))
    return slice(my, h - my), slice(mx, w - mx)


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
