"""Multi-scale Hermite-Gaussian steerable filter basis."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fileio
from .errors import ConfigError, ShapeError

MAX_HERMITE_ORDER = 10


def hermite(n: int, x):
    """Probabilist's Hermite polynomial H_n evaluated elementwise.

    Computed with the recurrence H_{n+1}(x) = x H_n(x) - n H_{n-1}(x),
    starting from H_0 = 1 and H_1 = x.
    """
    if n < 0:
        raise ValueError(f"Hermite order must be >= 0, got {n}")
    if n > MAX_HERMITE_ORDER:
        raise ValueError(f"Hermite order is capped at {MAX_HERMITE_ORDER}, got {n}")
    arr = np.asarray(x, dtype=np.float64)
    h_prev = np.ones_like(arr)
    if n == 0:
        return float(h_prev) if arr.ndim == 0 else h_prev
    h = arr.copy()
    for order in range(1, n):
        h, h_prev = arr * h - order * h_prev, h
    return float(h) if arr.ndim == 0 else h


def hermite_gaussian(sigma: float, n: int, m: int, u, v):
    """Analytic steerable-filter profile at unit normalization constant:

        psi(u, v) = (1 / sigma^2) H_n(u / sigma) H_m(v / sigma)
                    exp(-(u^2 + v^2) / sigma^2)
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    envelope = np.exp(-(u * u + v * v) / (sigma * sigma))
    return hermite(n, u / sigma) * hermite(m, v / sigma) * envelope / (sigma * sigma)


def basis_filter(sigma: float, n: int, m: int, k: int) -> np.ndarray:
    """Sampled [k, k] filter, rescaled to unit l2 norm.

    The profile is sampled at integer offsets about the center of the odd
    grid; n indexes the row axis and m the column axis. Unit normalization
    fixes the otherwise free constant of the analytic formula.
    """
    if k < 1 or k % 2 == 0:
        raise ShapeError(f"filter extent must be odd and positive, got {k}")
    half = k // 2
    offsets = np.arange(-half, half + 1, dtype=np.float64)
    uu, vv = np.meshgrid(offsets, offsets, indexing="ij")
    raw = hermite_gaussian(sigma, n, m, uu, vv)
    return raw / np.linalg.norm(raw)


@dataclass(frozen=True)
class ScaleSet:
    """Strictly ascending positive filter scales, optionally alpha-generated."""

    sigmas: tuple
    alpha: float | None = None

    def __post_init__(self):
        sig = tuple(float(s) for s in self.sigmas)
        if not sig:
            raise ValueError("scale set must not be empty")
        if any(s <= 0 for s in sig):
            raise ValueError(f"scales must be positive, got {sig}")
        if any(b <= a for a, b in zip(sig, sig[1:])):
            raise ValueError(f"scales must be strictly ascending, got {sig}")
        object.__setattr__(self, "sigmas", sig)

    def __len__(self) -> int:
        return len(self.sigmas)

    def scaled(self, factor: float) -> "ScaleSet":
        """Same scale ratios with every sigma multiplied by ``factor``."""
        if factor <= 0:
            raise ValueError(f"scale-set factor must be positive, got {factor}")
        return ScaleSet(tuple(s * factor for s in self.sigmas), self.alpha)


def check_scale_count(name: str, count: int) -> None:
    """Raise ConfigError, naming the setting ``name``, unless ``count`` is 1, 2 or 3."""
    if count not in (1, 2, 3):
        raise ConfigError(f"{name} must be 1, 2, or 3, got {count}")


def scale_set_from_alpha(alpha: float, count: int = 3) -> ScaleSet:
    """Downscaling scale set (1/(1+2a), 1/(1+a), 1) truncated to ``count``.

    ``count`` keeps the largest scales, so a single scale is always (1,).
    """
    if not 0.0 < alpha <= 1.0:
        raise ConfigError(f"alpha must lie in (0, 1], got {alpha}")
    check_scale_count("count", count)
    sigmas = (1.0 / (1.0 + 2.0 * alpha), 1.0 / (1.0 + alpha), 1.0)[3 - count :]
    if len(set(sigmas)) < count:
        raise ConfigError(f"alpha {alpha} is too small to separate {count} scales, got {sigmas}")
    return ScaleSet(sigmas, alpha=alpha)


@dataclass(frozen=True)
class SteerableBasis:
    """Precomputed multi-scale basis: filters[scale, member, row, col]."""

    filters: np.ndarray
    sigmas: ScaleSet
    orders: tuple
    k: int

    @property
    def num_scales(self) -> int:
        return self.filters.shape[0]

    @property
    def num_basis(self) -> int:
        return self.filters.shape[1]


def build_basis(scales: ScaleSet, max_order: int = 6, k: int = 7) -> SteerableBasis:
    """Build the full (n, m) grid of filters for every scale in ``scales``.

    Orders run row-major over 0 <= n, m <= max_order, giving
    (max_order + 1)^2 members per scale; the member count must not exceed
    the k*k pixel count or the basis cannot be linearly independent. Raises
    ConfigError when the sigmas are too small or too large for float64
    filters on this grid.
    """
    if max_order < 0:
        raise ValueError(f"max_order must be >= 0, got {max_order}")
    count = (max_order + 1) ** 2
    if count > k * k:
        raise ShapeError(
            f"basis of {count} members exceeds the {k * k} pixels of a {k}x{k} filter"
        )
    orders = tuple((n, m) for n in range(max_order + 1) for m in range(max_order + 1))
    filters = np.empty((len(scales), count, k, k))
    with np.errstate(all="ignore"):  # reported below instead
        for si, sigma in enumerate(scales.sigmas):
            for bi, (n, m) in enumerate(orders):
                filters[si, bi] = basis_filter(sigma, n, m, k)
    if not np.isfinite(filters).all():
        raise ConfigError(f"sigmas {scales.sigmas} make the {k}x{k} basis filters non-finite")
    filters.setflags(write=False)
    return SteerableBasis(filters=filters, sigmas=scales, orders=orders, k=k)


def save_basis(path, basis: SteerableBasis) -> None:
    """Export as tensor + sidecar; the sidecar records sigmas, orders, and k."""
    fileio.write_tensor(
        path,
        basis.filters,
        extra={
            "kind": "steerable-basis",
            "sigmas": list(basis.sigmas.sigmas),
            "alpha": basis.sigmas.alpha,
            "orders": [list(o) for o in basis.orders],
            "k": basis.k,
        },
    )


def load_basis(path) -> SteerableBasis:
    filters, meta = fileio.read_tensor(path)
    filters.setflags(write=False)
    return SteerableBasis(
        filters=filters,
        sigmas=ScaleSet(tuple(meta["sigmas"]), meta.get("alpha")),
        orders=tuple(tuple(o) for o in meta["orders"]),
        k=int(meta["k"]),
    )
