"""Multi-scale Hermite-Gaussian steerable filter basis."""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

import numpy as np

from . import fileio
from .errors import ConfigError, FormatError, ShapeError, as_real, dump, load
from .grid import check_fits_memory

MAX_HERMITE_ORDER = 10


def _hermite_upto(n: int, x) -> list:
    """[H_0(x), ..., H_n(x)] as float64 arrays of x's shape.

    Computed with the recurrence H_{n+1}(x) = x H_n(x) - n H_{n-1}(x),
    starting from H_0 = 1 and H_1 = x.
    """
    if n < 0:
        raise ShapeError(f"Hermite order must be >= 0, got {n}")
    if n > MAX_HERMITE_ORDER:
        raise ShapeError(f"Hermite order is capped at {MAX_HERMITE_ORDER}, got {n}")
    arr = np.asarray(x, dtype=np.float64)
    hs = [np.ones_like(arr), arr.copy()]
    for order in range(1, n):
        hs.append(arr * hs[-1] - order * hs[-2])
    return hs[: n + 1]


def hermite(n: int, x):
    """Probabilist's Hermite polynomial H_n evaluated elementwise; a float for a scalar x."""
    h = _hermite_upto(n, x)[n]
    return float(h) if h.ndim == 0 else h


def _profiles(sigma: float, orders, u, v) -> list:
    """The profile of hermite_gaussian for each (n, m) of ``orders`` at one
    sigma, from one envelope and one Hermite recurrence per axis."""
    if sigma <= 0:
        raise ConfigError(f"sigma must be positive, got {sigma}")
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    envelope = np.exp(-(u * u + v * v) / (sigma * sigma))
    hu = _hermite_upto(max(n for n, _ in orders), u / sigma)
    hv = _hermite_upto(max(m for _, m in orders), v / sigma)
    return [hu[n] * hv[m] * envelope / (sigma * sigma) for n, m in orders]


def hermite_gaussian(sigma: float, n: int, m: int, u, v):
    """Analytic steerable-filter profile at unit normalization constant:

        psi(u, v) = (1 / sigma^2) H_n(u / sigma) H_m(v / sigma)
                    exp(-(u^2 + v^2) / sigma^2)
    """
    return _profiles(sigma, ((n, m),), u, v)[0]


def _basis_filters(sigma: float, orders, k: int) -> list:
    """The [k, k] filter of basis_filter for each (n, m) of ``orders`` at one sigma."""
    if k < 1 or k % 2 == 0:
        raise ShapeError(f"filter extent must be odd and positive, got {k}")
    half = k // 2
    offsets = np.arange(-half, half + 1, dtype=np.float64)
    return [raw / np.linalg.norm(raw) for raw in _profiles(sigma, orders, offsets[:, None], offsets)]


def basis_filter(sigma: float, n: int, m: int, k: int) -> np.ndarray:
    """Sampled [k, k] filter, rescaled to unit l2 norm.

    The profile is sampled at integer offsets about the center of the odd
    grid; n indexes the row axis and m the column axis. Unit normalization
    fixes the otherwise free constant of the analytic formula.
    """
    return _basis_filters(sigma, ((n, m),), k)[0]


@dataclass(frozen=True)
class ScaleSet:
    """Strictly ascending positive filter scales, optionally alpha-generated."""

    sigmas: tuple
    alpha: float | None = None

    def __post_init__(self):
        sig = tuple(float(s) for s in self.sigmas)
        if not sig:
            raise ConfigError("scale set must not be empty")
        if not all(0 < s < math.inf for s in sig):  # NaN fails every comparison
            raise ConfigError(f"scales must be positive and finite, got {sig}")
        if any(b <= a for a, b in zip(sig, sig[1:])):
            raise ConfigError(f"scales must be strictly ascending, got {sig}")
        object.__setattr__(self, "sigmas", sig)

    def __len__(self) -> int:
        return len(self.sigmas)

    def scaled(self, factor: float) -> "ScaleSet":
        """Same scale ratios with every sigma multiplied by ``factor``."""
        if not 0 < factor < math.inf:
            raise ConfigError(f"scale-set factor must be positive and finite, got {factor}")
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
    ConfigError as ``check_basis_fits`` does, before any filter is computed,
    and when the sigmas are too small or too large for float64 filters on
    this grid.
    """
    if max_order < 0:
        raise ShapeError(f"max_order must be >= 0, got {max_order}")
    count = (max_order + 1) ** 2
    if count > k * k:
        raise ShapeError(
            f"basis of {count} members exceeds the {k * k} pixels of a {k}x{k} filter"
        )
    check_basis_fits(len(scales), max_order, k)
    orders = tuple((n, m) for n in range(max_order + 1) for m in range(max_order + 1))
    with np.errstate(all="ignore"):  # reported below instead
        filters = np.array([_basis_filters(sigma, orders, k) for sigma in scales.sigmas])
    if not np.isfinite(filters).all():
        raise ConfigError(f"sigmas {scales.sigmas} make the {k}x{k} basis filters non-finite")
    filters.setflags(write=False)
    return SteerableBasis(filters=filters, sigmas=scales, orders=orders, k=k)


def check_basis_fits(num_scales: int, max_order: int, k: int) -> float:
    """The doubles that ``build_basis`` holds at its peak, counted as if all
    were alive at once: the S x (max_order + 1)^2 x k^2 basis, as many again
    in the per-scale filters it is stacked from, one scale's profiles, and
    three k x k temporaries (the envelope and a profile's products). Raises
    ConfigError naming k unless they fit in the machine's physical memory."""
    members = max(max_order + 1, 0) ** 2
    values = ((2 * num_scales + 1) * as_real(members) + 3) * as_real(k) * as_real(k)
    n, k = reprlib.repr(members), reprlib.repr(k)
    check_fits_memory(values, f"a basis of k {k} ({num_scales} scales of {n} {k}x{k} filters)")
    return values


BASIS_KIND = "steerable-basis"


@dataclass(frozen=True)
class _BasisKeys:
    """The sidecar keys of a saved basis beside the tensor header's."""

    kind: str
    sigmas: tuple[float, ...]
    orders: tuple[tuple[int, ...], ...]
    k: int
    alpha: float | None = None


def save_basis(path, basis: SteerableBasis) -> None:
    """Export as tensor + sidecar; the sidecar records sigmas, orders, and k."""
    keys = _BasisKeys(BASIS_KIND, basis.sigmas.sigmas, basis.orders, basis.k, basis.sigmas.alpha)
    fileio.write_tensor(path, basis.filters, extra=dump(keys))


def load_basis(path) -> SteerableBasis:
    """Read a basis written by :func:`save_basis`; raises FormatError for a
    sidecar whose keys are malformed or disagree with the tensor's shape."""
    filters, meta = fileio.read_tensor(path)
    side = fileio.sidecar_path(path)
    extra = {key: value for key, value in meta.items() if key not in fileio.HEADER_KEYS}
    try:
        keys = load(_BasisKeys, extra, "basis")
        sigmas = ScaleSet(keys.sigmas, keys.alpha)
    except ValueError as exc:
        raise FormatError(f"{side}: {exc}") from None
    if keys.kind != BASIS_KIND:
        raise FormatError(f"{side}: kind must be {BASIS_KIND!r}, got {keys.kind!r}")
    if any(len(order) != 2 for order in keys.orders):
        raise FormatError(f"{side}: every order must be an (n, m) pair, got {list(keys.orders)}")
    expected = (len(keys.sigmas), len(keys.orders), keys.k, keys.k)
    if filters.shape != expected:
        raise FormatError(
            f"{side}: {len(keys.sigmas)} sigmas, {len(keys.orders)} orders and k {keys.k} "
            f"need a tensor of shape {list(expected)}, got {list(filters.shape)}"
        )
    filters.setflags(write=False)
    return SteerableBasis(filters=filters, sigmas=sigmas, orders=keys.orders, k=keys.k)
