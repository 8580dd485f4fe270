"""Pinhole-camera projective warps, the depth-to-scale reduction, and the
log-polar transform pair."""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DegenerateGeometryError, ShapeError, as_real, check_fields, load
from .grid import BorderPolicy, as_grid, check_fits_memory
from .resample import (
    BLOCK_POINTS,
    _bands,
    _blend,
    _check_output,
    _resize_plan,
    _sample_points,
    _warp,
    resize,
    scale_about,
    warp,
    warp_scratch,
)
from .ssim import ssim, ssim_scratch


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole parameters: focal length f (pixels), principal point (u0, v0),
    image extents width x height (pixels). u runs along columns, v along rows."""

    f: float
    u0: float
    v0: float
    width: int
    height: int

    def __post_init__(self):
        check_fields(self)
        if self.f <= 0:
            raise ConfigError(f"focal length must be positive, got {self.f}")
        if self.width < 1 or self.height < 1:
            raise ConfigError(f"image extents must be >= 1, got {self.width}x{self.height}")
        # corollary_deviation holds up to ten arrays on its sample grid of one
        # point per 16 pixels, and projective_mapping's denominator search
        # about twelve of the height.
        points = as_real(max(2, -(-self.width // 16))) * as_real(max(2, -(-self.height // 16)))
        check_fits_memory(
            10.0 * points + 12.0 * as_real(self.height),
            f"intrinsics width x height {reprlib.repr(self.width)}x{reprlib.repr(self.height)} "
            "(the corollary sample grid and the denominator search)",
        )
        if not 0 <= self.u0 <= self.width:
            raise ConfigError(f"u0 = {self.u0} outside [0, {self.width}]")
        if not 0 <= self.v0 <= self.height:
            raise ConfigError(f"v0 = {self.v0} outside [0, {self.height}]")

    @staticmethod
    def centered(f: float, width: int, height: int) -> "CameraIntrinsics":
        return CameraIntrinsics(f, (width - 1) / 2.0, (height - 1) / 2.0, width, height)


@dataclass(frozen=True)
class PatchPlane:
    """Patch plane m*x + n*y + o*z + p = 0 holding the imaged surface.

    The o > 0, p < 0 convention keeps the plane in front of the camera.
    """

    m: float
    n: float
    o: float
    p: float

    def __post_init__(self):
        check_fields(self)
        if self.m == 0 and self.n == 0 and self.o == 0:
            raise DegenerateGeometryError("plane normal (m, n, o) must be nonzero")
        if self.o <= 0:
            raise DegenerateGeometryError(f"plane coefficient o must be positive, got {self.o}")
        if self.p >= 0:
            raise DegenerateGeometryError(f"plane coefficient p must be negative, got {self.p}")

    @property
    def normal(self) -> np.ndarray:
        return np.array([self.m, self.n, self.o])


@dataclass(frozen=True)
class EgoMotion:
    """Rigid camera motion: rotation R (3x3, proper) and translation t (meters)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        try:
            rot = np.asarray(self.rotation, dtype=np.float64)
        except ValueError:  # ragged rows
            raise ShapeError(f"rotation R must be 3x3, got {self.rotation!r}") from None
        trans = np.asarray(self.translation, dtype=np.float64).reshape(-1)
        if rot.shape != (3, 3):
            raise ShapeError(f"rotation R must be 3x3, got {rot.shape}")
        if trans.shape != (3,):
            raise ShapeError(f"translation t must have 3 components, got {trans.shape}")
        for name, value in (("rotation R", rot), ("translation t", trans)):
            if not np.isfinite(value).all():
                raise ConfigError(f"{name} must be finite, got {value.tolist()}")
        # An entry above 1 already breaks orthonormality, and bounding the
        # entries keeps R^T R from overflowing.
        if np.abs(rot).max() > 1.0 + 1e-9 or np.abs(rot.T @ rot - np.eye(3)).max() > 1e-9:
            raise ConfigError("rotation is not orthonormal to 1e-9")
        if abs(np.linalg.det(rot) - 1.0) > 1e-9:
            raise ConfigError(f"rotation determinant is {np.linalg.det(rot):.12g}, not 1")
        rot.setflags(write=False)
        trans.setflags(write=False)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", trans)

    @staticmethod
    def identity() -> "EgoMotion":
        return EgoMotion(np.eye(3), np.zeros(3))

    @staticmethod
    def z_translation(t_z: float) -> "EgoMotion":
        return EgoMotion(np.eye(3), np.array([0.0, 0.0, float(t_z)]))

    @staticmethod
    def from_dict(data: dict) -> "EgoMotion":
        """EgoMotion from the JSON object {"t": [3 reals], "R": [3 rows of 3 reals]}; R defaults to I."""
        keys = load(_MotionKeys, data, "motion")
        return EgoMotion(keys.R, keys.t)


@dataclass(frozen=True)
class _MotionKeys:
    """The JSON keys of an EgoMotion, which differ from its field names."""

    t: tuple[float, ...]
    R: tuple[tuple[float, ...], ...] = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


@dataclass(frozen=True)
class DatasetFocalProfile:
    """Vertical focal length and image height; normalized focal is 2 f_y / H."""

    f_y: float
    height: float

    def __post_init__(self):
        check_fields(self)
        if self.f_y <= 0 or self.height <= 0:
            raise ConfigError(
                f"focal profile needs positive f_y and height, got {self.f_y}, {self.height}"
            )

    @property
    def normalized(self) -> float:
        return 2.0 * self.f_y / self.height

    @staticmethod
    def from_normalized(value: float) -> "DatasetFocalProfile":
        """The profile of height 2 whose normalized focal is ``value``."""
        return DatasetFocalProfile(f_y=value, height=2.0)


def projective_mapping(
    intrinsics: CameraIntrinsics,
    plane: PatchPlane,
    motion: EgoMotion,
) -> Callable:
    """Exact planar-patch map from first-image pixels to second-image pixels.

    With tbar = R^T t, the map applies M = R^T + tbar (m, n, o)^T / p to the
    centered ray (u - u0, v - v0, f) and reads off the second-image pixel,
    which is the plane-induced homography K M K^{-1} about the principal
    point. Warping the second image through this mapping resamples it into
    registration with the first. Raises DegenerateGeometryError if the
    denominator vanishes at a pixel of the intrinsics' grid.
    """
    rot = motion.rotation
    tbar = rot.T @ motion.translation
    mat = rot.T + np.outer(tbar, plane.normal / plane.p)
    f, u0, v0 = intrinsics.f, intrinsics.u0, intrinsics.v0

    def fn(xs, ys):
        du = np.asarray(xs, dtype=np.float64) - u0
        dv = np.asarray(ys, dtype=np.float64) - v0
        den = mat[2, 0] * du + mat[2, 1] * dv + mat[2, 2] * f
        nu = mat[0, 0] * du + mat[0, 1] * dv + mat[0, 2] * f
        nv = mat[1, 0] * du + mat[1, 1] * dv + mat[1, 2] * f
        return u0 + f * nu / den, v0 + f * nv / den

    _check_denominator(mat, intrinsics, plane, motion)
    return fn


def _check_denominator(mat, intrinsics, plane, motion):
    where = f"plane ({plane.m}, {plane.n}, {plane.o}, {plane.p}), t = {motion.translation.tolist()}"
    least = _least_denominator(mat, intrinsics)
    if least is None:
        raise DegenerateGeometryError(f"projective denominator is not finite at a corner pixel: {where}")
    u, v, magnitude = least
    if magnitude < 1e-9 * intrinsics.f:
        raise DegenerateGeometryError(f"projective denominator vanishes at pixel (u={u}, v={v}): {where}")


def _least_denominator(mat, intrinsics):
    """(u, v, |den|) of the first smallest ``|den|`` in row-major order over
    the intrinsics' grid, where ``den = (a * (u - u0) + b * (v - v0)) + c * f``
    is the map's denominator at column u and row v; None unless every den is
    finite.

    Each rounding is monotone, so along a row ``e = +-den`` (the sign of a
    flipped away) never decreases in u: ``|den|`` falls until the row's first
    ``e >= 0`` and rises from there. Bisection over every row at once finds
    that column, and again the first column of the negative value before it
    when that one is the smaller or ties, so only O(height) values are held.
    ``den`` is evaluated as the grid expression would, at the probed columns.
    """
    a, b, cf = mat[2, 0], mat[2, 1], mat[2, 2] * intrinsics.f
    w, h = intrinsics.width, intrinsics.height
    sign = -1.0 if a < 0 else 1.0
    bv = b * (np.arange(h, dtype=np.float64) - intrinsics.v0)

    def e(cols):
        return sign * ((a * (cols.astype(np.float64) - intrinsics.u0) + bv) + cf)

    # Every den lies between its row's ends, and den is monotone down the
    # columns too, so a den that is not finite makes a corner's not finite.
    if not (np.isfinite(e(np.zeros(h, dtype=np.int64))).all() and np.isfinite(e(np.full(h, w - 1))).all()):
        return None

    def first_at_least(target):
        lo, hi = np.zeros(h, dtype=np.int64), np.full(h, w, dtype=np.int64)
        for _ in range(w.bit_length()):
            mid = (lo + hi) // 2
            up = e(np.minimum(mid, w - 1)) >= target
            active = lo < hi
            hi = np.where(active & up, mid, hi)
            lo = np.where(active & ~up, mid + 1, lo)
        return lo

    k = first_at_least(0.0)
    below = np.where(k > 0, -e(np.maximum(k - 1, 0)), np.inf)  # |den| of the last e < 0
    above = np.where(k < w, e(np.minimum(k, w - 1)), np.inf)
    left = below <= above
    cols = np.where(left, first_at_least(np.where(left, -below, 0.0)), k)
    mins = np.minimum(below, above)
    row = int(np.argmin(mins))
    return int(cols[row]), row, float(mins[row])


def scale_mapping(intrinsics: CameraIntrinsics, s: float) -> Callable:
    """The pure scale map about the principal point (the Corollary reduction)."""
    return scale_about(s, intrinsics.u0, intrinsics.v0)


def scale_factor(plane: PatchPlane, t_z: float) -> float:
    """Scale s = 1 + t_z * o / p induced by a pure depth translation."""
    s = 1.0 + t_z * plane.o / plane.p
    if s <= 0:
        raise DegenerateGeometryError(
            f"scale factor {s:.6g} is not positive: depth translation {t_z} "
            f"reaches or crosses the patch plane"
        )
    return s


def parallel_bound(plane: PatchPlane, intrinsics: CameraIntrinsics) -> tuple:
    """Parallelism bound (|m| + |n|) W / (2 f) and its ratio to o.

    The patch plane is "approximately parallel" to the image plane when the
    ratio is much smaller than 1; the threshold is left to the caller.
    """
    bound = (abs(plane.m) + abs(plane.n)) * intrinsics.width / (2.0 * intrinsics.f)
    return bound, bound / plane.o


def corollary_deviation(intrinsics: CameraIntrinsics, plane: PatchPlane, t_z: float) -> float:
    """Max pixel distance between the exact projective map and its scale
    approximation over a grid sampled about every 16 pixels (corners always included)."""
    s = scale_factor(plane, t_z)
    proj = projective_mapping(intrinsics, plane, EgoMotion.z_translation(t_z))
    approx = scale_mapping(intrinsics, s)
    nu = max(2, math.ceil(intrinsics.width / 16))
    nv = max(2, math.ceil(intrinsics.height / 16))
    us = np.linspace(0.0, intrinsics.width - 1.0, nu)
    vs = np.linspace(0.0, intrinsics.height - 1.0, nv)
    uu, vv = np.meshgrid(us, vs, indexing="xy")
    pu, pv = proj(uu, vv)
    au, av = approx(uu, vv)
    return float(np.hypot(pu - au, pv - av).max())


def _polar_frame(shape, center, r_min) -> tuple:
    """(cy, cx, r_min, r_max) as floats: the log-polar center in an image of
    extents ``shape``, the image center if ``center`` is None, the radius floor,
    and the center's distance to the farthest corner. Raises ConfigError unless
    the center is a pair of reals in the image, r_max is positive and r_min a
    real in (0, r_max)."""
    h, w = shape
    cy, cx = ((h - 1) / 2.0, (w - 1) / 2.0) if center is None else (as_real(center[0]), as_real(center[1]))
    if not (0 <= cy <= h - 1 and 0 <= cx <= w - 1):  # nan, a bool's or a non-real's, fails
        raise ConfigError(f"center {reprlib.repr(tuple(center))} lies outside a {h}x{w} image")
    r_max = max(math.hypot(y - cy, x - cx) for y in (0.0, h - 1.0) for x in (0.0, w - 1.0))
    if r_max == 0:
        raise ConfigError(f"a {h}x{w} log-polar frame has no radius: its farthest corner is its center")
    real = as_real(r_min)
    if not 0 < real < r_max:
        raise ConfigError(f"r_min must lie in (0, {r_max:.6g}), got {reprlib.repr(r_min)}")
    return cy, cx, real, r_max


def log_polar(image, center=None, out_shape=None, r_min: float = 1.0) -> np.ndarray:
    """Resample to (theta, ln r) coordinates about ``center`` (row, col).

    Output rows sweep theta uniformly over [0, 2pi); columns sweep ln r
    uniformly from ln r_min to ln r_max, where r_max is the distance from
    the center to the farthest image corner. The transform is singular at
    r = 0, hence the r_min floor. A scaling of the source image about the
    center becomes a column shift by ln(s) / dlnr. Raises ConfigError when
    the output would not fit in the machine's physical memory, before
    anything is computed.
    """
    image = as_grid(image, rank=2, name="image")
    lp_shape = out_shape if out_shape is not None else image.shape
    mapping = _log_polar_mapping(image.shape, lp_shape, center, r_min)
    return warp(image, mapping, BorderPolicy.CLAMP, lp_shape)


def _log_polar_mapping(shape, lp_shape, center, r_min) -> Callable:
    """The map of ``log_polar`` from (ln r column, theta row) of a log-polar
    grid of extents ``lp_shape`` to (x, y) of an image of extents ``shape``.

    Radius, cosine and sine are looked up by integer column and row in 1-D
    tables, each value computed once as the whole-grid expression computes it.
    """
    n_theta, n_r = lp_shape
    _check_output("log-polar output", n_theta, n_r)
    if n_r < 2:
        raise ShapeError(f"log-polar output needs >= 2 columns, got {lp_shape}")
    cy, cx, r_min, r_max = _polar_frame(shape, center, r_min)
    radii = np.exp(np.linspace(math.log(r_min), math.log(r_max), n_r))
    thetas = np.arange(n_theta, dtype=np.float64) * (2.0 * np.pi / n_theta)
    cos, sin = np.cos(thetas), np.sin(thetas)

    def fn(xs, ys):
        r, rows = radii[xs.astype(np.intp, copy=False)], ys.astype(np.intp, copy=False)
        return cx + r * cos[rows], cy + r * sin[rows]

    return fn


def inverse_log_polar(lp_image, out_shape, center=None, r_min: float = 1.0) -> np.ndarray:
    """Resample a (theta, ln r) grid back to Cartesian pixels.

    ``out_shape``, ``center``, and ``r_min`` must match the forward
    transform's geometry. Radii below r_min clamp to the first column; the
    theta axis wraps circularly. Raises ConfigError when the output would not
    fit in the machine's physical memory, before anything is computed.
    """
    lp_image = as_grid(lp_image, rank=2, name="log-polar image")
    h, w = out_shape
    _check_output("inverse log-polar output", h, w)
    mapping = _inverse_mapping(lp_image.shape, out_shape, center, r_min)
    # Read as a grid one row taller whose row n_theta reads row 0: theta rows
    # reach n_theta, and pass it where theta rounds to 2 pi.
    n_theta, n_r = lp_image.shape
    return _warp(lp_image, (n_theta + 1, n_r), mapping, BorderPolicy.CLAMP, (slice(0, h), slice(0, w)))


def _inverse_mapping(lp_shape, out_shape, center, r_min) -> Callable:
    """The map of ``inverse_log_polar`` from output (x, y) to (ln r column,
    theta row) of a log-polar grid of extents ``lp_shape``."""
    n_theta, n_r = lp_shape
    if n_r < 2:
        raise ShapeError(f"log-polar image needs >= 2 radius columns, got {lp_shape}")
    cy, cx, r_min, r_max = _polar_frame(out_shape, center, r_min)
    dlnr = (math.log(r_max) - math.log(r_min)) / (n_r - 1)

    def fn(xs, ys):
        dy, dx = ys - cy, xs - cx
        thetas = np.arctan2(dy, dx)
        # np.mod(thetas, 2 pi) bit for bit on [-pi, pi], -0.0 included
        thetas += np.where(thetas < 0.0, 2.0 * np.pi, 0.0)
        cols = (np.log(np.maximum(np.hypot(dy, dx), r_min)) - math.log(r_min)) / dlnr
        return cols, thetas * (n_theta / (2.0 * np.pi))

    return fn


def log_polar_roundtrip_ssim(image, up_factor: float = 1.0) -> float:
    """SSIM of an image against its upscale, log-polar, inverse, downscale
    roundtrip; measures what the log-polar discretization loses.

    Each step is evaluated only where the next one reads it. The inverse
    runs on the source rows x columns that the endpoint-aligned downscale
    reads (``_resize_plan``), the forward only on the log-polar cells that
    the inverse's corners read, marked as the inverse's coordinates are
    made, and the downscale blends the compact grid with ``resize``'s blend,
    bit for bit as ``resize`` of the full-size composition. Raises
    ConfigError as ``check_up_factor`` does.
    """
    image = as_grid(image, rank=2, name="image")
    h, w = image.shape
    check_up_factor((h, w), up_factor)
    u = as_real(up_factor)
    h2, w2 = round(h * u), round(w * u)
    if (h2, w2) == (h, w):
        return ssim(image, inverse_log_polar(log_polar(image), (h, w)))
    return ssim(image, _compact_roundtrip(image, h2, w2))


def _compact_roundtrip(image, h2, w2) -> np.ndarray:
    """``resize(inverse_log_polar(log_polar(resize(image, h2, w2)), (h2, w2)), h, w)``
    for an image of extents (h, w), computed only where each step is read."""
    h, w = image.shape
    plan = _resize_plan((h2, w2), h, w)
    cols, plan = plan.compact_columns()
    rows, cols = plan.rows.astype(np.float64), cols.astype(np.float64)
    inverse = _inverse_mapping((h2, w2), (h2, w2), None, 1.0)
    xs, ys = np.empty((rows.size, cols.size)), np.empty((rows.size, cols.size))
    # Mark the log-polar cells that the point kernel reads, on the grid one
    # row taller: each point's top-left corner, clamped as the kernel clamps
    # it, and after the loop the other three corners by dilating the marks
    # one row and one column. The coordinates are non-negative, so clamping
    # merges corners only on the last row and column, where the dilation
    # falls off the grid.
    read = np.zeros((h2 + 1) * w2, dtype=bool)
    for lo, hi in _bands(rows.size, cols.size, BLOCK_POINTS):
        xs[lo:hi], ys[lo:hi] = inverse(cols[np.newaxis, :], rows[lo:hi, np.newaxis])
        r0 = np.clip(np.floor(ys[lo:hi]).astype(np.intp), 0, h2)
        r0 *= w2
        r0 += np.clip(np.floor(xs[lo:hi]).astype(np.intp), 0, w2 - 1)
        read[r0] = True
    read = read.reshape(h2 + 1, w2)
    read[1:] |= read[:-1]
    read[:, 1:] |= read[:, :-1]
    read[0] |= read[h2]  # row n_theta reads row 0
    cells = np.flatnonzero(read[:h2])
    del read
    forward = _log_polar_mapping((h2, w2), (h2, w2), None, 1.0)
    flat = resize(image, h2, w2).reshape(-1)
    values = np.empty(cells.size)
    for lo in range(0, cells.size, BLOCK_POINTS):
        theta_rows, r_cols = np.divmod(cells[lo : lo + BLOCK_POINTS], w2)
        x, y = forward(r_cols, theta_rows)
        _sample_points(flat, (h2, w2), x, y, BorderPolicy.CLAMP, values[lo : lo + BLOCK_POINTS])
    del flat  # the upscale is freed before the log-polar image is allocated
    lp = np.zeros(h2 * w2)
    lp[cells] = values
    del cells, values
    compact = np.empty(xs.size)
    # the log-polar grid read one row taller, as inverse_log_polar reads it
    _sample_points(lp, (h2 + 1, w2), xs.reshape(-1), ys.reshape(-1), BorderPolicy.CLAMP, compact)
    small = np.empty((h, w))
    _blend(compact.reshape(xs.shape), plan, small)
    return small


def check_up_factor(shape, up_factor) -> float:
    """The doubles that the log-polar roundtrip of an h x w image of extents
    ``shape`` may hold: with H x W the upscale's extents and the compact grid
    what the downscale reads, one H x W grid at a time, the inverse's
    coordinates and output on the compact grid, the read mask and cells, the
    result, and the largest scratch of its three resamplings; or, after them,
    the result and SSIM's scratch. Raises ConfigError naming ``up_factor``
    unless it is a finite real >= 1 and they fit in physical memory."""
    u = as_real(up_factor)
    if not 1 <= u < math.inf:
        raise ConfigError(f"up_factor must be a finite real >= 1, got {reprlib.repr(up_factor)}")
    h, w = as_real(shape[0]), as_real(shape[1])
    h2, w2 = h * u, w * u
    rows, cols, full = min(h2, 2 * h), min(w2, 2 * w), h2 * w2
    scratch = max(warp_scratch((h, w), (h2, w2), True), warp_scratch((rows, cols), (h, w), True))
    scratch = max(scratch, warp_scratch((h2 + 1, w2), (rows, cols), False))
    # a byte of read mask per cell; read cells' indices and values, at most four per compact point
    roundtrip = full + 3 * rows * cols + (h2 + 1) * w2 / 8 + 2 * min(full, 4 * rows * cols) + h * w + scratch
    values = max(roundtrip, h * w + ssim_scratch(h, w))
    check_fits_memory(values, f"up_factor {u:.6g} (a roundtrip through {h2:.6g}x{w2:.6g} grids)")
    return values


def focal_correction(src: DatasetFocalProfile, dst: DatasetFocalProfile) -> float:
    """Multiplicative depth correction src_normalized / dst_normalized.

    Depths predicted by a model trained on ``src`` images and evaluated on
    ``dst`` images (without focal normalization) divide by this factor.
    """
    return src.normalized / dst.normalized
