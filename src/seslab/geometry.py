"""Pinhole-camera projective warps, the depth-to-scale reduction, and the
log-polar transform pair."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateGeometryError, ShapeError, check_fields, load
from .grid import BorderPolicy, as_grid
from .resample import PixelMapping, _check_extents, resize, warp
from .ssim import ssim


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
            raise ValueError(f"focal length must be positive, got {self.f}")
        if self.width < 1 or self.height < 1:
            raise ValueError(f"image extents must be >= 1, got {self.width}x{self.height}")
        if not 0 <= self.u0 <= self.width:
            raise ValueError(f"u0 = {self.u0} outside [0, {self.width}]")
        if not 0 <= self.v0 <= self.height:
            raise ValueError(f"v0 = {self.v0} outside [0, {self.height}]")

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
            raise ValueError("plane normal (m, n, o) must be nonzero")
        if self.o <= 0:
            raise ValueError(f"plane coefficient o must be positive, got {self.o}")
        if self.p >= 0:
            raise ValueError(f"plane coefficient p must be negative, got {self.p}")

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
            raise ValueError("rotation is not orthonormal to 1e-9")
        if abs(np.linalg.det(rot) - 1.0) > 1e-9:
            raise ValueError(f"rotation determinant is {np.linalg.det(rot):.12g}, not 1")
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
        if self.f_y <= 0 or self.height <= 0:
            raise ValueError(
                f"focal profile needs positive f_y and height, got {self.f_y}, {self.height}"
            )

    @property
    def normalized(self) -> float:
        return 2.0 * self.f_y / self.height

    @staticmethod
    def from_normalized(value: float, height: float = 2.0) -> "DatasetFocalProfile":
        return DatasetFocalProfile(f_y=value * height / 2.0, height=height)


def projective_mapping(
    intrinsics: CameraIntrinsics,
    plane: PatchPlane,
    motion: EgoMotion,
    check_grid: bool = True,
) -> PixelMapping:
    """Exact planar-patch map from first-image pixels to second-image pixels.

    With tbar = R^T t, the map applies M = R^T + tbar (m, n, o)^T / p to the
    centered ray (u - u0, v - v0, f) and reads off the second-image pixel,
    which is the plane-induced homography K M K^{-1} about the principal
    point. Warping the second image through this mapping resamples it into
    registration with the first.
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

    if check_grid:
        _check_denominator(mat, intrinsics, plane, motion)
    return PixelMapping(fn)


def _check_denominator(mat, intrinsics, plane, motion):
    us = np.arange(intrinsics.width, dtype=np.float64) - intrinsics.u0
    vs = np.arange(intrinsics.height, dtype=np.float64) - intrinsics.v0
    den = (
        mat[2, 0] * us[np.newaxis, :]
        + mat[2, 1] * vs[:, np.newaxis]
        + mat[2, 2] * intrinsics.f
    )
    worst = np.unravel_index(np.argmin(np.abs(den)), den.shape)
    if abs(den[worst]) < 1e-9 * intrinsics.f:
        raise DegenerateGeometryError(
            f"projective denominator vanishes at pixel (u={worst[1]}, v={worst[0]}): "
            f"plane ({plane.m}, {plane.n}, {plane.o}, {plane.p}), "
            f"t = {motion.translation.tolist()}"
        )


def scale_mapping(intrinsics: CameraIntrinsics, s: float) -> PixelMapping:
    """The pure scale map about the principal point (the Corollary reduction)."""
    if s <= 0:
        raise DegenerateGeometryError(f"scale factor must be positive, got {s}")
    return PixelMapping.scale_about(s, intrinsics.u0, intrinsics.v0)


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


def corollary_deviation(
    intrinsics: CameraIntrinsics,
    plane: PatchPlane,
    t_z: float,
    grid_stride: int = 16,
) -> float:
    """Max pixel distance between the exact projective map and its scale
    approximation over a sampled grid (corners always included)."""
    if grid_stride < 1:
        raise ValueError(f"grid_stride must be >= 1, got {grid_stride}")
    s = scale_factor(plane, t_z)
    proj = projective_mapping(intrinsics, plane, EgoMotion.z_translation(t_z))
    approx = scale_mapping(intrinsics, s)
    nu = max(2, math.ceil(intrinsics.width / grid_stride))
    nv = max(2, math.ceil(intrinsics.height / grid_stride))
    us = np.linspace(0.0, intrinsics.width - 1.0, nu)
    vs = np.linspace(0.0, intrinsics.height - 1.0, nv)
    uu, vv = np.meshgrid(us, vs, indexing="xy")
    pu, pv = proj(uu, vv)
    au, av = approx(uu, vv)
    return float(np.hypot(pu - au, pv - av).max())


def _center_of(shape, center):
    if center is None:
        cy, cx = (shape[0] - 1) / 2.0, (shape[1] - 1) / 2.0
    else:
        cy, cx = float(center[0]), float(center[1])
    if not (0 <= cy <= shape[0] - 1 and 0 <= cx <= shape[1] - 1):
        raise ValueError(f"center ({cy}, {cx}) lies outside a {shape[0]}x{shape[1]} image")
    return cy, cx


def _corner_radius(shape, cy, cx):
    corners = [(0.0, 0.0), (0.0, shape[1] - 1.0), (shape[0] - 1.0, 0.0), (shape[0] - 1.0, shape[1] - 1.0)]
    return max(math.hypot(y - cy, x - cx) for y, x in corners)


def log_polar(image, center=None, out_shape=None, r_min: float = 1.0) -> np.ndarray:
    """Resample to (theta, ln r) coordinates about ``center`` (row, col).

    Output rows sweep theta uniformly over [0, 2pi); columns sweep ln r
    uniformly from ln r_min to ln r_max, where r_max is the distance from
    the center to the farthest image corner. The transform is singular at
    r = 0, hence the r_min floor. A scaling of the source image about the
    center becomes a column shift by ln(s) / dlnr.
    """
    image = as_grid(image, rank=2, name="image")
    cy, cx = _center_of(image.shape, center)
    n_theta, n_r = out_shape if out_shape is not None else image.shape
    _check_extents("log-polar output", n_theta, n_r)
    if n_r < 2:
        raise ShapeError(f"log-polar output needs >= 2 columns, got {out_shape}")
    r_max = _corner_radius(image.shape, cy, cx)
    if not 0 < r_min < r_max:
        raise ValueError(f"r_min must lie in (0, {r_max:.6g}), got {r_min}")
    radii = np.exp(np.linspace(math.log(r_min), math.log(r_max), n_r))

    def fn(xs, ys):
        thetas = ys * (2.0 * np.pi / n_theta)
        r = radii[xs.astype(np.intp)]
        return cx + r * np.cos(thetas), cy + r * np.sin(thetas)

    return warp(image, PixelMapping(fn), BorderPolicy.CLAMP, (n_theta, n_r))


def inverse_log_polar(lp_image, out_shape, center=None, r_min: float = 1.0) -> np.ndarray:
    """Resample a (theta, ln r) grid back to Cartesian pixels.

    ``out_shape``, ``center``, and ``r_min`` must match the forward
    transform's geometry. Radii below r_min clamp to the first column; the
    theta axis wraps circularly.
    """
    lp_image = as_grid(lp_image, rank=2, name="log-polar image")
    n_theta, n_r = lp_image.shape
    if n_r < 2:
        raise ShapeError(f"log-polar image needs >= 2 radius columns, got {lp_image.shape}")
    h, w = out_shape
    _check_extents("inverse log-polar output", h, w)
    cy, cx = _center_of((h, w), center)
    r_max = _corner_radius((h, w), cy, cx)
    if not 0 < r_min < r_max:
        raise ValueError(f"r_min must lie in (0, {r_max:.6g}), got {r_min}")
    dlnr = (math.log(r_max) - math.log(r_min)) / (n_r - 1)

    def fn(xs, ys):
        dy, dx = ys - cy, xs - cx
        thetas = np.arctan2(dy, dx)
        # np.mod(thetas, 2 pi) bit for bit on [-pi, pi], -0.0 included
        thetas += np.where(thetas < 0.0, 2.0 * np.pi, 0.0)
        cols = (np.log(np.maximum(np.hypot(dy, dx), r_min)) - math.log(r_min)) / dlnr
        return cols, thetas * (n_theta / (2.0 * np.pi))

    wrapped = np.vstack([lp_image, lp_image[:1]])  # row n_theta == row 0
    return warp(wrapped, PixelMapping(fn), BorderPolicy.CLAMP, (h, w))


def log_polar_roundtrip_ssim(image, up_factor: float = 1.0, r_min: float = 1.0) -> float:
    """SSIM of an image against its upscale, log-polar, inverse, downscale
    roundtrip; measures what the log-polar discretization loses."""
    if up_factor < 1:
        raise ValueError(f"up_factor must be >= 1, got {up_factor}")
    image = as_grid(image, rank=2, name="image")
    h, w = image.shape
    h2, w2 = round(h * up_factor), round(w * up_factor)
    big = resize(image, h2, w2) if (h2, w2) != (h, w) else image.copy()
    lp = log_polar(big, r_min=r_min)
    rec = inverse_log_polar(lp, (h2, w2), r_min=r_min)
    small = resize(rec, h, w) if (h2, w2) != (h, w) else rec
    return ssim(image, small)


def focal_correction(src: DatasetFocalProfile, dst: DatasetFocalProfile) -> float:
    """Multiplicative depth correction src_normalized / dst_normalized.

    Depths predicted by a model trained on ``src`` images and evaluated on
    ``dst`` images (without focal normalization) divide by this factor.
    """
    return src.normalized / dst.normalized
