import math
import tracemalloc
import warnings

import numpy as np
import pytest

from seslab import geometry
from seslab import (
    CameraIntrinsics,
    ConfigError,
    DatasetFocalProfile,
    DegenerateGeometryError,
    EgoMotion,
    PatchPlane,
    corollary_deviation,
    focal_correction,
    inverse_log_polar,
    log_polar,
    parallel_bound,
    projective_mapping,
    scale_factor,
    scale_mapping,
)

from oracles import raycast_second_image_pixel

KITTI = CameraIntrinsics(f=707.0, u0=621.0, v0=187.5, width=1242, height=375)


def random_rotation(rng, magnitude=0.05):
    # small proper rotation via Rodrigues' formula
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    angle = magnitude * rng.uniform(0.2, 1.0)
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


class TestTypes:
    def test_intrinsics_validation(self):
        with pytest.raises(ValueError, match="focal"):
            CameraIntrinsics(0.0, 10, 10, 20, 20)
        with pytest.raises(ValueError, match="u0"):
            CameraIntrinsics(100.0, 25, 10, 20, 20)

    def test_plane_conventions(self):
        with pytest.raises(ValueError, match="o must be positive"):
            PatchPlane(0.0, 0.0, -1.0, -10.0)
        with pytest.raises(ValueError, match="p must be negative"):
            PatchPlane(0.0, 0.0, 1.0, 10.0)
        with pytest.raises(ValueError, match="normal"):
            PatchPlane(0.0, 0.0, 0.0, -10.0)

    def test_motion_orthonormality_enforced(self):
        bad = np.eye(3)
        bad[0, 1] = 1e-6
        with pytest.raises(ValueError, match="orthonormal"):
            EgoMotion(bad, np.zeros(3))

    @pytest.mark.parametrize(
        ("rotation", "translation", "field"),
        [
            (np.full((3, 3), np.nan), np.zeros(3), "rotation R"),
            (np.where(np.eye(3) == 1, np.inf, 0.0), np.zeros(3), "rotation R"),
            (np.eye(3), [0.0, 0.0, np.nan], "translation t"),
            (np.eye(3), [-np.inf, 0.0, -3.0], "translation t"),
        ],
    )
    def test_motion_rejects_non_finite(self, rotation, translation, field):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            EgoMotion(rotation, translation)

    def test_motion_huge_entries_not_orthonormal_without_overflow(self):
        # R^T R overflowed here, with a numpy RuntimeWarning before the error
        huge = np.array([[1e200, -1e200, 0.0], [1e200, 1e200, 0.0], [0.0, 0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="orthonormal"):
                EgoMotion(huge, np.zeros(3))

    def test_motion_rejects_reflection(self):
        flip = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="determinant"):
            EgoMotion(flip, np.zeros(3))

    def test_focal_profile(self):
        prof = DatasetFocalProfile(f_y=716.3, height=375.0)
        assert prof.normalized == pytest.approx(2 * 716.3 / 375.0)
        with pytest.raises(ValueError, match="positive"):
            DatasetFocalProfile(-1.0, 375.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, True])
    @pytest.mark.parametrize("field", ["f_y", "height"])
    def test_focal_profile_fields_checked(self, field, bad):
        values = {"f_y": 716.3, "height": 375.0, field: bad}
        with pytest.raises(ConfigError, match=rf"DatasetFocalProfile\.{field}"):
            DatasetFocalProfile(**values)


class TestProjectiveMapping:
    def test_identity_motion_is_identity_map(self):
        plane = PatchPlane(0.2, -0.1, 1.0, -25.0)
        mapping = projective_mapping(KITTI, plane, EgoMotion.identity())
        us, vs = np.meshgrid(np.linspace(0, 1241, 7), np.linspace(0, 374, 5))
        pu, pv = mapping(us, vs)
        assert np.abs(pu - us).max() <= 1e-12
        assert np.abs(pv - vs).max() <= 1e-12

    def test_fronto_parallel_reduces_to_scale_map(self):
        plane = PatchPlane(0.0, 0.0, 1.0, -30.0)
        t_z = -3.0
        s = scale_factor(plane, t_z)
        assert s == pytest.approx(1.1, abs=1e-15)
        proj = projective_mapping(KITTI, plane, EgoMotion.z_translation(t_z))
        approx = scale_mapping(KITTI, s)
        us, vs = np.meshgrid(np.arange(0, 1242, 33), np.arange(0, 375, 33))
        pu, pv = proj(us, vs)
        au, av = approx(us, vs)
        assert np.hypot(pu - au, pv - av).max() <= 1e-9

    def test_matches_raycast_oracle_pure_depth(self):
        plane = PatchPlane(0.0, 0.0, 1.0, -30.0)
        motion = EgoMotion.z_translation(-3.0)
        mapping = projective_mapping(KITTI, plane, motion)
        probes = [(0, 0), (620, 187), (1241, 374), (100, 300), (900, 50),
                  (621, 187.5), (300, 300), (1200, 10), (50, 360)]
        for u, v in probes:
            pu, pv = mapping(np.array(u, float), np.array(v, float))
            ou, ov = raycast_second_image_pixel(
                707.0, 621.0, 187.5, (0.0, 0.0, 1.0, -30.0),
                motion.rotation, motion.translation, u, v,
            )
            assert abs(float(pu) - ou) <= 1e-9
            assert abs(float(pv) - ov) <= 1e-9

    def test_matches_raycast_oracle_general_motion(self):
        rng = np.random.default_rng(17)
        for trial in range(8):
            plane = PatchPlane(
                rng.uniform(-0.08, 0.08), rng.uniform(-0.08, 0.08), 1.0,
                -rng.uniform(15.0, 50.0),
            )
            motion = EgoMotion(
                random_rotation(rng), rng.uniform(-1.0, 1.0, size=3) * np.array([0.5, 0.5, 3.0])
            )
            mapping = projective_mapping(KITTI, plane, motion)
            us, vs = np.meshgrid(np.linspace(0, 1241, 5), np.linspace(0, 374, 5))
            pu, pv = mapping(us, vs)
            for i in range(5):
                for j in range(5):
                    ou, ov = raycast_second_image_pixel(
                        707.0, 621.0, 187.5,
                        (plane.m, plane.n, plane.o, plane.p),
                        motion.rotation, motion.translation,
                        us[i, j], vs[i, j],
                    )
                    assert abs(pu[i, j] - ou) <= 1e-9
                    assert abs(pv[i, j] - ov) <= 1e-9

    def test_vanishing_denominator_reports_pixel(self):
        # camera translated all the way to the plane makes the map singular
        plane = PatchPlane(0.0, 0.0, 1.0, -10.0)
        with pytest.raises(DegenerateGeometryError, match="pixel"):
            projective_mapping(KITTI, plane, EgoMotion.z_translation(10.0))

    def test_overflowing_denominator_is_degenerate(self):
        # p near 0 puts the camera on the plane: o / p overflows
        plane = PatchPlane(0.0, 0.0, 1.0, -1e-310)
        with np.errstate(all="ignore"), pytest.raises(DegenerateGeometryError, match="not finite at a corner"):
            projective_mapping(KITTI, plane, EgoMotion.z_translation(-3.0))

    def test_denominator_check_holds_no_row_of_the_frame(self):
        # A 10^7 x 3 frame: the grid of the check, or one row of it, takes 80 MB.
        intrinsics = CameraIntrinsics(707.0, 5e6, 1.0, 10**7, 3)
        tracemalloc.start()
        try:
            projective_mapping(intrinsics, PatchPlane(-1e-6, 1e-6, 1.0, -30.0), EgoMotion.z_translation(-3.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


def grid_least_denominator(mat, intrinsics):
    """The oracle: (u, v, |den|) of np.argmin over the whole denominator grid."""
    us = np.arange(intrinsics.width, dtype=np.float64) - intrinsics.u0
    vs = np.arange(intrinsics.height, dtype=np.float64) - intrinsics.v0
    den = mat[2, 0] * us[np.newaxis, :] + mat[2, 1] * vs[:, np.newaxis] + mat[2, 2] * intrinsics.f
    v, u = np.unravel_index(np.argmin(np.abs(den)), den.shape)
    return int(u), int(v), float(abs(den[v, u]))


def denominator_case(rng, kind):
    """Intrinsics of 1-300 px and a matrix whose last row (a, b, c) is of ``kind``."""
    width, height = (int(n) for n in rng.integers(1, 301, size=2))
    f = float(rng.uniform(1.0, 2000.0))
    if kind == "ties":  # integer dens: equal values across rows and columns
        u0, v0 = float(rng.integers(0, width + 1)), float(rng.integers(0, height + 1))
        intrinsics = CameraIntrinsics(f, u0, v0, width, height)
        a, b = (float(x) for x in rng.integers(-2, 3, size=2))
        return intrinsics, np.array([[1, 0, 0], [0, 1, 0], [a, b, float(rng.integers(-400, 401)) / f]])
    intrinsics = CameraIntrinsics(f, float(rng.uniform(0, width)), float(rng.uniform(0, height)), width, height)
    if kind == "plane":
        plane = PatchPlane(*rng.uniform(-1.0, 1.0, size=2), rng.uniform(0.05, 2.0), -rng.uniform(0.5, 50.0))
        tbar = random_rotation(rng, 0.3).T @ (rng.uniform(-1.0, 1.0, size=3) * np.array([2.0, 2.0, 60.0]))
        return intrinsics, np.eye(3) + np.outer(tbar, plane.normal / plane.p)
    a, b = rng.uniform(-1.0, 1.0, size=2)
    if kind == "flat-a":
        a = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-13.0, -11.0)
    elif kind == "a=0":
        a = rng.choice([0.0, -0.0])
    elif kind == "b=0":
        b = 0.0
    # the zero line through a drawn pixel; then c is set so the grid reaches it
    j, i = rng.integers(0, width), rng.integers(0, height)
    c = -(a * (j - intrinsics.u0) + b * (i - intrinsics.v0)) / f
    if kind in ("flat-a", "a=0", "b=0") and rng.random() < 0.5:
        c = rng.uniform(-1.0, 1.0)
    return intrinsics, np.array([[1, 0, 0], [0, 1, 0], [a, b, c]])


@pytest.mark.parametrize("kind", ["plane", "zero-line", "flat-a", "a=0", "b=0", "ties"])
def test_denominator_search_matches_the_grid(kind):
    # The search must name the grid's pixel (its first minimum in row-major
    # order) and |den|, bit for bit, without building the grid.
    rng = np.random.default_rng(["plane", "zero-line", "flat-a", "a=0", "b=0", "ties"].index(kind))
    for _ in range(700):
        intrinsics, mat = denominator_case(rng, kind)
        assert geometry._least_denominator(mat, intrinsics) == grid_least_denominator(mat, intrinsics)


class TestScaleFactor:
    def test_zero_translation(self):
        assert scale_factor(PatchPlane(0, 0, 1, -30.0), 0.0) == 1.0

    def test_paper_substitution(self):
        assert scale_factor(PatchPlane(0, 0, 1, -30.0), -3.0) == pytest.approx(1.1)

    def test_degenerate_boundary(self):
        with pytest.raises(DegenerateGeometryError, match="not positive"):
            scale_factor(PatchPlane(0, 0, 1, -30.0), 30.0)


class TestParallelBound:
    def test_exactly_parallel(self):
        bound, ratio = parallel_bound(PatchPlane(0, 0, 1, -30.0), KITTI)
        assert bound == 0.0 and ratio == 0.0

    def test_kitti_constants(self):
        plane = PatchPlane(-0.05, 0.05, 1.0, -30.0)
        bound, ratio = parallel_bound(plane, KITTI)
        assert bound == pytest.approx(0.0878, abs=5e-4)
        assert ratio == pytest.approx(0.0878, abs=5e-4)

    def test_waymo_constants(self):
        waymo = CameraIntrinsics(f=2059.0, u0=960.0, v0=640.0, width=1920, height=1280)
        plane = PatchPlane(-0.1, 0.1, 1.0, -30.0)
        bound, _ = parallel_bound(plane, waymo)
        assert bound == pytest.approx(0.0933, abs=5e-4)


class TestCorollaryDeviation:
    def test_zero_for_fronto_parallel(self):
        assert corollary_deviation(KITTI, PatchPlane(0, 0, 1, -30.0), -3.0) <= 1e-9

    def test_monotone_in_plane_tilt(self):
        deviations = []
        for t in np.linspace(0.0, 1.0, 5):
            plane_m = -0.05 * t
            plane_n = 0.05 * t
            if t == 0.0:
                plane = PatchPlane(0.0, 0.0, 1.0, -30.0)
            else:
                plane = PatchPlane(plane_m, plane_n, 1.0, -30.0)
            deviations.append(corollary_deviation(KITTI, plane, -3.0))
        for a, b in zip(deviations, deviations[1:]):
            assert b >= a

    def test_grows_with_translation_magnitude(self):
        plane = PatchPlane(-0.05, 0.05, 1.0, -30.0)
        small = corollary_deviation(KITTI, plane, -1.0)
        large = corollary_deviation(KITTI, plane, -6.0)
        assert large > small


class TestScaleGroupComposition:
    def test_warp_composition_matches_product_scale(self):
        from seslab import render_gaussian_blobs, scale_transform

        r = np.random.default_rng(2)
        blobs = [
            (r.uniform(30, 90), r.uniform(30, 90), r.uniform(5.0, 9.0), r.uniform(0.4, 1.0))
            for _ in range(4)
        ]
        image = render_gaussian_blobs(121, 121, blobs)
        image /= image.max()
        s1, s2 = 0.9, 0.85
        twice = scale_transform(scale_transform(image, s1), s2)
        once = scale_transform(image, s1 * s2)
        interior = (slice(12, -12), slice(12, -12))
        assert np.abs(twice[interior] - once[interior]).max() < 0.02


class TestFocalCorrection:
    def test_paper_quotient(self):
        kitti = DatasetFocalProfile.from_normalized(3.82)
        nuscenes = DatasetFocalProfile.from_normalized(2.82)
        value = focal_correction(kitti, nuscenes)
        assert abs(value - 3.82 / 2.82) <= 1e-12
        assert abs(value - 1.361) <= 0.01

    def test_identity(self):
        prof = DatasetFocalProfile(716.3, 375.0)
        assert focal_correction(prof, prof) == 1.0

    def test_reciprocity(self):
        a = DatasetFocalProfile.from_normalized(3.82)
        b = DatasetFocalProfile.from_normalized(2.82)
        assert abs(focal_correction(a, b) * focal_correction(b, a) - 1.0) <= 1e-12


def test_a_log_polar_frame_without_a_radius_is_refused_by_its_extents():
    # A 1x1 frame's farthest corner is its center; the refusal used to blame
    # the default r_min, "r_min must lie in (0, 0), got 1.0".
    with pytest.raises(ConfigError, match=r"^a 1x1 log-polar frame has no radius: its farthest corner is its center$"):
        inverse_log_polar(np.zeros((8, 8)), (1, 1))
    with pytest.raises(ConfigError, match=r"^a 1x1 log-polar frame has no radius"):
        log_polar(np.zeros((1, 1)), out_shape=(8, 8))
