import warnings

import numpy as np
import pytest

from seslab import (
    CameraIntrinsics,
    ConfigError,
    DatasetFocalProfile,
    DegenerateGeometryError,
    EgoMotion,
    PatchPlane,
    corollary_deviation,
    focal_correction,
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
