import math

import numpy as np
import pytest

from seslab import (
    ShapeError,
    inverse_log_polar,
    log_polar,
    log_polar_roundtrip_ssim,
    scale_transform,
    ssim,
    synth_image,
)


def corner_radius(shape):
    h, w = shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    return math.hypot(cy, cx)


class TestForward:
    def test_output_shape_defaults_to_input(self, blob_image):
        assert log_polar(blob_image).shape == blob_image.shape

    def test_scaling_becomes_column_shift(self):
        image = synth_image("gaussian-blobs", 128, 128, seed=4)
        n_r = 128
        dlnr = (math.log(corner_radius(image.shape)) - math.log(1.0)) / (n_r - 1)
        shift_cols = 4
        s = math.exp(-shift_cols * dlnr)  # exact integer-column shift
        lp = log_polar(image)
        lp_scaled = log_polar(scale_transform(image, s))
        # lp_scaled[:, j] should equal lp[:, j + shift_cols]; correlation over
        # candidate offsets must peak at the predicted one
        scores = {}
        for offset in range(-8, 9):
            a = lp_scaled[:, 16 : n_r - 16]
            b = lp[:, 16 + shift_cols + offset : n_r - 16 + shift_cols + offset]
            a0 = a - a.mean()
            b0 = b - b.mean()
            scores[offset] = float((a0 * b0).sum() / (np.linalg.norm(a0) * np.linalg.norm(b0)))
        best = max(scores, key=scores.get)
        assert best == 0
        assert scores[0] > 0.98

    def test_rotation_becomes_row_shift(self):
        image = synth_image("gaussian-blobs", 96, 96, seed=9)
        n_theta = 96
        lp = log_polar(image)
        lp_rot = log_polar(np.rot90(image))
        rolled = np.roll(lp, -n_theta // 4, axis=0)
        # ignore the innermost radii where the transform is singular
        assert np.abs(lp_rot[:, 3:] - rolled[:, 3:]).max() <= 1e-6

    def test_center_must_be_inside(self, blob_image):
        with pytest.raises(ValueError, match="center"):
            log_polar(blob_image, center=(100.0, 5.0))

    @pytest.mark.parametrize("out_shape", [(2.5, 4), (3, 4.0), (0, 4), (-1, 4)])
    def test_output_extents_must_be_integers_at_least_one(self, blob_image, out_shape):
        with pytest.raises(ShapeError, match="integers >= 1"):
            log_polar(blob_image, out_shape=out_shape)

    def test_r_min_validation(self, blob_image):
        r_max = corner_radius(blob_image.shape)
        with pytest.raises(ValueError, match="r_min"):
            log_polar(blob_image, r_min=r_max + 1)
        with pytest.raises(ValueError, match="r_min"):
            log_polar(blob_image, r_min=0.0)


class TestInverse:
    def test_roundtrip_loses_information_at_low_resolution(self):
        image = synth_image("gaussian-blobs", 96, 96, seed=2)
        rec = inverse_log_polar(log_polar(image), image.shape)
        value = ssim(image, rec)
        assert value < 1.0
        assert value > 0.2  # still recognizably the same image

    def test_contraction_bounds(self):
        image = synth_image("bandlimited-noise", 64, 64, seed=5)
        rec = inverse_log_polar(log_polar(image), image.shape)
        assert rec.min() >= image.min() - 1e-9
        assert rec.max() <= image.max() + 1e-9

    @pytest.mark.parametrize("out_shape", [(20.5, 30), (20, 30.0), (0, 30), (20, -2)])
    def test_output_extents_must_be_integers_at_least_one(self, out_shape):
        with pytest.raises(ShapeError, match="integers >= 1"):
            inverse_log_polar(np.ones((16, 8)), out_shape)

    def test_needs_two_radius_columns(self, blob_image):
        with pytest.raises(ShapeError, match="columns"):
            inverse_log_polar(np.ones((16, 1)), (16, 16))


class TestRoundtripSsim:
    def test_upscaling_sweep_below_one(self):
        image = synth_image("gaussian-blobs", 96, 96, seed=0)
        for up in (1.0, 2.0, 3.0, 4.0):
            assert log_polar_roundtrip_ssim(image, up) < 1.0

    def test_mean_nondecreasing_in_up_factor(self):
        images = [synth_image("gaussian-blobs", 64, 64, seed=s) for s in range(6)]
        means = []
        for up in (1.0, 2.0):
            means.append(np.mean([log_polar_roundtrip_ssim(img, up) for img in images]))
        assert means[1] >= means[0]

    def test_higher_resolution_loses_less(self):
        small = np.mean(
            [log_polar_roundtrip_ssim(synth_image("gaussian-blobs", 48, 48, seed=s), 2.0) for s in range(6)]
        )
        large = np.mean(
            [log_polar_roundtrip_ssim(synth_image("gaussian-blobs", 96, 96, seed=s), 2.0) for s in range(6)]
        )
        assert large >= small

    def test_up_factor_validated(self, blob_image):
        with pytest.raises(ValueError, match="up_factor"):
            log_polar_roundtrip_ssim(blob_image, 0.5)
