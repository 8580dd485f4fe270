import math
import tracemalloc

import numpy as np
import pytest

from seslab import (
    BorderPolicy,
    ConfigError,
    ShapeError,
    geometry,
    inverse_log_polar,
    log_polar,
    log_polar_roundtrip_ssim,
    resample,
    resize,
    sample_at,
    scale_transform,
    ssim,
    synth_image,
)


def corner_radius(shape):
    h, w = shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    return math.hypot(cy, cx)


def downscale_reads(n, out_n):
    """Source indices that an endpoint-aligned resize from n to out_n reads."""
    i0 = np.floor(np.arange(out_n) * ((n - 1) / (out_n - 1))).astype(int)
    return np.unique(np.concatenate([i0, np.minimum(i0 + 1, n - 1)]))


def inverse_coordinates_read_by_downscale(shape, up):
    """The (ln r column, theta row) coordinates of the roundtrip's inverse at
    the upscale's pixels that its downscale reads, wrapped with np.mod."""
    h2, w2 = round(shape[0] * up), round(shape[1] * up)
    cy, cx = (h2 - 1) / 2.0, (w2 - 1) / 2.0
    dy = downscale_reads(h2, shape[0])[:, np.newaxis] - cy
    dx = downscale_reads(w2, shape[1])[np.newaxis, :] - cx
    dlnr = math.log(corner_radius((h2, w2))) / (w2 - 1)
    thetas = np.mod(np.arctan2(dy, dx), 2.0 * np.pi)
    return np.log(np.maximum(np.hypot(dy, dx), 1.0)) / dlnr, thetas * (h2 / (2.0 * np.pi))


def log_polar_corners(shape, up):
    """(row, column) arrays of the four clamped corners that the roundtrip's
    inverse reads on the log-polar grid one row taller."""
    h2, w2 = round(shape[0] * up), round(shape[1] * up)
    xs, ys = inverse_coordinates_read_by_downscale(shape, up)
    x0, y0 = np.floor(xs).astype(int), np.floor(ys).astype(int)
    return [(np.clip(r, 0, h2), np.clip(c, 0, w2 - 1)) for r in (y0, y0 + 1) for c in (x0, x0 + 1)]


def log_polar_read_cells(shape, up):
    """Flat indices of the log-polar cells the roundtrip's inverse reads, row
    n_theta read as row 0."""
    h2, w2 = round(shape[0] * up), round(shape[1] * up)
    return np.unique(np.concatenate([((r % h2) * w2 + c).ravel() for r, c in log_polar_corners(shape, up)]))


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


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: log_polar(np.ones((8, 8)), out_shape=(10**6, 10**6)), "log-polar output 1000000x1000000 plans "),
        (lambda: inverse_log_polar(np.ones((8, 8)), (10**6, 10**6)), "inverse log-polar output 1000000x1000000 plans "),
    ],
    ids=["log_polar", "inverse_log_polar"],
)
def test_output_too_large_for_memory_is_refused_before_it_is_allocated(call, message):
    # log_polar raised a bare numpy MemoryError ("Unable to allocate 7.28
    # TiB"); both now refuse before their tables or output are allocated.
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=f"^{message}.*physical memory"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024


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

    @pytest.mark.parametrize("up", [0.5, float("nan"), float("inf"), "2", True])
    def test_up_factor_validated(self, blob_image, up):
        # nan ended in a ValueError converting NaN to an integer, inf in an OverflowError
        with pytest.raises(ValueError, match="up_factor"):
            log_polar_roundtrip_ssim(blob_image, up)

    @pytest.mark.parametrize("kind", ["checkerboard", "gaussian-blobs"])
    @pytest.mark.parametrize("shape", [(50, 50), (51, 51), (37, 64), (64, 41)])
    @pytest.mark.parametrize("up", [1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 3.7, 4.0])
    def test_equals_full_size_composition(self, monkeypatch, kind, shape, up):
        image = synth_image(kind, *shape, seed=11)
        h, w = shape
        h2, w2 = round(h * up), round(w * up)
        if (h2, w2) == (h, w):
            expected = inverse_log_polar(log_polar(image), shape)
        else:
            expected = resize(inverse_log_polar(log_polar(resize(image, h2, w2)), (h2, w2)), h, w)
        compared = []

        def recording(a, b):
            compared.append(b)
            return ssim(a, b)

        monkeypatch.setattr(geometry, "ssim", recording)
        value = log_polar_roundtrip_ssim(image, up)
        assert compared[0].tobytes() == expected.tobytes()
        assert value.hex() == ssim(image, expected).hex()

    def test_inverse_runs_only_where_the_downscale_reads(self, monkeypatch):
        image = synth_image("checkerboard", 60, 45, seed=2)
        h2, w2 = 240, 180
        points = []
        real = geometry._inverse_mapping

        def counting(*args):
            mapping = real(*args)

            def fn(xs, ys):
                cols, rows = mapping(xs, ys)
                points.append(np.broadcast(cols, rows).size)
                return cols, rows

            return fn

        monkeypatch.setattr(geometry, "_inverse_mapping", counting)
        log_polar_roundtrip_ssim(image, 4.0)

        rows, cols = downscale_reads(h2, 60), downscale_reads(w2, 45)
        assert (rows.size, cols.size) == (119, 89)
        assert sum(points) == rows.size * cols.size < h2 * w2 // 4

    @pytest.mark.parametrize(("shape", "up"), [((60, 45), 4.0), ((12, 20), 2.8)])
    def test_forward_runs_only_where_the_inverse_reads(self, monkeypatch, shape, up):
        image = synth_image("checkerboard", *shape, seed=2)
        h2, w2 = round(shape[0] * up), round(shape[1] * up)
        points = []
        real = geometry._log_polar_mapping

        def counting(*args):
            mapping = real(*args)

            def fn(xs, ys):
                points.append(np.broadcast(xs, ys).size)
                return mapping(xs, ys)

            return fn

        monkeypatch.setattr(geometry, "_log_polar_mapping", counting)
        log_polar_roundtrip_ssim(image, up)
        assert sum(points) == log_polar_read_cells(shape, up).size
        if up == 4.0:
            assert sum(points) < h2 * w2 // 3

    def test_inverse_reading_cells_only_through_the_theta_wrap(self, monkeypatch):
        # At 12x20 and u = 2.8 (34x56) eight cells of row 0 are read only as
        # corners on row n_theta, which the theta wrap reads as row 0. The
        # downscale happens to weight the points that read them by 0, so the
        # grid the inverse reads is compared too, at every cell it reads.
        shape, up = (12, 20), 2.8
        h2, w2 = 34, 56
        corners = log_polar_corners(shape, up)
        wrapped = np.unique(np.concatenate([c[r == h2] for r, c in corners]))
        direct = np.unique(np.concatenate([c[r == 0] for r, c in corners]))
        assert np.setdiff1d(wrapped, direct).size == 8
        image = synth_image("gaussian-blobs", *shape, seed=11)
        lp = log_polar(resize(image, h2, w2))
        expected = resize(inverse_log_polar(lp, (h2, w2)), *shape)
        grids, compared = [], []
        real = geometry._sample_points

        def recording_grids(flat, grid_shape, *args):
            if grid_shape == (h2 + 1, w2):
                grids.append(flat.copy())
            return real(flat, grid_shape, *args)

        def recording(a, b):
            compared.append(b)
            return ssim(a, b)

        monkeypatch.setattr(geometry, "_sample_points", recording_grids)
        monkeypatch.setattr(geometry, "ssim", recording)
        log_polar_roundtrip_ssim(image, up)
        cells = log_polar_read_cells(shape, up)
        assert grids[0][cells].tobytes() == lp.reshape(-1)[cells].tobytes()
        assert compared[0].tobytes() == expected.tobytes()

    def test_up_factor_too_large_for_memory(self):
        # Two 16e12 x 16e12 grids need about 4e27 bytes; nothing is allocated.
        image = synth_image("checkerboard", 16, 16, seed=0)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="up_factor"):
                log_polar_roundtrip_ssim(image, 1e12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        with pytest.raises(ConfigError, match="up_factor"):
            log_polar_roundtrip_ssim(image, 1e308)  # 16 * 1e308, the upscale's height, overflows to inf

    def test_peak_memory_holds_no_full_size_inverse(self):
        # At 384x384 and u = 4 a full-size (1536x1536) array is 18 MiB. The
        # peak is the upscale's resize (its output, its quarter-size x pass
        # and one band) beside the inverse's coordinates on the compact grid
        # (two arrays of a quarter each) and the read cells' indices (about a
        # quarter). The upscale kept alive beside the log-polar image, or a
        # full-size inverse, does not fit.
        image = synth_image("checkerboard", 384, 384, seed=1)
        full = 1536 * 1536 * 8
        limit = 2.25 * full
        tracemalloc.start()
        try:
            log_polar_roundtrip_ssim(image, 4.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit

    @pytest.mark.parametrize("size", [96, 384])
    @pytest.mark.parametrize("up", [1.0, 2.0, 3.0, 4.0])
    def test_peak_memory_within_the_plan(self, size, up):
        # The plan counted the upscale and the log-polar image only: at 384x384
        # it planned 2.25 MiB at u = 1, where SSIM's maps alone take 6.
        image = synth_image("checkerboard", size, size, seed=1)
        tracemalloc.start()
        try:
            log_polar_roundtrip_ssim(image, up)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * geometry.check_up_factor(image.shape, up)


def full_coordinate_radius(shape, cy, cx):
    corners = [(0.0, 0.0), (0.0, shape[1] - 1.0), (shape[0] - 1.0, 0.0), (shape[0] - 1.0, shape[1] - 1.0)]
    return max(math.hypot(y - cy, x - cx) for y, x in corners)


def full_coordinate_log_polar(image, cy, cx, r_min=1.0):
    """The forward transform as whole (theta, ln r) coordinate arrays."""
    n_theta, n_r = image.shape
    r_max = full_coordinate_radius(image.shape, cy, cx)
    thetas = np.arange(n_theta, dtype=np.float64) * (2.0 * np.pi / n_theta)
    radii = np.exp(np.linspace(math.log(r_min), math.log(r_max), n_r))
    ys = cy + radii[np.newaxis, :] * np.sin(thetas[:, np.newaxis])
    xs = cx + radii[np.newaxis, :] * np.cos(thetas[:, np.newaxis])
    return sample_at(image, xs, ys, BorderPolicy.CLAMP)


def full_coordinate_inverse(lp_image, out_shape, cy, cx, r_min=1.0):
    """The inverse transform as whole Cartesian coordinate arrays, wrapped with np.mod."""
    n_theta, n_r = lp_image.shape
    h, w = out_shape
    r_max = full_coordinate_radius(out_shape, cy, cx)
    dlnr = (math.log(r_max) - math.log(r_min)) / (n_r - 1)
    dy = np.arange(h, dtype=np.float64)[:, np.newaxis] - cy
    dx = np.arange(w, dtype=np.float64)[np.newaxis, :] - cx
    radii = np.hypot(dy, dx)
    thetas = np.mod(np.arctan2(dy, dx), 2.0 * np.pi)
    cols = (np.log(np.maximum(radii, r_min)) - math.log(r_min)) / dlnr
    rows = thetas * (n_theta / (2.0 * np.pi))
    wrapped = np.vstack([lp_image, lp_image[:1]])
    return sample_at(wrapped, cols, rows, BorderPolicy.CLAMP)


class TestAsMappings:
    """The log-polar pair as two warps equals the full-coordinate form bit for bit."""

    @pytest.mark.parametrize(
        ("shape", "center", "r_min"),
        [
            ((96, 96), None, 1.0),
            ((375, 1242), (187.5, 621.0), 1.0),  # the principal point of a 1242x375 frame
            ((61, 47), (10.25, 40.0), 2.5),
        ],
    )
    def test_pair_equals_full_coordinate_form(self, shape, center, r_min):
        image = synth_image("gaussian-blobs", *shape, seed=7)
        cy, cx = center if center is not None else ((shape[0] - 1) / 2.0, (shape[1] - 1) / 2.0)
        lp = log_polar(image, center=center, r_min=r_min)
        assert lp.tobytes() == full_coordinate_log_polar(image, cy, cx, r_min).tobytes()
        rec = inverse_log_polar(lp, shape, center=center, r_min=r_min)
        assert rec.tobytes() == full_coordinate_inverse(lp, shape, cy, cx, r_min).tobytes()

    def test_theta_rows_past_n_theta_read_row_0(self):
        # Row 10 lies 2e-15 above the center, so right of the center theta
        # rounds up to 2 pi, and for n_theta = 56 the row coordinate
        # 2 pi * (56 / 2 pi) lands past 56, where both corners are row 0.
        image = synth_image("gaussian-blobs", 56, 64, seed=3)
        center = (10.000000000000002, 20.0)
        lp = log_polar(image, center=center)
        xs, ys = np.arange(64.0)[np.newaxis, :], np.arange(56.0)[:, np.newaxis]
        assert (geometry._inverse_mapping(lp.shape, image.shape, center, 1.0)(xs, ys)[1] > 56).any()
        rec = inverse_log_polar(lp, image.shape, center=center)
        assert rec.tobytes() == full_coordinate_inverse(lp, image.shape, *center).tobytes()

    def test_theta_wrap_equals_mod_two_pi(self):
        # arctan2 outputs in [-pi, pi], with +-0.0 (dy = +-0.0) and +-pi (dx < 0, dy = +-0.0)
        values = np.array([-3.0, -1.0, -0.0, 0.0, 1e-300, 2.0])
        dy, dx = np.meshgrid(values, values, indexing="ij")
        rng = np.random.default_rng(3)
        thetas = np.concatenate([np.arctan2(dy, dx).ravel(), np.arctan2(*rng.normal(size=(2, 1000)))])
        assert {np.pi, -np.pi} <= set(thetas.tolist())
        assert np.signbit(thetas[thetas == 0.0]).any()
        wrapped = thetas.copy()
        wrapped += np.where(wrapped < 0.0, 2.0 * np.pi, 0.0)
        assert wrapped.tobytes() == np.mod(thetas, 2.0 * np.pi).tobytes()

    def test_inverse_peak_memory_is_output_plus_bands(self):
        # Allowed: the output and 32 arrays of BLOCK_POINTS doubles for one
        # band's coordinates and kernel temporaries. Whole-size coordinate
        # arrays (radii, angles, rows, columns) do not fit, nor does a copy of
        # the log-polar image with row 0 appended for the theta wrap.
        lp = np.random.default_rng(5).uniform(size=(1024, 1024))
        limit = lp.nbytes + 32 * 8 * resample.BLOCK_POINTS
        tracemalloc.start()
        try:
            inverse_log_polar(lp, (1024, 1024))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit
