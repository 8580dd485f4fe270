import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import bilinear_loops

from seslab import (
    BorderPolicy,
    CameraIntrinsics,
    EgoMotion,
    PatchPlane,
    PixelMapping,
    ShapeError,
    projective_mapping,
    render_gaussian_blobs,
    resample,
    resize,
    sample_at,
    scale_transform,
    scale_transform_stack,
    synth_image,
    warp,
)


class TestBilinearSample:
    def test_integer_coordinates_exact(self, rng):
        image = rng.uniform(size=(6, 7))
        for y in range(6):
            for x in range(7):
                assert float(sample_at(image, x, y)) == image[y, x]

    def test_midpoint_of_2x2(self):
        image = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert float(sample_at(image, 0.5, 0.5)) == pytest.approx(0.5, abs=1e-15)

    def test_outside_corner_zero_fill(self):
        image = np.ones((4, 4))
        value = float(sample_at(image, -0.5, -0.5, BorderPolicy.ZERO))
        assert value == pytest.approx(0.25, abs=1e-15)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            float(sample_at(np.ones((3, 3)), float("nan"), 0.0))
        with pytest.raises(ValueError, match="finite"):
            float(sample_at(np.ones((3, 3)), 0.0, float("inf")))

    @settings(max_examples=50, deadline=None)
    @given(
        x=st.floats(-10, 15, allow_nan=False),
        y=st.floats(-10, 15, allow_nan=False),
        border=st.sampled_from(["clamp", "circular"]),
    )
    def test_interpolation_stays_within_value_range(self, x, y, border):
        image = np.random.default_rng(0).uniform(size=(5, 6))
        value = float(sample_at(image, x, y, BorderPolicy.coerce(border)))
        assert image.min() - 1e-12 <= value <= image.max() + 1e-12


class TestWarp:
    def test_identity_mapping_bit_exact(self, blob_image):
        assert np.array_equal(warp(blob_image, PixelMapping.identity()), blob_image)

    def test_integer_shift_circular_matches_roll(self, rng):
        image = rng.uniform(size=(8, 10))
        out = warp(image, PixelMapping.shift(3, 2), BorderPolicy.CIRCULAR)
        assert np.array_equal(out, np.roll(image, (2, 3), axis=(0, 1)))

    def test_composed_shift_unshift_map_recovers_interior(self, blob_image):
        dx, dy = 2.3, -1.7
        fwd = PixelMapping.shift(dx, dy)
        bwd = PixelMapping.shift(-dx, -dy)
        composed = PixelMapping(lambda xs, ys: fwd(*bwd(xs, ys)))
        back = warp(blob_image, composed, BorderPolicy.CLAMP)
        interior = (slice(6, -6), slice(6, -6))
        assert np.abs(back[interior] - blob_image[interior]).max() <= 1e-12

    def test_integer_shift_then_unshift_recovers_interior(self, blob_image):
        once = warp(blob_image, PixelMapping.shift(3, -2), BorderPolicy.CLAMP)
        back = warp(once, PixelMapping.shift(-3, 2), BorderPolicy.CLAMP)
        interior = (slice(6, -6), slice(6, -6))
        assert np.abs(back[interior] - blob_image[interior]).max() <= 1e-12

    def test_out_shape_override(self, blob_image):
        out = warp(blob_image, PixelMapping.identity(), out_shape=(10, 12))
        assert out.shape == (10, 12)
        assert np.array_equal(out, blob_image[:10, :12])

    @pytest.mark.parametrize("border", list(BorderPolicy))
    def test_equals_sample_at_on_broadcast_coordinates(self, rng, border):
        # scale_about keeps its open (1, W) and (H, 1) shape and takes the
        # separable kernel; the projective map is (H, W) and takes the point kernel.
        image = rng.normal(size=(2, 24, 31))
        intr = CameraIntrinsics.centered(40.0, 31, 24)
        tilted = PatchPlane(-0.05, 0.05, 1.0, -30.0)
        xs = np.arange(31, dtype=np.float64)[np.newaxis, :]
        ys = np.arange(24, dtype=np.float64)[:, np.newaxis]
        for mapping in (
            PixelMapping.scale_about(0.8, 14.2, 11.7),
            PixelMapping.scale_about(1.7, 15.0, 11.5),
            projective_mapping(intr, tilted, EgoMotion.z_translation(-3.0)),
        ):
            sx, sy = (np.broadcast_to(c, (24, 31)) for c in mapping(xs, ys))
            expected = sample_at(image, sx, sy, border)
            assert warp(image, mapping, border).tobytes() == expected.tobytes()

    def test_constant_mapping_fills_output(self, rng):
        image = rng.normal(size=(6, 7))
        out = warp(image, PixelMapping(lambda xs, ys: (2.5, 1.25)), out_shape=(4, 5))
        assert out.shape == (4, 5)
        assert np.all(out == sample_at(image, 2.5, 1.25))

    @pytest.mark.parametrize("out_shape", [(-1, 5), (0, 5), (5, 0), (2.5, 3)])
    def test_bad_out_shape_rejected(self, blob_image, out_shape):
        with pytest.raises(ShapeError, match="integers >= 1"):
            warp(blob_image, PixelMapping.identity(), out_shape=out_shape)


def projective_onto(out_shape, src_shape):
    """A tilted-plane projective map of an out_shape frame, stretched so that
    it reaches about 3 px past every edge of a src_shape grid."""
    h, w = out_shape
    hs, ws = src_shape
    intr = CameraIntrinsics.centered(2.0 * max(h, w), w, h)
    proj = projective_mapping(intr, PatchPlane(-0.05, 0.05, 1.0, -30.0), EgoMotion.z_translation(-3.0))

    def fn(xs, ys):
        px, py = proj(xs, ys)
        return px * ((ws + 6) / w) - 3.0, py * ((hs + 6) / h) - 3.0

    return PixelMapping(fn)


class TestBandedWarp:
    """``warp`` of a map that is not axis-aligned, sampled one band of rows at a time."""

    @pytest.mark.parametrize("border", list(BorderPolicy))
    @pytest.mark.parametrize(
        ("lead", "out_shape"),
        [
            ((), (800, 45)),  # bands of 364 rows, the last one partial
            ((3,), (250, 45)),  # a leading axis: bands of 121 rows, the last one partial
            ((), (3, resample.BLOCK_POINTS + 3)),  # wider than a block: one row per band
            ((2,), (1, 57)),  # one output row
        ],
    )
    def test_equals_full_coordinates_and_loops(self, rng, border, lead, out_shape):
        h, w = out_shape
        grid = rng.normal(size=(*lead, 5 + h // 3, 7 + w // 3))
        mapping = projective_onto(out_shape, grid.shape[-2:])
        sx, sy = mapping(np.arange(w, dtype=np.float64)[np.newaxis, :], np.arange(h, dtype=np.float64)[:, np.newaxis])
        assert sx.shape == sy.shape == out_shape
        out = warp(grid, mapping, border, out_shape)
        assert out.tobytes() == sample_at(grid, sx, sy, border).tobytes()
        for index in np.ndindex(*lead):
            loops = bilinear_loops(grid[index], sx.ravel(), sy.ravel(), border.value)
            assert np.array_equal(out[index].ravel(), loops)

    def test_evaluates_the_mapping_per_band_and_pads_once(self, rng, monkeypatch):
        grid = rng.normal(size=(3, 40, 50))
        out_shape = (300, 50)
        band = resample.BLOCK_POINTS // (3 * 50)
        projective = projective_onto(out_shape, grid.shape[-2:])
        rows, pads = [], []
        real_pad = np.pad

        def recording(xs, ys):
            rows.append(ys.shape[0])
            return projective(xs, ys)

        def counting_pad(*args, **kwargs):
            pads.append(1)
            return real_pad(*args, **kwargs)

        monkeypatch.setattr(np, "pad", counting_pad)
        out = warp(grid, PixelMapping(recording), BorderPolicy.ZERO, out_shape)
        assert rows == [band, band, 300 - 2 * band]
        assert len(pads) == 1
        monkeypatch.undo()
        assert out.tobytes() == warp(grid, projective, BorderPolicy.ZERO, out_shape).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coordinates_in_a_later_band_rejected(self, bad):
        # 3 bands of 2 rows for a [4, 5, 2048] grid; row 5 lies in the last one
        mapping = PixelMapping(lambda xs, ys: (xs + 0.5 * ys, np.where(ys == 5.0, bad, ys)))
        with pytest.raises(ValueError, match="finite"):
            warp(np.ones((4, 5, 2048)), mapping, BorderPolicy.CLAMP, (6, 2048))


class TestScaleTransform:
    def test_unit_scale_is_bit_exact_identity(self, blob_image):
        out = scale_transform(blob_image, 1.0)
        assert out is not blob_image
        assert np.array_equal(out, blob_image)

    def test_shrink_then_magnify_roundtrip(self):
        # blobs must stay band-limited at the half-resolution intermediate,
        # so their std sits well above 2 px
        worst = 0.0
        for seed in range(5):
            r = np.random.default_rng(100 + seed)
            blobs = [
                (r.uniform(20, 76), r.uniform(20, 76), r.uniform(4.0, 8.0), r.uniform(0.4, 1.0))
                for _ in range(5)
            ]
            image = render_gaussian_blobs(96, 96, blobs)
            image /= image.max()
            down = scale_transform(image, 0.5)
            back = scale_transform(down, 2.0)
            worst = max(worst, float(np.abs(back - image).max()))
        assert worst < 0.05

    def test_gaussian_blob_matches_analytic_rescaling(self):
        h = w = 161
        sigma0, s = 24.0, 0.8
        center = ((h - 1) / 2.0, (w - 1) / 2.0)
        image = render_gaussian_blobs(h, w, [(center[0], center[1], sigma0, 1.0)])
        scaled = scale_transform(image, s)
        expected = render_gaussian_blobs(h, w, [(center[0], center[1], s * sigma0, 1.0)])
        inner = (slice(20, -20), slice(20, -20))
        assert np.abs(scaled[inner] - expected[inner]).max() <= 1e-3

    def test_magnification_direction(self):
        # s > 1 magnifies: a centered blob gets wider
        image = render_gaussian_blobs(65, 65, [(32.0, 32.0, 4.0, 1.0)])
        bigger = scale_transform(image, 2.0)
        assert bigger[32, 40] > image[32, 40]

    def test_nonpositive_scale_rejected(self, blob_image):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="positive"):
                scale_transform(blob_image, bad)


class TestResize:
    def test_same_size_bit_exact(self, blob_image):
        assert np.array_equal(resize(blob_image, *blob_image.shape), blob_image)

    def test_endpoints_aligned(self, rng):
        image = rng.uniform(size=(5, 5))
        out = resize(image, 9, 9)
        assert out[0, 0] == image[0, 0]
        assert out[-1, -1] == image[-1, -1]

    @pytest.mark.parametrize("target", [(0, 5), (5, -1), (2.5, 3)])
    def test_bad_target_rejected(self, blob_image, target):
        with pytest.raises(ShapeError, match="integers >= 1"):
            resize(blob_image, *target)

    def test_upscale_downscale_roundtrip(self, blob_image):
        up = resize(blob_image, 128, 160)
        back = resize(up, *blob_image.shape)
        assert np.abs(back - blob_image).max() < 0.06


def test_sample_at_vectorized_matches_scalar(rng):
    image = rng.uniform(size=(7, 9))
    xs = rng.uniform(-1, 9, size=12)
    ys = rng.uniform(-1, 7, size=12)
    batch = sample_at(image, xs, ys, BorderPolicy.ZERO)
    singles = [float(sample_at(image, x, y, BorderPolicy.ZERO)) for x, y in zip(xs, ys)]
    assert np.abs(batch - np.array(singles)).max() == 0.0


class TestSampleKernel:
    """``sample_at`` against the per-point loop of ``oracles.bilinear_loops``."""

    @pytest.mark.parametrize("border", list(BorderPolicy))
    def test_matches_loop_up_to_three_pixels_outside(self, rng, border):
        image = rng.normal(size=(6, 7))
        # quarter-pixel lattice from 3 px before the first to 3 px past the last pixel
        yy, xx = np.meshgrid(np.arange(-3, 8.25, 0.25), np.arange(-3, 9.25, 0.25), indexing="ij")
        xs = np.concatenate([xx.ravel(), rng.uniform(-3, 9, size=300)])
        ys = np.concatenate([yy.ravel(), rng.uniform(-3, 8, size=300)])
        out = sample_at(image, xs, ys, border)
        assert np.array_equal(out, bilinear_loops(image, xs, ys, border.value))

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_points_spanning_several_blocks(self, rng, lead):
        n = 2 * resample.BLOCK_POINTS + 7
        grid = rng.normal(size=(*lead, 9, 11))
        xs = rng.uniform(-2, 12, size=n)
        ys = rng.uniform(-2, 10, size=n)
        out = sample_at(grid, xs, ys, BorderPolicy.ZERO)
        assert out.shape == (*lead, n)
        for index in np.ndindex(*lead):
            assert np.array_equal(out[index], bilinear_loops(grid[index], xs, ys, "zero-fill"))

    @pytest.mark.parametrize("border", list(BorderPolicy))
    def test_stacked_grid_equals_per_slice(self, rng, border):
        grid = rng.normal(size=(2, 3, 8, 10))
        xs = rng.uniform(-3, 12, size=(5, 6))
        ys = rng.uniform(-3, 10, size=(5, 6))
        out = sample_at(grid, xs, ys, border)
        assert out.shape == (2, 3, 5, 6)
        for i, j in np.ndindex(2, 3):
            assert np.array_equal(out[i, j], sample_at(grid[i, j], xs, ys, border))

    def test_open_grid_equals_meshgrid(self, rng):
        # The open grid runs the separable kernel; the meshgrid and the flat
        # points run the point kernel. Grids are 12 rows by 15 columns.
        cases = [
            (rng.uniform(-2, 16, size=9), rng.uniform(-2, 13, size=7)),
            (np.linspace(-6.5, 21, 12), np.linspace(-5, 17.5, 10)),  # whole rows and columns outside
            (np.linspace(0.2, 14, 4), np.linspace(0.3, 11, 3)),  # downscale: source rows 2-4 and 7-10 unread
            (np.array([7.25]), np.array([-0.5])),  # one output pixel
            (rng.uniform(-2, 16, size=6), np.array([11.6])),  # one output row
            (np.array([14.2]), rng.uniform(-2, 13, size=5)),  # one output column
        ]
        for lead in [(), (3,), (2, 3)]:
            grid = rng.normal(size=(*lead, 12, 15))
            for cols, rows in cases:
                yy, xx = np.meshgrid(rows, cols, indexing="ij")
                for border in BorderPolicy:
                    open_out = sample_at(grid, cols[np.newaxis, :], rows[:, np.newaxis], border)
                    assert open_out.shape == (*lead, rows.size, cols.size)
                    assert np.array_equal(open_out, sample_at(grid, xx, yy, border))
                    flat = sample_at(grid, xx.ravel(), yy.ravel(), border)
                    assert open_out.tobytes() == flat.tobytes()

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.6, 0.8])
    def test_zero_fill_shrink_matches_loop_with_signed_zeros(self, rng, s):
        # Shrinking leaves whole output rows and columns whose corners all lie
        # on the ring; the separable kernel skips them. Signed zeros in the
        # grid make the sign of each zero output part of the comparison.
        image = rng.choice([-2.5, -1.0, -0.0, 0.0, 1.0, 3.0], size=(12, 15))
        xs, ys = resample.scale_transform_mapping(image.shape, s, None)(
            np.arange(15.0)[np.newaxis, :], np.arange(12.0)[:, np.newaxis]
        )
        out = sample_at(image, xs, ys, BorderPolicy.ZERO)
        yy, xx = np.broadcast_arrays(ys, xs)
        expected = bilinear_loops(image, xx.ravel(), yy.ravel(), "zero-fill")
        assert out.tobytes() == expected.reshape(out.shape).tobytes()
        assert (out[:, 0] == 0).all() and (out[0] == 0).all()  # ring-only rows and columns exist

    @pytest.mark.parametrize(
        ("cols", "rows"),
        [
            (np.linspace(-20.0, -1.5, 7), np.linspace(-3.0, 14.0, 5)),  # every column left of the grid
            (np.linspace(-3.0, 18.0, 6), np.linspace(12.0, 30.0, 4)),  # every row below the grid
            (np.linspace(16.0, 40.0, 3), np.linspace(-9.0, -1.01, 3)),  # both
        ],
    )
    def test_zero_fill_outside_grid_is_positive_zero(self, rng, cols, rows):
        grid = -rng.uniform(1.0, 2.0, size=(2, 12, 15))
        out = sample_at(grid, cols[np.newaxis, :], rows[:, np.newaxis], BorderPolicy.ZERO)
        assert out.shape == (2, rows.size, cols.size)
        assert out.tobytes() == np.zeros_like(out).tobytes()
        yy, xx = np.meshgrid(rows, cols, indexing="ij")
        expected = bilinear_loops(grid[0], xx.ravel(), yy.ravel(), "zero-fill")
        assert out[1].tobytes() == expected.reshape(out.shape[1:]).tobytes()

    @pytest.mark.parametrize("s", [0.6, 1.0 / 1.1, 1.0, 1.3])
    @pytest.mark.parametrize("border", list(BorderPolicy))
    def test_sub_window_equals_block_of_stack_transform(self, rng, s, border):
        stack = rng.normal(size=(3, 20, 30))
        full = scale_transform_stack(stack, s, border=border)
        mapping = resample.scale_transform_mapping(stack.shape, s, None)
        for rows, cols in [(slice(2, 18), slice(3, 27)), (slice(0, 20), slice(9, 10)), (slice(15, 20), slice(0, 5))]:
            xs = np.arange(30.0)[np.newaxis, cols]
            ys = np.arange(20.0)[rows, np.newaxis]
            window = sample_at(stack, *mapping(xs, ys), border)
            assert window.tobytes() == full[..., rows, cols].tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_open_grid_non_finite_rejected(self, bad):
        cols = np.array([[0.0, 1.5, 2.0]])
        rows = np.array([[0.5], [1.0]])
        for xs, ys in [(np.where(cols == 1.5, bad, cols), rows), (cols, np.where(rows == 1.0, bad, rows))]:
            with pytest.raises(ValueError, match="finite"):
                sample_at(np.ones((2, 3, 3)), xs, ys, BorderPolicy.ZERO)

    @pytest.mark.parametrize("s", [0.7, 1.0, 1.6])
    @pytest.mark.parametrize("border", list(BorderPolicy))
    def test_stack_transform_equals_per_channel(self, rng, s, border):
        stack = rng.normal(size=(2, 3, 16, 20))
        out = scale_transform_stack(stack, s, border=border)
        per_channel = np.stack([scale_transform(ch, s, border=border) for ch in stack.reshape(-1, 16, 20)])
        assert np.array_equal(out, per_channel.reshape(stack.shape))

    def test_stack_transform_samples_once(self, rng, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return sample_at(*args, **kwargs)

        monkeypatch.setattr(resample, "sample_at", counting)
        scale_transform_stack(rng.normal(size=(4, 24, 30)), 0.8, border=BorderPolicy.ZERO)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        ("border", "s"),
        [pytest.param(b, 0.8, id=str(b)) for b in BorderPolicy]
        + [pytest.param(b, 0.6, id=f"{b}-0.6") for b in BorderPolicy],
    )
    def test_stack_transform_peak_memory_is_output_plus_slices(self, rng, border, s):
        # Allowed: the output and six zero-ringed slices. The separable kernel
        # keeps about five (the source rows read, three blends, a copy for the
        # ring); a zero-ringed copy of the whole stack, 16 slices, does not fit.
        stack = rng.normal(size=(16, 192, 640))
        limit = stack.nbytes + 6 * 194 * 642 * 8
        tracemalloc.start()
        try:
            scale_transform_stack(stack, s, border=border)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit

    @pytest.mark.parametrize("border", list(BorderPolicy))
    def test_peak_memory_is_output_plus_coordinates_plus_blocks(self, rng, border):
        # Allowed: the output, a copy of each coordinate array, the zero-ringed
        # grid for ZERO, and 32 arrays of BLOCK_POINTS doubles (one block's
        # temporaries are about twenty).
        image = rng.uniform(size=(1024, 1024))
        xs = rng.uniform(-3, 1026, size=image.shape)
        ys = rng.uniform(-3, 1026, size=image.shape)
        output = coords = image.nbytes
        ring = image.nbytes if border is BorderPolicy.ZERO else 0
        limit = output + 2 * coords + ring + 32 * 8 * resample.BLOCK_POINTS
        tracemalloc.start()
        try:
            sample_at(image, xs, ys, border)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit
