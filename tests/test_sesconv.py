import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from seslab import (
    BorderPolicy,
    ConfigError,
    LayerSpec,
    SeslabError,
    ShapeError,
    StackSpec,
    build_basis,
    build_stack,
    combine,
    conv2d,
    relu,
    scale_matched_residue,
    scale_projection,
    scale_set_from_alpha,
    se_norm,
    ses_conv_input,
    ses_conv_scalewise,
    single_scale_residue,
    synth_image,
)
from seslab import conv, grid, sesconv
from seslab.errors import dump, load
from seslab.sesconv import KINDS, check_stack_fits, paper_scale_gains

from oracles import combine_loops, norm_twopass_loops


@pytest.fixture(scope="module")
def small_basis():
    return build_basis(scale_set_from_alpha(0.1, 3).scaled(2.0), max_order=2, k=5)


class TestCombine:
    def test_one_hot_selects_basis_member(self, small_basis):
        weights = np.zeros((2, 3, small_basis.num_basis))
        weights[:, :, 4] = 1.0
        bank = combine(weights, small_basis)
        for si in range(3):
            for o in range(2):
                for c in range(3):
                    assert np.array_equal(bank.kernels[si, o, c], small_basis.filters[si, 4])

    def test_zero_weights_zero_kernels(self, small_basis):
        bank = combine(np.zeros((1, 1, small_basis.num_basis)), small_basis)
        assert np.all(bank.kernels == 0.0)

    def test_matches_loop_oracle(self, rng, small_basis):
        weights = rng.standard_normal((2, 2, small_basis.num_basis))
        bank = combine(weights, small_basis)
        ref = combine_loops(weights, small_basis.filters)
        assert np.abs(bank.kernels - ref).max() <= 1e-12

    def test_gains_match_loop_oracle(self, rng, small_basis):
        weights = rng.standard_normal((2, 2, small_basis.num_basis))
        gains = paper_scale_gains(small_basis.sigmas)
        bank = combine(weights, small_basis, scale_gains=gains)
        ref = combine_loops(weights, small_basis.filters, gains)
        assert np.abs(bank.kernels - ref).max() <= 1e-12
        assert bank.gain(2) == 1.0
        assert bank.gain(0) == pytest.approx(1.2)
        with pytest.raises(IndexError):  # gain(3) was gain(0)
            bank.gain(3)

    def test_linear_in_weights(self, rng, small_basis):
        w1 = rng.standard_normal((2, 1, small_basis.num_basis))
        w2 = rng.standard_normal((2, 1, small_basis.num_basis))
        lhs = combine(0.5 * w1 + 2.0 * w2, small_basis).kernels
        rhs = 0.5 * combine(w1, small_basis).kernels + 2.0 * combine(w2, small_basis).kernels
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_dimension_mismatch(self, rng, small_basis):
        with pytest.raises(ShapeError, match="basis members"):
            combine(rng.uniform(size=(1, 1, 7)), small_basis)

    def test_gain_count_mismatch(self, rng, small_basis):
        with pytest.raises(ShapeError, match="scale gains"):
            combine(rng.uniform(size=(1, 1, 9)), small_basis, scale_gains=(1.0, 2.0))


class TestSesConvInput:
    def test_single_scale_equals_vanilla(self, rng):
        basis = build_basis(scale_set_from_alpha(0.1, 1).scaled(2.0), 2, 5)
        bank = combine(rng.standard_normal((3, 2, 9)), basis)
        image = rng.uniform(size=(2, 10, 11))
        out = ses_conv_input(image, bank)
        assert out.shape == (1, 3, 10, 11)
        assert np.array_equal(out[0], conv2d(image, bank.kernels[0]))

    def test_odd_members_give_zero_response_on_constant(self, small_basis):
        # members with odd n or odd m have exactly zero DC by parity
        odd_indices = [i for i, (n, m) in enumerate(small_basis.orders) if n % 2 or m % 2]
        weights = np.zeros((1, 1, small_basis.num_basis))
        for i in odd_indices:
            weights[0, 0, i] = 0.7
        bank = combine(weights, small_basis)
        out = ses_conv_input(np.full((1, 12, 12), 3.0), bank)
        interior = out[:, :, 3:-3, 3:-3]
        assert np.abs(interior).max() <= 1e-10

    def test_scale_axis_layout(self, rng, small_basis):
        bank = combine(rng.standard_normal((2, 1, small_basis.num_basis)), small_basis)
        image = rng.uniform(size=(1, 9, 9))
        out = ses_conv_input(image, bank)
        assert out.shape == (3, 2, 9, 9)
        for si in range(3):
            assert np.array_equal(out[si], conv2d(image, bank.kernels[si]))

    # Every first-layer shape of the suite and the benchmark: (O, k, max_order, H, W)
    # of the reference stack (1 -> 4, k=11) and the wide stack (1 -> 16, k=5) at
    # the sizes they run and at the calibration probe's 96x96.
    @pytest.mark.parametrize(
        "out_ch, k, max_order, h, w",
        [(4, 11, 3, 96, 320), (4, 11, 3, 96, 96), (16, 5, 2, 192, 640), (16, 5, 2, 96, 96)],
    )
    @pytest.mark.parametrize("num_scales", [1, 2, 3])
    def test_fused_scales_equal_per_scale_conv2d_bitwise(self, rng, num_scales, out_ch, k, max_order, h, w):
        # One conv2d runs all S*O kernels. BLAS does not promise that a row's
        # value is independent of the GEMM's row count, so check it bitwise.
        sigmas = scale_set_from_alpha(0.1, num_scales).scaled(sesconv.DEFAULT_BASE_SIGMA)
        basis = build_basis(sigmas, max_order, k)
        bank = combine(rng.uniform(-1, 1, (out_ch, 1, basis.num_basis)), basis, paper_scale_gains(sigmas))
        image = rng.uniform(size=(1, h, w))
        out = ses_conv_input(image, bank)
        for si in range(num_scales):
            assert np.array_equal(out[si], conv2d(image, bank.kernels[si]))


class TestSesConvScalewise:
    def test_no_scale_mixing(self, rng, small_basis):
        bank = combine(rng.standard_normal((2, 2, small_basis.num_basis)), small_basis)
        x = rng.standard_normal((3, 2, 8, 8))
        out = ses_conv_scalewise(x, bank)
        for si in range(3):
            assert np.array_equal(out[si], conv2d(x[si], bank.kernels[si]))

    def test_slice_independence(self, rng, small_basis):
        bank = combine(rng.standard_normal((2, 2, small_basis.num_basis)), small_basis)
        x = rng.standard_normal((3, 2, 8, 8))
        out = ses_conv_scalewise(x, bank)
        y = x.copy()
        y[1] = rng.standard_normal((2, 8, 8))
        out2 = ses_conv_scalewise(y, bank)
        assert np.array_equal(out[0], out2[0])
        assert np.array_equal(out[2], out2[2])
        assert not np.array_equal(out[1], out2[1])

    def test_two_layers_equal_per_slice_composition(self, rng, small_basis):
        bank1 = combine(rng.standard_normal((4, 2, small_basis.num_basis)), small_basis)
        bank2 = combine(rng.standard_normal((3, 4, small_basis.num_basis)), small_basis)
        x = rng.standard_normal((3, 2, 9, 9))
        stacked = ses_conv_scalewise(ses_conv_scalewise(x, bank1), bank2)
        for si in range(3):
            direct = conv2d(conv2d(x[si], bank1.kernels[si]), bank2.kernels[si])
            assert np.abs(stacked[si] - direct).max() <= 1e-12

    def test_scale_count_mismatch(self, rng, small_basis):
        bank = combine(rng.standard_normal((2, 2, small_basis.num_basis)), small_basis)
        with pytest.raises(ShapeError, match="scales"):
            ses_conv_scalewise(rng.standard_normal((2, 2, 8, 8)), bank)

    @pytest.mark.parametrize("k, max_order", [(1, 0), (5, 2)])
    def test_public_convs_leave_their_inputs_untouched(self, rng, k, max_order):
        # C == O, the channel plan a forward convolves in place.
        basis = build_basis(scale_set_from_alpha(0.1, 3).scaled(2.0), max_order, k)
        bank = combine(rng.standard_normal((2, 2, basis.num_basis)), basis)
        image, x = rng.standard_normal((2, 9, 11)), rng.standard_normal((3, 2, 9, 11))
        image_before, x_before = image.copy(), x.copy()
        outputs = ses_conv_input(image, bank), ses_conv_scalewise(x, bank)
        assert np.array_equal(image, image_before) and np.array_equal(x, x_before)
        assert not any(np.shares_memory(out, arg) for out in outputs for arg in (image, x))


class TestScaleProjection:
    def test_equal_slices_pass_through(self, rng):
        slice_ = rng.standard_normal((2, 6, 6))
        x = np.stack([slice_, slice_, slice_])
        assert np.array_equal(scale_projection(x), slice_)

    def test_single_scale_squeeze(self, rng):
        x = rng.standard_normal((1, 3, 5, 5))
        assert np.array_equal(scale_projection(x), x[0])

    def test_single_scale_is_a_copy_of_the_max(self, rng):
        # The next layer overwrites x in place, so the projection must own its values.
        x = rng.standard_normal((1, 3, 5, 5))
        x[0, 0, 0, :3] = (-0.0, np.nan, -np.inf)
        out = scale_projection(x)
        assert out.tobytes() == x[0].tobytes() == x.max(axis=0).tobytes()
        assert not np.shares_memory(out, x)
        view = x[:, :, 1:, ::2]  # a strided view projects to its own values too
        assert scale_projection(view).tobytes() == view.max(axis=0).tobytes()

    def test_max_semantics(self):
        x = np.array([-1.0, 0.0, 2.0]).reshape(3, 1, 1, 1)
        assert scale_projection(x)[0, 0, 0] == 2.0

    def test_dominates_every_slice(self, rng):
        x = rng.standard_normal((3, 2, 7, 7))
        proj = scale_projection(x)
        for si in range(3):
            assert (proj >= x[si]).all()

    def test_idempotent_under_duplication(self, rng):
        x = rng.standard_normal((3, 2, 5, 5))
        doubled = np.concatenate([x, x])
        assert np.array_equal(scale_projection(doubled), scale_projection(x))


class TestSeNorm:
    def test_constant_input_maps_to_zero(self):
        out = se_norm(np.full((2, 3, 5, 5), 4.2))
        assert np.abs(out).max() <= 1e-9

    def test_normalization_identity(self, rng):
        x = 3.0 + 25.0 * rng.standard_normal((3, 4, 12, 12))
        out = se_norm(x)
        for c in range(4):
            vals = out[:, c]
            assert abs(vals.mean()) <= 1e-10
            assert abs(vals.var() - 1.0) <= 1e-6

    def test_matches_two_pass_oracle(self, rng):
        x = rng.standard_normal((2, 3, 7, 9))
        assert np.abs(se_norm(x) - norm_twopass_loops(x, True)).max() <= 1e-10

    def test_commutes_bit_exactly_with_circular_shift(self, rng):
        x = rng.standard_normal((3, 2, 8, 10))
        for shift in [(3, 0), (0, 7), (2, 5)]:
            rolled = np.roll(x, shift, axis=(2, 3))
            assert np.array_equal(se_norm(rolled), np.roll(se_norm(x), shift, axis=(2, 3)))

    def test_input_left_unchanged(self, rng):
        x = rng.standard_normal((2, 3, 6, 7))
        before = x.copy()
        out = se_norm(x)
        assert np.array_equal(x, before)
        assert not np.shares_memory(out, x)

    @pytest.mark.parametrize(
        "bad", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]], ids=["nan", "+inf", "-inf", "+inf-inf"]
    )
    def test_non_finite_value_is_seslab_error_naming_the_channel(self, rng, bad):
        x = rng.standard_normal((2, 3, 4, 4))
        x[1, 2, 0, : len(bad)] = bad
        with pytest.raises(SeslabError, match="channel 2"):
            se_norm(x)

    def test_overflowing_square_sum_is_seslab_error_naming_the_channel(self):
        x = np.zeros((1, 2, 2, 2))
        x[0, 1] = [[1e200, -1e200], [2.0, 3.0]]  # finite mean, squares past the range
        with pytest.raises(SeslabError, match="channel 1"):
            se_norm(x)


# Values whose sums cannot overflow, subnormals and signed zeros included, and
# at most one value of each sign from the top binade [2**1023, 1.797e308].
MODERATE = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072009e-308]),
)
TOP = st.floats(min_value=2.0**1023, max_value=1.7976931348623157e308)


@st.composite
def finite_vectors(draw):
    values = draw(st.lists(MODERATE, max_size=200))
    values += draw(st.lists(TOP, max_size=1)) + [-v for v in draw(st.lists(TOP, max_size=1))]
    return draw(st.permutations(values))


def same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestExactSum:
    @settings(max_examples=300, deadline=None)
    @given(finite_vectors())
    @example([1.0, 2.0**-53])  # a tie, rounded to even (down)
    @example([1.0 + 2.0**-52, 2.0**-53])  # a tie, rounded to even (up)
    @example([1.0, 2.0**-53, 2.0**-1074])  # just past a tie
    @example([-0.0, -0.0])
    @example([5e-324] * 7 + [-2.2250738585072014e-308])
    @example([1.7976931348623157e308, -1.7976931348623157e308, 1.0, 2.0**-1074])
    @example([1e150, 1e-300, -1e150, 3.0])
    # finite, but the positive bin sums alone pass the float64 range
    @example([8.929238260162874e299] + [8.929238459746905e299] * 2 + [-(2.0**1023), 1.7976931080746007e308])
    def test_equals_fsum_bit_for_bit(self, values):
        try:
            ref = math.fsum(values)
        except OverflowError:  # fsum's running sum overflowed in this order
            assume(False)
        assert same_bits(sesconv._exact_sum(np.array(values, dtype=np.float64)), ref)

    @pytest.mark.parametrize("block, count", [(4, 8), (8, 8), (3, 9)])
    def test_blocks_and_runs_equal_fsum(self, rng, monkeypatch, block, count):
        monkeypatch.setattr(sesconv, "_SUM_BLOCK", block)
        monkeypatch.setattr(sesconv, "_EXACT_COUNT", count)
        for size in (1, count - 1, count, 5 * count + 2):
            values = rng.standard_normal(size) * 2.0 ** rng.integers(-1074, 900, size)
            assert same_bits(sesconv._exact_sum(values), math.fsum(values.tolist()))

    def test_a_channel_set_of_several_blocks_equals_fsum(self, rng):
        values = rng.standard_normal(3 * sesconv._SUM_BLOCK + 5) * np.exp(rng.uniform(-40, 40))
        assert same_bits(sesconv._exact_sum(values), math.fsum(values.tolist()))

    @pytest.mark.parametrize(
        "values",
        [[np.nan, 1.0], [np.inf], [-np.inf, 1.0], [np.inf, -np.inf], [1.6e308, 1.6e308], [1.6e308, 1e308]],
    )
    def test_non_finite_or_overflowing_sum_is_not_finite(self, values):
        with np.errstate(invalid="ignore"):
            assert not math.isfinite(sesconv._exact_sum(np.array(values)))

    @pytest.mark.parametrize("kind", ["ses", "vanilla"])
    @pytest.mark.parametrize(
        "layers, max_order",
        [((LayerSpec(4, 11),) * 4, 3), ((LayerSpec(16, 5),) * 2, 2)],
        ids=["reference", "wide"],
    )
    def test_stack_norm_stats_hash_as_with_fsum(self, monkeypatch, kind, layers, max_order):
        spec = StackSpec(kind=kind, layers=layers, max_order=max_order, seed=4)

        def digest(stack):
            return hashlib.sha256(b"".join(a.tobytes() for stats in stack.norm_stats for a in stats)).digest()

        exact = digest(build_stack(spec))
        monkeypatch.setattr(sesconv, "_exact_sum", lambda flat: math.fsum(flat.tolist()))
        assert exact == digest(build_stack(spec))


def test_relu_rectifies_in_place(rng):
    x = rng.standard_normal((2, 3, 5, 5))
    expected = np.maximum(x, 0.0)
    assert relu(x) is x
    assert np.array_equal(x, expected)


class TestTranslationEquivariance:
    def test_pipeline_commutes_with_circular_shifts(self, rng, small_basis):
        bank1 = combine(rng.standard_normal((2, 1, small_basis.num_basis)), small_basis)
        bank2 = combine(rng.standard_normal((2, 2, small_basis.num_basis)), small_basis)
        image = rng.uniform(size=(1, 12, 16))
        shift = (4, 6)

        def pipeline(img):
            x = ses_conv_input(img, bank1, BorderPolicy.CIRCULAR)
            x = se_norm(x)
            x = np.maximum(x, 0.0)
            x = ses_conv_scalewise(x, bank2, BorderPolicy.CIRCULAR)
            return scale_projection(x)

        rolled = np.roll(image, shift, axis=(1, 2))
        lhs = pipeline(rolled)
        rhs = np.roll(pipeline(image), shift, axis=(1, 2))
        assert np.array_equal(lhs, rhs)


class TestStack:
    @pytest.mark.parametrize(
        ("layers", "message"),
        [
            ((LayerSpec(1, 1000001),), r"^a basis of k 1000001 \(3 scales of 16 1000001x1000001 filters\)"),
            ((LayerSpec(64, 501),) * 2, r"^layer 2 of k 501 \(the bases, \[S, O, C, k, k\] kernels and coefficients"),
            ((LayerSpec(1000000, 5), LayerSpec(1, 5)), r"^the calibration forward of layers 1\.\.1 on a 96x96 probe"),
        ],
        ids=["k-1000001", "two-64-channel-k-501", "calibration-of-1000000-channels"],
    )
    def test_weights_too_large_for_memory_are_refused_before_any_basis(self, monkeypatch, layers, message):
        # They used to raise MemoryError; a refusal of build_basis must not
        # reach build_stack's base_sigma re-wrap. The 501 kernels plan 25.3 GB,
        # so the machine is taken to have 16 GiB. The 1000000-channel weights
        # fit in 1.5 GB, but the calibration forward's maps take 442 GB.
        monkeypatch.setattr(grid.os, "sysconf", lambda name: 4096 if name == "SC_PAGE_SIZE" else 1 << 22)
        monkeypatch.setattr(sesconv, "build_basis", lambda *args, **kwargs: pytest.fail("a basis was built"))
        with pytest.raises(ConfigError, match=message):
            build_stack(StackSpec(layers=layers))

    def test_weight_count_independent_of_scales(self):
        counts = []
        for num_scales in (1, 2, 3):
            spec = StackSpec(layers=(LayerSpec(4, 7), LayerSpec(4, 7)), num_scales=num_scales, max_order=2)
            counts.append(build_stack(spec).weight_count)
        assert counts[0] == counts[1] == counts[2]

    def test_single_layer_single_scale_matches_vanilla_bitwise(self):
        spec = StackSpec(kind="ses", layers=(LayerSpec(3, 7),), num_scales=1, max_order=2, seed=5)
        image = synth_image("gaussian-blobs", 24, 24, seed=2)
        ses_out = build_stack(spec).forward(image)
        van_out = build_stack(replace(spec, kind="vanilla")).forward(image)
        assert len(ses_out) == len(van_out) == 1
        assert np.array_equal(ses_out[0], van_out[0])

    def test_deep_single_scale_matches_vanilla_bitwise(self):
        spec = StackSpec(
            kind="ses",
            layers=(LayerSpec(3, 5), LayerSpec(2, 5), LayerSpec(2, 5)),
            num_scales=1,
            max_order=2,
            seed=5,
        )
        image = synth_image("gaussian-blobs", 24, 24, seed=2)
        ses_out = build_stack(spec).forward(image)
        van_out = build_stack(replace(spec, kind="vanilla")).forward(image)
        for a, b in zip(ses_out, van_out):
            assert np.array_equal(a, b)

    def test_forward_deterministic(self):
        spec = StackSpec(layers=(LayerSpec(2, 7), LayerSpec(2, 7)), max_order=2)
        image = synth_image("gaussian-blobs", 32, 32, seed=1)
        a = build_stack(spec).forward(image)
        b = build_stack(spec).forward(image)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_block_shapes_follow_channel_plan(self):
        spec = StackSpec(layers=(LayerSpec(3, 7), LayerSpec(5, 7), LayerSpec(2, 7)), max_order=2)
        blocks = build_stack(spec).forward(synth_image("gaussian-blobs", 20, 28, seed=0))
        assert [b.shape for b in blocks] == [(3, 20, 28), (5, 20, 28), (2, 20, 28)]

    def test_kinds_share_weights(self):
        spec = StackSpec(layers=(LayerSpec(2, 7), LayerSpec(2, 7)), max_order=2, seed=9)
        ses = build_stack(spec)
        van = build_stack(replace(spec, kind="vanilla"))
        for a, b in zip(ses.banks, van.banks):
            assert np.array_equal(a.weights, b.weights)

    @pytest.mark.parametrize(
        "layers, max_order", [(StackSpec().layers, 3), ((LayerSpec(16, 5),) * 2, 2)], ids=["reference", "wide"]
    )
    def test_vanilla_banks_are_the_ses_banks_at_their_largest_scale(self, layers, max_order):
        spec = StackSpec(layers=layers, max_order=max_order, seed=7)
        ses, van = build_stack(spec), build_stack(replace(spec, kind="vanilla"))
        for a, b in zip(ses.banks, van.banks):
            assert b.num_scales == b.basis.num_scales == 1
            assert b.basis.sigmas.sigmas == a.basis.sigmas.sigmas[-1:] and b.scale_gains == (1.0,)
            assert b.kernels.tobytes() == a.kernels[-1:].tobytes()
            assert b.basis.filters.tobytes() == a.basis.filters[-1:].tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "layers, max_order",
        [
            (StackSpec().layers, 3),
            ((LayerSpec(16, 5),) * 2, 2),
            ((LayerSpec(3, 3), LayerSpec(3, 5), LayerSpec(3, 7, "none")), 1),
        ],
        ids=["reference", "wide", "mixed-k"],
    )
    def test_plan_covers_the_build_peak(self, kind, layers, max_order):
        # The plan counts each kind's own banks and the calibration forward,
        # which it missed: both stacks' peaks were over ten times their plans.
        spec = StackSpec(kind=kind, layers=layers, max_order=max_order)
        build_stack(spec)
        tracemalloc.start()
        try:
            build_stack(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * check_stack_fits(spec)

    @pytest.mark.parametrize("window", [None, grid.crop_window((96, 320), 0.1)], ids=["frame", "crop"])
    @pytest.mark.parametrize(
        "layers, max_order",
        [
            (StackSpec().layers, 3),
            ((LayerSpec(16, 5),) * 2, 2),
            ((LayerSpec(3, 3), LayerSpec(3, 5), LayerSpec(3, 7, "none")), 1),
        ],
        ids=["reference", "wide", "mixed-k"],
    )
    def test_slice_loop_count_covers_its_peak(self, layers, max_order, window):
        # Every scale slice through every layer, as a forward runs them: one
        # buffer for the widest layer and one conv2d's scratch at a time.
        stack = build_stack(StackSpec(layers=layers, max_order=max_order))
        image = synth_image("bandlimited-noise", 96, 320, seed=0)
        tracemalloc.start()
        try:
            for _ in sesconv._layers(stack.spec, stack.banks, image, stack.norm_stats, window):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * sesconv.slice_loop_values(layers, 96, 320)

    @pytest.mark.parametrize("kind", KINDS)
    def test_crop_forward_holds_no_copy_of_the_last_layer_input(self, kind):
        # The last layer convolves each slice straight into its block, from the
        # one slice buffer, so the forward holds the blocks, that buffer and one
        # row block's patch and accumulators. A copy of the last layer's input
        # (2.7 MB) took it past that.
        stack = build_stack(StackSpec(kind=kind, layers=(LayerSpec(16, 5),) * 2, max_order=2))
        image = synth_image("bandlimited-noise", 96, 320, seed=0)
        window = grid.crop_window(image.shape, 0.1)
        tracemalloc.start()
        try:
            blocks = stack.forward(image, window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        slice_map = 8 * 16 * math.prod(s.stop - s.start + 4 for s in window)  # layer 1, 2 px past the window
        assert peak <= sum(block.nbytes for block in blocks) + slice_map + 3 * conv.BLOCK_BYTES

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            StackSpec(kind="dilated")
        with pytest.raises(ConfigError, match="layer"):
            StackSpec(layers=())
        with pytest.raises(ConfigError, match="nonlinearity"):
            StackSpec(layers=(LayerSpec(2, 7, "tanh"),))
        with pytest.raises(ConfigError, match="max_order"):
            StackSpec(layers=(LayerSpec(2, 3),), max_order=4)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "layers, max_order, h, w, budget",
        [
            pytest.param(StackSpec().layers, 3, 96, 320, conv.BLOCK_BYTES, id="reference"),
            pytest.param((LayerSpec(16, 5), LayerSpec(16, 5)), 2, 96, 320, conv.BLOCK_BYTES, id="wide"),
            pytest.param(
                (LayerSpec(3, 5), LayerSpec(5, 5, "none"), LayerSpec(5, 3), LayerSpec(2, 5)),
                1, 40, 56, conv.BLOCK_BYTES, id="channels-change",
            ),
            # The k=1 layers run in 4-row blocks over 30 rows, the last one overlapping.
            pytest.param(
                (LayerSpec(3, 3), LayerSpec(3, 1), LayerSpec(3, 1, "none"), LayerSpec(2, 3)),
                0, 30, 40, 8 * 3 * 40 * 4, id="k1-keeps-channels",
            ),
        ],
    )
    def test_in_place_forward_equals_out_of_place_bitwise(
        self, monkeypatch, kind, layers, max_order, h, w, budget
    ):
        monkeypatch.setattr(conv, "BLOCK_BYTES", budget)
        stack = build_stack(StackSpec(kind=kind, layers=layers, max_order=max_order, seed=3))
        image = synth_image("gaussian-blobs", h, w, seed=4)
        expected = _forward_out_of_place(stack, image)
        blocks = stack.forward(image)
        assert len(blocks) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(blocks, expected))

    def test_forward_leaves_input_unchanged(self):
        stack = build_stack(StackSpec(layers=(LayerSpec(2, 5), LayerSpec(2, 5)), max_order=2))
        image = synth_image("gaussian-blobs", 24, 32, seed=3)
        before = image.copy()
        blocks = stack.forward(image)
        assert np.array_equal(image, before)
        assert not any(np.shares_memory(b, image) for b in blocks)

    def test_wide_forward_memory_is_bounded_by_one_feature_map(self):
        # The equiv-wide stack, 2 layers of (16 channels, k=5) and 3 scales, at 96x320.
        spec = StackSpec(layers=(LayerSpec(16, 5), LayerSpec(16, 5)), max_order=2)
        stack = build_stack(spec)
        image = synth_image("bandlimited-noise", 96, 320, seed=0)
        tracemalloc.start()
        try:
            stack.forward(image)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        scale_map = 8 * 3 * 16 * 96 * 320  # one [S, C, H, W] feature map
        blocks = 2 * 8 * 16 * 96 * 320
        padded = 8 * 16 * (96 + 4) * (320 + 4)
        conv_block = 3 * conv.BLOCK_BYTES  # a row block's patch and its two accumulators
        # One feature map, both blocks, one padded slice and one conv row block:
        # about 24 MiB. A second map, such as a fresh output for the second layer
        # or a norm or ReLU temporary, would add 11 MiB.
        assert peak <= scale_map + blocks + padded + conv_block

    @pytest.mark.parametrize("window", [None, grid.crop_window((192, 640), 0.1)], ids=["frame", "crop"])
    def test_wide_forward_holds_one_scale_slice(self, window):
        # The equiv-wide stack at 192x640, on the frame and on its crop window,
        # whose layer 1 writes a 158x516 box. Holding every scale slice's map,
        # as the [S, C, h, w] forward did, adds two more slices (20-31 MB).
        stack = build_stack(StackSpec(layers=(LayerSpec(16, 5), LayerSpec(16, 5)), max_order=2))
        image = synth_image("bandlimited-noise", 192, 640, seed=0)
        h, w = (192, 640) if window is None else (158, 516)
        tracemalloc.start()
        try:
            blocks = stack.forward(image, window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert blocks[0].shape == (16, *image[(..., *(window or (slice(None),) * 2))].shape)
        scale_slice = 8 * 16 * h * w
        scratch = 8 * max(conv.conv2d_scratch(c, 16, 5, h, w) for c in (1, 16))
        assert peak <= scale_slice + scratch + sum(block.nbytes for block in blocks) + 2**16

    def test_json_roundtrip(self):
        spec = StackSpec(kind="vanilla", layers=(LayerSpec(3, 9, "none"),), alpha=0.2, seed=4)
        back = load(StackSpec, dump(spec))
        assert back == spec

    def test_unknown_json_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            load(StackSpec, {"kind": "ses", "dropout": 0.5})


# Layers of the calibration stacks: the first n of these, for n = 1, 2 and 4.
CALIBRATION_LAYERS = (LayerSpec(3, 5), LayerSpec(5, 3), LayerSpec(2, 5), LayerSpec(4, 3))


def _full_depth_statistics(stack):
    """Per-channel (mean, var) of every layer's output, the last included, as a
    full forward of the probe gives them: one conv2d per scale slice, each norm
    from the statistics of its own input, every sum by math.fsum."""
    probe = synth_image("gaussian-blobs", sesconv.CALIBRATION_SIZE, sesconv.CALIBRATION_SIZE, seed=stack.spec.seed)
    x = np.stack([conv2d(probe[np.newaxis], k) for k in stack.banks[0].kernels])
    stats = []
    for i, bank in enumerate(stack.banks[1:] + (None,), start=1):
        means, variances = [], []
        for c in range(x.shape[1]):
            values = x[:, c].ravel()
            mean = math.fsum(values.tolist()) / values.size
            centered = values - mean
            means.append(mean)
            variances.append(math.fsum((centered * centered).tolist()) / values.size)
        stats.append((np.array(means), np.array(variances)))
        if bank is None:
            return stats
        x = (x - stats[-1][0].reshape(1, -1, 1, 1)) / np.sqrt(stats[-1][1] + 1e-5).reshape(1, -1, 1, 1)
        if stack.spec.layers[i].nonlinearity == "relu":
            x = np.maximum(x, 0.0)
        x = np.stack([conv2d(x_s, k) for x_s, k in zip(x, bank.kernels)])


class TestCalibration:
    """build_stack computes only what its frozen norms read: the statistics of
    layers 1..n-1 on the probe, with no last-layer conv and no projection."""

    @pytest.mark.parametrize("num_scales", [1, 3])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", KINDS)
    def test_conv2d_calls(self, monkeypatch, kind, depth, num_scales):
        spec = StackSpec(kind=kind, layers=CALIBRATION_LAYERS[:depth], num_scales=num_scales, max_order=1)
        count = []
        real = sesconv.conv2d
        monkeypatch.setattr(sesconv, "conv2d", lambda *args, **kwargs: count.append(1) or real(*args, **kwargs))
        monkeypatch.setattr(sesconv, "scale_projection", lambda x: pytest.fail("calibration projected a map"))
        build_stack(spec)
        # One conv2d per scale for each of layers 1..n-1.
        scales = num_scales if kind == "ses" else 1
        assert len(count) == scales * (depth - 1)

    @pytest.mark.parametrize("nonlinearity", ["relu", "none"])
    @pytest.mark.parametrize("depth", [1, 2, 4])
    @pytest.mark.parametrize("kind", KINDS)
    def test_norm_stats_equal_a_full_depth_forward_bitwise(self, kind, depth, nonlinearity):
        layers = tuple(replace(layer, nonlinearity=nonlinearity) for layer in CALIBRATION_LAYERS[:depth])
        stack = build_stack(StackSpec(kind=kind, layers=layers, max_order=1, seed=6))
        expected = _full_depth_statistics(stack)
        assert len(stack.norm_stats) == len(expected) - 1 == depth - 1
        for (mean, var), (ref_mean, ref_var) in zip(stack.norm_stats, expected):
            assert mean.tobytes() == ref_mean.tobytes()
            assert var.tobytes() == ref_var.tobytes()

    @pytest.mark.parametrize(
        "kind, bound",
        # Measured peaks 4.66 and 2.28 MiB; a full calibration forward peaked at
        # 6.74 and 4.49 MiB.
        [("ses", 5 * 2**20), ("vanilla", 2.6 * 2**20)],
    )
    def test_wide_build_peak_memory(self, kind, bound):
        # The equiv-wide stack: 2 layers of (16 channels, k=5), max_order 2, 3 scales.
        spec = StackSpec(kind=kind, layers=(LayerSpec(16, 5), LayerSpec(16, 5)), max_order=2)
        build_stack(spec)
        tracemalloc.start()
        try:
            build_stack(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_stack_refuses_norm_stats_not_one_pair_per_later_layer(self, depth):
        # One pair too few raised IndexError on the first forward; extra pairs
        # were ignored.
        stack = build_stack(StackSpec(layers=CALIBRATION_LAYERS[:depth], max_order=1))
        pair = (np.zeros(CALIBRATION_LAYERS[0].out_channels),) * 2
        bad = [stack.norm_stats + (pair,)]
        if depth > 1:
            bad.append(stack.norm_stats[:-1])
            mean, var = stack.norm_stats[0]
            bad.append(((mean[:-1], var),) + stack.norm_stats[1:])
        for norm_stats in bad:
            with pytest.raises(ShapeError, match="norm_stats must hold one"):
                replace(stack, norm_stats=norm_stats)
        replace(stack, norm_stats=stack.norm_stats)  # the built statistics pass


# Layers and max_order of each windowed-forward stack.
WINDOW_STACKS = {
    "mixed-k": ((LayerSpec(3, 3), LayerSpec(3, 5), LayerSpec(3, 7, "none")), 1),
    "channels-change": ((LayerSpec(2, 5), LayerSpec(4, 3), LayerSpec(3, 1), LayerSpec(3, 5)), 0),
}


def _unprojected(stack, image, window=None):
    """Copies of the window of each layer's [S, C, h, w] map, stacked from
    the slices ``_layers`` yields, and whether each yielded slice is a view of
    the buffer of the one before it."""
    slices, reused, last = [[] for _ in stack.banks], [], None
    for i, x, read in sesconv._layers(stack.spec, stack.banks, image, stack.norm_stats, window):
        reused.append(last is not None and np.shares_memory(x, last))
        slices[i].append(x[(..., *read)].copy())
        last = x
    return [np.stack(maps) for maps in slices], reused


class TestWindowedForward:
    """Stack.forward(image, window) runs each layer only where later layers
    read it; every block must equal the window of the whole-image block."""

    @pytest.fixture(scope="class", params=[(k, n) for k in KINDS for n in WINDOW_STACKS], ids=str)
    def stack(self, request):
        kind, name = request.param
        layers, max_order = WINDOW_STACKS[name]
        return build_stack(StackSpec(kind=kind, layers=layers, max_order=max_order, seed=2))

    # Widths of every residue mod 8, so the product widths of each region differ
    # from the whole image's in their tails.
    @pytest.mark.parametrize("w", [33, 41, 50, 59, 64, 75, 86, 101])
    @pytest.mark.parametrize(
        "window",
        [
            (slice(9, 20), slice(10, 25)),  # inside: no region reaches an edge
            (slice(0, 12), slice(3, 30)),  # clipped by the top edge
            (slice(20, 29), slice(-11, None)),  # clipped by the bottom and right edges
            (slice(14, 15), slice(16, 17)),  # one pixel
            (slice(None), slice(None)),  # the whole image
        ],
        ids=["inside", "top", "bottom-right", "pixel", "whole"],
    )
    def test_blocks_equal_the_whole_image_blocks_on_the_window(self, stack, w, window):
        image = synth_image("bandlimited-noise", 29, w, seed=w)
        whole = stack.forward(image)
        blocks = stack.forward(image, window)
        assert len(blocks) == len(whole)
        for block, full in zip(blocks, whole):
            expected = full[(..., *window)]
            assert block.shape == expected.shape and block.tobytes() == expected.tobytes()

    def test_row_blocks_of_every_region_equal_the_whole_image(self, stack, monkeypatch):
        monkeypatch.setattr(conv, "BLOCK_BYTES", 8 * 12 * 60 * 3)  # blocks of a few rows
        image = synth_image("gaussian-blobs", 40, 57, seed=1)
        window = (slice(6, 31), slice(0, 44))
        for block, full in zip(stack.forward(image, window), stack.forward(image)):
            assert np.array_equal(block, full[(..., *window)])

    @pytest.mark.parametrize(
        "window",
        [(slice(9, 20), slice(10, 25)), (slice(0, 12), slice(3, 30)), (slice(20, 29), slice(-11, None))],
        ids=["inside", "top", "bottom-right"],
    )
    def test_unprojected_maps_equal_the_whole_image_maps_on_the_window(self, stack, window):
        # Each layer's [S, C, h, w] map, its slices read before the next
        # layer's norm overwrites them, is the window of the whole-image map
        # bit for bit.
        image = synth_image("bandlimited-noise", 29, 50, seed=5)
        whole, reused = _unprojected(stack, image)
        maps, _ = _unprojected(stack, image, window)
        scales = stack.spec.num_scales if stack.kind == "ses" else 1
        channels = [layer.out_channels for layer in stack.spec.layers]
        assert [m.shape[:2] for m in maps] == [(scales, c) for c in channels]
        for m, full in zip(maps, whole):
            expected = full[(..., *window)]
            assert m.shape == expected.shape and m.tobytes() == expected.tobytes()
        blocks = stack.forward(image, window)
        assert all(scale_projection(m).tobytes() == b.tobytes() for m, b in zip(maps, blocks))
        # Every slice of every layer is written into the forward's one buffer.
        assert reused == [False] + [True] * (scales * len(channels) - 1)

    @pytest.mark.parametrize(
        "window",
        [(slice(0, 10, 2), slice(None)), (slice(5, 5), slice(None)), (slice(0, 4),), (0, slice(None)), [slice(None)] * 2],
        ids=["step", "empty", "one-slice", "index", "list"],
    )
    def test_bad_window_rejected(self, window):
        stack = build_stack(StackSpec(layers=(LayerSpec(2, 3),), max_order=1))
        with pytest.raises(ShapeError, match="window"):
            stack.forward(synth_image("gaussian-blobs", 12, 12, seed=0), window)


class TestForwardOut:
    """Stack.forward(image, window, out) writes the blocks, in order, into the
    leading values of ``out`` and allocates none."""

    WINDOWS = [None, (slice(4, 25), slice(6, 44))]

    @pytest.fixture(scope="class", params=KINDS)
    def stack(self, request):
        layers, max_order = WINDOW_STACKS["channels-change"]
        return build_stack(StackSpec(kind=request.param, layers=layers, max_order=max_order, seed=2))

    @pytest.mark.parametrize("window", WINDOWS, ids=["frame", "crop"])
    @pytest.mark.parametrize("extra", [0, 37], ids=["exact", "longer"])
    def test_blocks_are_the_allocating_forward_in_the_leading_values(self, stack, window, extra):
        image = synth_image("bandlimited-noise", 29, 50, seed=3)
        expected = stack.forward(image, window)
        size = sum(block.size for block in expected)
        out = np.full(size + extra, np.nan)
        blocks = stack.forward(image, window, out=out)
        assert [block.tobytes() for block in blocks] == [block.tobytes() for block in expected]
        assert all(np.shares_memory(block, out) for block in blocks)
        assert out[:size].tobytes() == b"".join(block.tobytes() for block in expected)
        assert np.isnan(out[size:]).all()  # the values past the blocks are left as they were

    @pytest.mark.parametrize("window", WINDOWS, ids=["frame", "crop"])
    def test_values_left_by_a_previous_image_are_overwritten(self, stack, window):
        # A NaN left in out would survive a fold by np.maximum.
        previous = synth_image("gaussian-blobs", 29, 50, seed=4)
        previous[10:20, 12:30] = np.nan
        image = synth_image("bandlimited-noise", 29, 50, seed=3)
        out = np.empty(sum(block.size for block in stack.forward(previous)))
        stack.forward(previous, out=out)
        assert np.isnan(out).any()
        blocks = stack.forward(image, window, out=out)
        assert [block.tobytes() for block in blocks] == [block.tobytes() for block in stack.forward(image, window)]

    @pytest.mark.parametrize(
        "make",
        [
            lambda n, held: np.zeros(n, dtype=np.float32),
            lambda n, held: np.zeros(2 * n)[::2],
            lambda n, held: np.zeros((1, n)),
            lambda n, held: np.zeros(n - 1),
            lambda n, held: [0.0] * n,
            lambda n, held: held,  # long enough, but it holds the image too
        ],
        ids=["float32", "strided", "2-D", "too-short", "list", "image-memory"],
    )
    def test_wrong_out_rejected(self, stack, make):
        pixels = synth_image("gaussian-blobs", 29, 50, seed=3)
        n = sum(block.size for block in stack.forward(pixels))
        held = np.concatenate([pixels.ravel(), np.zeros(n)])
        image = held[: pixels.size].reshape(pixels.shape)
        with pytest.raises(ShapeError, match=f"^out must be a 1-D C-contiguous float64 array of at least {n} values"):
            stack.forward(image, out=make(n, held))


class TestHeadlineResidue:
    def test_matched_kernels_beat_single_scale(self):
        basis = build_basis(scale_set_from_alpha(0.1, 3).scaled(2.0), max_order=6, k=11)
        rng = np.random.default_rng(0)
        bank = combine(
            rng.uniform(-1, 1, (4, 1, 49)) / 11.0,
            basis,
            scale_gains=paper_scale_gains(basis.sigmas),
        )
        image = synth_image("gaussian-blobs", 128, 128, seed=11)
        for i, j in [(0, 2), (1, 2)]:
            s = basis.sigmas.sigmas[i] / basis.sigmas.sigmas[j]
            matched = scale_matched_residue(bank, image, i, j)
            fixed = single_scale_residue(bank, image, s)
            assert matched <= 5e-2
            assert fixed > matched

    @pytest.mark.parametrize(
        "i, j, name",
        [(3, 0, "scale_i"), (0, 3, "scale_j"), (-1, 0, "scale_i"), (1.0, 0, "scale_i"), (0, True, "scale_j")],
    )
    def test_scale_indices_checked(self, small_basis, i, j, name):
        # (3, 0) on a 3-scale bank ended in a bare IndexError
        bank = combine(np.ones((1, 1, small_basis.num_basis)), small_basis)
        with pytest.raises(ShapeError, match=rf"{name} must be an integer in 0\.\.2"):
            scale_matched_residue(bank, synth_image("gaussian-blobs", 32, 32, seed=0), i, j)


def _forward_out_of_place(stack, image):
    """Stack.forward rebuilt from fresh arrays: one conv2d per scale slice and
    a new array for every norm, ReLU and conv output."""
    x = np.stack([conv2d(image[np.newaxis], k, BorderPolicy.ZERO) for k in stack.banks[0].kernels])
    blocks = [x.max(axis=0)]
    for bank, layer, (mean, var) in zip(stack.banks[1:], stack.spec.layers[1:], stack.norm_stats):
        x = (x - mean.reshape(1, -1, 1, 1)) / np.sqrt(var + 1e-5).reshape(1, -1, 1, 1)
        if layer.nonlinearity == "relu":
            x = np.maximum(x, 0.0)
        x = ses_conv_scalewise(x, bank, BorderPolicy.ZERO)
        blocks.append(x.max(axis=0))
    return blocks
