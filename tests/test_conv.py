import tracemalloc

import numpy as np
import pytest

from seslab import BorderPolicy, ShapeError, conv, conv2d

from oracles import conv2d_loops


def test_identity_kernel_reproduces_input(rng):
    image = rng.uniform(size=(1, 9, 12))
    kernel = np.zeros((1, 1, 3, 3))
    kernel[0, 0, 1, 1] = 1.0
    out = conv2d(image, kernel)
    assert np.array_equal(out, image)


def test_matches_triple_loop_oracle_zero_border(rng):
    image = rng.standard_normal((1, 5, 5))
    kernel = rng.standard_normal((1, 1, 3, 3))
    out = conv2d(image, kernel, BorderPolicy.ZERO)
    ref = conv2d_loops(image, kernel, "zero-fill")
    assert np.abs(out - ref).max() <= 1e-12


@pytest.mark.parametrize("border", ["zero-fill", "clamp", "circular"])
def test_matches_oracle_multichannel(rng, border):
    image = rng.standard_normal((3, 6, 7))
    kernels = rng.standard_normal((2, 3, 5, 5))
    out = conv2d(image, kernels, BorderPolicy.coerce(border))
    ref = conv2d_loops(image, kernels, border)
    assert np.abs(out - ref).max() <= 1e-12


def test_constant_field_circular_border():
    image = np.ones((1, 4, 4))
    kernel = np.ones((1, 1, 3, 3))
    out = conv2d(image, kernel, BorderPolicy.CIRCULAR)
    assert np.abs(out - 9.0).max() == 0.0


def test_linearity(rng):
    x = rng.standard_normal((2, 8, 9))
    y = rng.standard_normal((2, 8, 9))
    kernels = rng.standard_normal((3, 2, 3, 3))
    alpha, beta = 0.7, -1.3
    lhs = conv2d(alpha * x + beta * y, kernels)
    rhs = alpha * conv2d(x, kernels) + beta * conv2d(y, kernels)
    assert np.abs(lhs - rhs).max() <= 1e-10


# (O, C, k, H, W). The last two put N mod 8 != 0 columns in each product (N = 724
# and 748), whose tail the BLAS rounds differently from the columns before it.
@pytest.mark.parametrize(
    "out_ch, in_ch, k, h, w", [(4, 2, 5, 10, 12), (16, 16, 5, 48, 100), (16, 16, 5, 64, 90)]
)
def test_circular_shift_commutes_bit_exactly(rng, out_ch, in_ch, k, h, w):
    image = rng.standard_normal((in_ch, h, w))
    kernels = rng.standard_normal((out_ch, in_ch, k, k))
    for shift in [(1, 0), (0, 5), (3, 7)]:
        rolled = np.roll(image, shift, axis=(1, 2))
        lhs = conv2d(rolled, kernels, BorderPolicy.CIRCULAR)
        rhs = np.roll(conv2d(image, kernels, BorderPolicy.CIRCULAR), shift, axis=(1, 2))
        assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize(
    "out_ch, in_ch, k",
    [(16, 16, 5), (4, 4, 11), (5, 7, 7), (1, 16, 5), (3, 2, 1)],
)
def test_column_values_do_not_depend_on_the_width(rng, out_ch, in_ch, k):
    # Every width from k to 140 puts each column at another place in its row
    # block's products, and changes the product widths mod 8.
    image = rng.standard_normal((in_ch, 13, 140))
    kernels = rng.standard_normal((out_ch, in_ch, k, k))
    full = conv2d(image, kernels)
    for w in range(k, 141):
        keep = w - k // 2  # columns whose zero-padded inputs match the full width's
        assert np.array_equal(conv2d(image[:, :, :w], kernels)[:, :, :keep], full[:, :, :keep]), w


@pytest.mark.parametrize("margins", [(0, 0, 0, 0), (2, 0, 1, 2), (0, 2, 2, 0), (1, 1, 0, 1)], ids=str)
@pytest.mark.parametrize("border", ["zero-fill", "clamp", "circular"])
def test_margins_crop_the_same_size_output(rng, margins, border):
    # A side padded by m < k//2 loses k//2 - m output pixels, and the others keep
    # their bits: the padded values they read are the same under every policy.
    image = rng.standard_normal((3, 11, 17))
    kernels = rng.standard_normal((2, 3, 5, 5))
    top, bottom, left, right = margins
    out = conv2d(image, kernels, BorderPolicy.coerce(border), margins=margins)
    same = conv2d(image, kernels, BorderPolicy.coerce(border))
    assert np.array_equal(out, same[:, 2 - top : 11 - 2 + bottom, 2 - left : 17 - 2 + right])
    ref = conv2d_loops(image, kernels, border)[:, 2 - top : 11 - 2 + bottom, 2 - left : 17 - 2 + right]
    assert np.abs(out - ref).max() <= 1e-12


@pytest.mark.parametrize("margins", [(0, 0, 0, 0), (1, 0, 2, 0)], ids=str)
def test_smaller_out_may_share_the_input_buffer(rng, monkeypatch, margins):
    # A forward writes each scale slice's smaller output into the start of that
    # slice's own buffer; blocks of 3 and of 2 rows, the last 2-row one overlapping.
    monkeypatch.setattr(conv, "BLOCK_BYTES", 8 * 4 * 5 * 14 * 3)
    image = rng.standard_normal((4, 10, 14))
    kernels = rng.standard_normal((4, 4, 5, 5))
    expected = conv2d(image, kernels, margins=margins)
    out = image.reshape(-1)[: expected.size].reshape(expected.shape)
    assert conv2d(image, kernels, out=out, margins=margins) is out
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("margins", [None, (0, 0, 0, 0), (1, 0, 2, 0)], ids=str)
@pytest.mark.parametrize("border", ["zero-fill", "clamp", "circular"])
def test_fold_is_a_maximum_into_out_bit_for_bit(rng, monkeypatch, margins, border):
    # 3-row blocks; the last one overlaps its predecessor, so its first rows fold twice.
    monkeypatch.setattr(conv, "BLOCK_BYTES", 8 * 15 * 16 * 3)
    image = rng.standard_normal((3, 10, 12))
    image[1, 4, 5] = np.nan  # NaN results around it
    kernels = rng.standard_normal((4, 3, 5, 5))
    kernels[0] = 0.0  # signed zero results
    border = BorderPolicy.coerce(border)
    result = conv2d(image, kernels, border, margins=margins)
    out = rng.standard_normal(result.shape)
    out.flat[::5], out.flat[1::5], out.flat[2::5] = np.nan, 0.0, -0.0
    expected = np.maximum(out, result, out=out.copy())
    assert conv2d(image, kernels, border, out=out, margins=margins, fold=True) is out
    assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))


def test_unpadded_input_is_not_copied_unless_out_shares_it(rng):
    # At zero margins an out of its own leaves nothing to copy the input for:
    # the peak is a row block's patch and accumulators, not the 4.2 MB input.
    image = rng.standard_normal((16, 64, 512))
    kernels = rng.standard_normal((16, 16, 5, 5))
    margins = (0, 0, 0, 0)
    out = np.empty((16, 60, 508))
    tracemalloc.start()
    try:
        conv2d(image, kernels, out=out, margins=margins)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * conv.BLOCK_BYTES < image.nbytes
    # A strided window is read in place, and an out in the input's own
    # buffer still equals a fresh output.
    window = image[:, 2:-2, 3:-3]
    assert np.array_equal(conv2d(window, kernels, margins=margins), conv2d(window.copy(), kernels, margins=margins))
    shared = image.reshape(-1)[: out.size].reshape(out.shape)
    assert conv2d(image, kernels, out=shared, margins=margins) is shared
    assert np.array_equal(shared, out)


def test_padded_input_is_not_copied(rng):
    # The patch reads the input under the border policy; np.pad's copy of a
    # [16, 96, 320] input took 4.1 MB, past the input's own 3.9 MB.
    image = rng.standard_normal((16, 96, 320))
    kernels = rng.standard_normal((16, 16, 5, 5))
    out = np.empty_like(image)
    for border in BorderPolicy:
        tracemalloc.start()
        try:
            conv2d(image, kernels, border, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * conv.BLOCK_BYTES < image.nbytes, border


def _oracle(image, kernels, border, margins):
    k = kernels.shape[-1]
    top, bottom, left, right = margins
    _, h, w = image.shape
    return conv2d_loops(image, kernels, border)[:, k // 2 - top : h - k // 2 + bottom, k // 2 - left : w - k // 2 + right]


# (C, h, w, k, margins, block budget): each row block reads the input's rows
# in place, or row by row where it reaches past the top or bottom.
PAD_CASES = {
    "one-row": (2, 1, 9, 5, (2, 2, 2, 2), 1 << 19),  # a margin past h, one block reaching both pads
    "one-column": (2, 8, 1, 5, (2, 2, 2, 2), 1 << 19),  # margins past w
    "one-pixel": (1, 1, 1, 5, (2, 2, 2, 2), 1 << 19),
    "both-pads": (3, 3, 6, 7, (3, 3, 1, 3), 1 << 19),  # k past h: the one block reaches both pads
    "margins": (2, 12, 10, 5, (1, 2, 0, 1), 8 * 10 * 11 * 2),  # 2-row blocks, interior and edge
    "one-sided": (2, 12, 10, 5, (0, 2, 2, 0), 8 * 10 * 12 * 3),
    "ragged": (3, 11, 13, 3, (1, 1, 1, 1), 8 * 9 * 15 * 4),  # the last block overlaps
}


@pytest.mark.parametrize("case", PAD_CASES.values(), ids=PAD_CASES.keys())
@pytest.mark.parametrize("border", ["zero-fill", "clamp", "circular"])
def test_padding_read_from_the_input_matches_oracle(rng, monkeypatch, case, border):
    channels, h, w, k, margins, budget = case
    monkeypatch.setattr(conv, "BLOCK_BYTES", budget)
    kernels = rng.standard_normal((channels, channels, k, k))
    image = rng.standard_normal((channels, h, w))
    expected = _oracle(image, kernels, border, margins)
    policy = BorderPolicy.coerce(border)
    out = conv2d(image, kernels, policy, margins=margins)
    assert np.abs(out - expected).max() <= 1e-10
    # A strided, offset window of a larger grid reads the same pixels in place.
    host = np.full((channels + 1, h + 4, 3 * w + 2), np.nan)
    window = host[1:, 2 : 2 + h, 1 : 3 * w + 1 : 3]
    window[...] = image
    assert np.array_equal(conv2d(window, kernels, policy, margins=margins), out)
    # An out in the input's own buffer.
    if out.size <= image.size:
        shared = image.reshape(-1)[: out.size].reshape(out.shape)
        assert conv2d(image, kernels, policy, out=shared, margins=margins) is shared
        assert np.array_equal(shared, out)


@pytest.mark.parametrize(
    "margins",
    [(3, 0, 0, 0), (0, -1, 0, 0), (0, 1.0, 0, 0), (0, 0, 0), (0, 0, 0, 1), (True,) * 4],
    ids=["wide", "negative", "float", "three", "no-column", "bool"],
)
def test_bad_margins_rejected(rng, margins):
    image, kernels = rng.standard_normal((1, 6, 3)), rng.standard_normal((1, 1, 5, 5))
    assert conv2d(image, kernels, margins=(0, 0, 1, 1)).shape == (1, 2, 1)
    with pytest.raises(ShapeError, match="margins"):
        conv2d(image, kernels, margins=margins)


def test_even_kernel_rejected(rng):
    with pytest.raises(ShapeError, match="odd"):
        conv2d(rng.uniform(size=(1, 5, 5)), rng.uniform(size=(1, 1, 4, 4)))


def test_channel_mismatch_names_dimension(rng):
    with pytest.raises(ShapeError, match="channel mismatch.*2.*3"):
        conv2d(rng.uniform(size=(2, 5, 5)), rng.uniform(size=(1, 3, 3, 3)))


def test_rank_errors(rng):
    with pytest.raises(ShapeError, match="rank 3"):
        conv2d(rng.uniform(size=(5, 5)), rng.uniform(size=(1, 1, 3, 3)))
    with pytest.raises(ShapeError, match="rank 4"):
        conv2d(rng.uniform(size=(1, 5, 5)), rng.uniform(size=(1, 3, 3)))


def test_nonsquare_kernel_rejected(rng):
    with pytest.raises(ShapeError, match="square"):
        conv2d(rng.uniform(size=(1, 5, 5)), rng.uniform(size=(1, 1, 3, 5)))


# (out_ch, in_ch, k, h, w) and a block budget. A row block holds at most
# budget // (8 * max(in_ch * k, out_ch) * (w + k - 1)) rows; when the blocks do
# not tile the height, the last one overlaps its predecessor.
BLOCK_CASES = [
    ((16, 1, 5, 13, 11), 8 * 16 * 15 * 3),  # C*k < O: the accumulators bound 3-row blocks
    ((2, 3, 3, 10, 9), 8 * 9 * 11 * 4),  # C*k >= O: the patch bounds 4-row blocks
    ((3, 2, 1, 7, 5), 8 * 3 * 5 * 2),  # k = 1, 2-row blocks
    ((2, 2, 7, 3, 9), 1 << 19),  # shorter than k
    ((2, 1, 9, 6, 4), 1 << 19),  # narrower than k
    ((2, 2, 5, 9, 8), 1),  # one row exceeds the budget
]


@pytest.mark.parametrize(
    "shape, budget, border",
    [
        ((2, 3, 3, 11, 7), 8 * 27 * 7 * 3, "zero-fill"),  # 3-row blocks, a ragged last one
        ((3, 2, 5, 9, 8), 8 * 50 * 8 * 2, "circular"),  # 2-row blocks
        ((1, 2, 7, 6, 5), 8 * 98 * 5 * 4 - 1, "clamp"),  # 3-row blocks
        # The default budget: one-row blocks, each a [16*5, 644] patch of 412 KB.
        pytest.param((1, 16, 5, 3, 640), conv.BLOCK_BYTES, "zero-fill", id="default-budget-one-row-blocks"),
        *[
            (shape, budget, border)
            for shape, budget in BLOCK_CASES
            for border in ("zero-fill", "clamp", "circular")
        ],
    ],
)
def test_row_blocks_match_oracle(rng, monkeypatch, shape, budget, border):
    out_ch, in_ch, k, h, w = shape
    monkeypatch.setattr(conv, "BLOCK_BYTES", budget)
    image = rng.standard_normal((in_ch, h, w))
    kernels = rng.standard_normal((out_ch, in_ch, k, k))
    out = conv2d(image, kernels, BorderPolicy.coerce(border))
    ref = conv2d_loops(image, kernels, border)
    assert np.abs(out - ref).max() <= 1e-10


def test_circular_shift_bit_exact_across_row_blocks(rng):
    image = rng.standard_normal((4, 96, 320))
    kernels = rng.standard_normal((4, 4, 11, 11))
    assert conv.BLOCK_BYTES // (8 * max(4 * 11, 4) * (320 + 11 - 1)) < 96  # several row blocks
    base = conv2d(image, kernels, BorderPolicy.CIRCULAR)
    for shift in [(1, 0), (37, 101), (95, 319)]:
        rolled = np.roll(image, shift, axis=(1, 2))
        lhs = conv2d(rolled, kernels, BorderPolicy.CIRCULAR)
        assert np.array_equal(lhs, np.roll(base, shift, axis=(1, 2)))


@pytest.mark.parametrize("shape, budget", BLOCK_CASES)
def test_circular_shifts_commute_across_row_blocks_into_out_slices(rng, monkeypatch, shape, budget):
    out_ch, in_ch, k, h, w = shape
    monkeypatch.setattr(conv, "BLOCK_BYTES", budget)
    image = rng.standard_normal((in_ch, h, w))
    kernels = rng.standard_normal((out_ch, in_ch, k, k))
    base = conv2d(image, kernels, BorderPolicy.CIRCULAR)
    shifts = [(1, 0), (h // 2, w - 1), (h - 1, 1)]
    stack = np.full((len(shifts) + 1, out_ch, h, w), np.nan)
    for s, shift in enumerate(shifts, start=1):
        rolled, target = np.roll(image, shift, axis=(1, 2)), stack[s]
        assert conv2d(rolled, kernels, BorderPolicy.CIRCULAR, out=target) is target
        assert np.array_equal(target, np.roll(base, shift, axis=(1, 2)))
    assert np.isnan(stack[0]).all()


def test_working_memory_is_bounded_by_the_block_budget(rng):
    in_ch, k, h, w = 16, 5, 192, 640
    image = rng.standard_normal((in_ch, h, w))
    kernels = rng.standard_normal((16, in_ch, k, k))
    padded_bytes = 8 * in_ch * (h + k - 1) * (w + k - 1)
    tracemalloc.start()
    try:
        out = conv2d(image, kernels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A block here is one row: its [C*k, W + k - 1] patch takes 412 KB and each of
    # its two [O, W + k - 1] accumulators 82 KB, all within the budget. An
    # unblocked im2col would take 8 * 16 * 25 * 192 * 640 B = 393 MB.
    assert peak <= out.nbytes + padded_bytes + 3 * conv.BLOCK_BYTES


@pytest.mark.parametrize(
    "out_ch, in_ch, k, h, w, budget",
    [
        pytest.param(12, 1, 11, 96, 96, conv.BLOCK_BYTES, id="reference-first-layer"),
        pytest.param(16, 16, 5, 96, 96, conv.BLOCK_BYTES, id="wide"),
        pytest.param(3, 3, 1, 30, 40, conv.BLOCK_BYTES, id="k1-unpadded-copy"),
        pytest.param(64, 8, 3, 40, 56, 8 * 64 * 58, id="one-row-blocks-past-the-budget"),
        # A 1x39999 image's layers 2 and 1 in the reference stack: one-row blocks.
        pytest.param(4, 4, 11, 1, 39999, conv.BLOCK_BYTES, id="thin"),
        pytest.param(4, 1, 11, 1, 39999, conv.BLOCK_BYTES, id="thin-first-layer"),
    ],
)
def test_scratch_bounds_the_peak_besides_input_and_output(rng, monkeypatch, out_ch, in_ch, k, h, w, budget):
    monkeypatch.setattr(conv, "BLOCK_BYTES", budget)
    image = rng.standard_normal((in_ch, h, w))
    kernels = rng.standard_normal((out_ch, in_ch, k, k))
    out = np.empty((out_ch, h, w))
    tracemalloc.start()
    try:
        conv2d(image, kernels, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * conv.conv2d_scratch(in_ch, out_ch, k, h, w)


def test_scratch_counts_the_patch_and_accumulators_at_their_own_rows():
    # The "thin" case above peaks at 30.7 MB: a 44-row patch and two 4-row
    # accumulators. Counted at 44 rows each, they made 56.4 MB.
    assert 8 * conv.conv2d_scratch(4, 4, 11, 1, 39999) < 31e6


def test_out_slice_of_a_scale_stack_is_filled_and_returned(rng):
    image = rng.standard_normal((2, 9, 13))
    kernels = rng.standard_normal((3, 2, 5, 5))
    stack = np.full((3, 3, 9, 13), np.nan)
    target = stack[1]
    assert conv2d(image, kernels, out=target) is target
    assert np.array_equal(stack[1], conv2d(image, kernels))
    assert np.isnan(stack[0]).all() and np.isnan(stack[2]).all()


@pytest.mark.parametrize(
    "out_ch, in_ch, k, h, w",
    [(4, 4, 11, 96, 320), (16, 16, 5, 192, 640)],
    ids=["hot", "wide"],
)
@pytest.mark.parametrize("border", ["zero-fill", "clamp", "circular"])
def test_out_is_bitwise_equal_to_a_fresh_output(rng, out_ch, in_ch, k, h, w, border):
    image = rng.standard_normal((in_ch, h, w))
    kernels = rng.standard_normal((out_ch, in_ch, k, k))
    out = np.empty((2, out_ch, h, w))
    conv2d(image, kernels, border, out=out[1])
    assert np.array_equal(out[1], conv2d(image, kernels, border))


@pytest.mark.parametrize(
    "channels, k, h, w, budget",
    [
        (3, 1, 7, 5, 8 * 3 * 5 * 2),  # k = 1 pads nothing; the last 2-row block overlaps
        (2, 3, 10, 9, 8 * 6 * 11 * 4),  # 4-row blocks, the last one overlapping
        (4, 11, 96, 320, conv.BLOCK_BYTES),
    ],
)
@pytest.mark.parametrize("border", ["zero-fill", "clamp", "circular"])
def test_out_may_be_the_input_itself(rng, monkeypatch, channels, k, h, w, budget, border):
    monkeypatch.setattr(conv, "BLOCK_BYTES", budget)
    image = rng.standard_normal((channels, h, w))
    kernels = rng.standard_normal((channels, channels, k, k))
    expected = conv2d(image, kernels, border)
    assert conv2d(image, kernels, border, out=image) is image
    assert np.array_equal(image, expected)


@pytest.mark.parametrize(
    "out",
    [
        np.empty((2, 5, 6)),  # wrong channel count
        np.empty((3, 5, 7)),  # wrong width
        np.empty((3, 5, 6), dtype=np.float32),
        np.empty((3, 5, 12))[:, :, ::2],  # right shape, not contiguous
        np.empty((3, 6, 5)).transpose(0, 2, 1),
        [[[0.0] * 6] * 5] * 3,  # not an array
    ],
    ids=["channels", "width", "float32", "strided", "transposed", "list"],
)
def test_bad_out_rejected(rng, out):
    with pytest.raises(ShapeError, match="out must be"):
        conv2d(rng.standard_normal((2, 5, 6)), rng.standard_normal((3, 2, 3, 3)), out=out)
