import tracemalloc

import numpy as np
import pytest

from seslab import ShapeError, ssim, synth_image
from seslab.ssim import ssim_scratch

from oracles import ssim_windows


def test_self_similarity_is_exactly_one(rng):
    image = rng.uniform(size=(16, 20))
    assert ssim(image, image) == 1.0
    constant = np.full((12, 12), 0.37)
    assert ssim(constant, constant) == 1.0


def test_symmetry(rng):
    a = rng.uniform(size=(24, 24))
    b = rng.uniform(0.2, 0.7, size=(24, 24))
    assert abs(ssim(a, b) - ssim(b, a)) <= 1e-12


def _pairs(seed, count=40):
    """Random pairs of non-square images with extents 11 to 40: uniform,
    negative-valued, correlated, and one constant image of each pair."""
    r = np.random.default_rng(seed)
    for trial in range(count):
        h, w = r.integers(11, 41, size=2)
        a = r.uniform(size=(h, w))
        b = np.clip(a + 0.2 * r.standard_normal((h, w)), 0, 1)
        yield a, b
        yield a - 3.0, r.uniform(-5.0, -1.0, size=(h, w))
        yield np.full((h, w), float(r.uniform(-2, 2))), b


def test_unity_and_symmetry_are_exact_on_any_shape():
    for a, b in _pairs(77):
        assert ssim(a, a) == 1.0
        assert ssim(b, b) == 1.0
        assert ssim(a, b) == ssim(b, a)
        assert ssim(a, b, data_range=0.5) == ssim(b, a, data_range=0.5)


def test_matches_window_oracle_on_non_square_shapes():
    for a, b in _pairs(78, count=6):
        assert abs(ssim(a, b, data_range=1.0) - ssim_windows(a, b, 1.0)) <= 1e-10


def test_transpose_changes_only_the_summation_order():
    for a, b in _pairs(79):
        assert abs(ssim(a.T, b.T) - ssim(a, b)) <= 1e-12


def test_peak_memory_holds_no_extra_full_size_temporaries():
    # At 384x384 the peak is the four row-pass maps beside the two product
    # images (5.9 input-size arrays); the local means and the score exist
    # only one band at a time. One more full-size temporary does not fit.
    r = np.random.default_rng(5)
    a, b = r.uniform(size=(384, 384)), r.uniform(size=(384, 384))
    ssim(a, b)
    tracemalloc.start()
    try:
        ssim(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * a.nbytes


@pytest.mark.parametrize("shape", [(96, 96), (384, 384), (96, 320), (11, 5000), (5000, 11)], ids=lambda s: "%dx%d" % s)
def test_scratch_count_covers_the_peak(shape):
    r = np.random.default_rng(6)
    a, b = r.uniform(size=shape), r.uniform(size=shape)
    ssim(a, b)
    tracemalloc.start()
    try:
        ssim(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * ssim_scratch(*shape)


def test_inverted_checkerboard_is_negative():
    board = synth_image("checkerboard", 32, 32, seed=0, cell=4)
    assert ssim(board, 1.0 - board) < 0.0


def test_matches_window_oracle(rng):
    a = rng.uniform(size=(32, 32))
    b = rng.uniform(size=(32, 32))
    assert abs(ssim(a, b, data_range=1.0) - ssim_windows(a, b, 1.0)) <= 1e-10


def test_matches_oracle_many_small_instances():
    for trial in range(25):
        r = np.random.default_rng(500 + trial)
        a = r.uniform(size=(14, 15))
        b = np.clip(a + 0.3 * r.standard_normal((14, 15)), 0, 1)
        assert abs(ssim(a, b, data_range=1.0) - ssim_windows(a, b, 1.0)) <= 1e-10


def test_range_bounds(rng):
    for trial in range(20):
        r = np.random.default_rng(trial)
        a = r.uniform(size=(16, 16))
        b = r.uniform(size=(16, 16))
        value = ssim(a, b)
        assert -1.0 <= value <= 1.0


def test_shape_mismatch_rejected(rng):
    with pytest.raises(ShapeError, match="equal shapes"):
        ssim(rng.uniform(size=(16, 16)), rng.uniform(size=(16, 17)))


def test_too_small_rejected(rng):
    with pytest.raises(ShapeError, match=">= 11"):
        ssim(rng.uniform(size=(8, 8)), rng.uniform(size=(8, 8)))


def test_invalid_data_range_rejected(rng):
    a = rng.uniform(size=(12, 12))
    with pytest.raises(ValueError, match="data_range"):
        ssim(a, a, data_range=0.0)


def test_similar_images_score_higher_than_dissimilar(blob_image):
    noisy = np.clip(blob_image + 0.05 * np.random.default_rng(1).standard_normal(blob_image.shape), 0, 1)
    shuffled = np.random.default_rng(2).permutation(blob_image.ravel()).reshape(blob_image.shape)
    assert ssim(blob_image, noisy) > ssim(blob_image, shuffled)
