import numpy as np
import pytest

from seslab import ConfigError, CorpusSpec, ShapeError, render_gaussian_blobs, synth_corpus, synth_image
from seslab.synth import corpus_seeds


@pytest.mark.parametrize("kind", ["gaussian-blobs", "checkerboard", "bandlimited-noise"])
def test_deterministic(kind):
    a = synth_image(kind, 16, 24, seed=7)
    b = synth_image(kind, 16, 24, seed=7)
    assert np.array_equal(a, b)
    assert a.shape == (16, 24)


def test_seed_sensitivity():
    a = synth_image("gaussian-blobs", 32, 32, seed=0)
    b = synth_image("gaussian-blobs", 32, 32, seed=1)
    assert not np.array_equal(a, b)


def test_values_in_unit_interval():
    for kind in ("gaussian-blobs", "checkerboard", "bandlimited-noise"):
        img = synth_image(kind, 24, 24, seed=2)
        assert img.min() >= 0.0 and img.max() <= 1.0


@pytest.mark.parametrize("height, width", [(96, 96), (96, 320), (192, 640)])
def test_blobs_hold_no_subnormal_values(height, width):
    # The calibration probe, equiv-ref and equiv-wide extents. Unflushed, most
    # 96x320 blob images hold values below the smallest normal double.
    tiny = np.finfo(np.float64).tiny
    for seed in range(12):
        image = synth_image("gaussian-blobs", height, width, seed)
        assert not ((image > 0.0) & (image < tiny)).any()
        corpus = synth_corpus("gaussian-blobs", 1, height, width, seed)[0]
        assert not ((corpus > 0.0) & (corpus < tiny)).any()


def test_checkerboard_binary_values():
    board = synth_image("checkerboard", 8, 8, seed=0, cell=4)
    assert set(np.unique(board)) == {0.0, 1.0}
    # neighboring cells alternate
    ys, xs = np.nonzero(np.abs(np.diff(board, axis=1)) > 0)
    assert len(ys) > 0


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError, match="unknown synthetic image kind"):
        synth_image("perlin", 16, 16, seed=0)


def test_minimum_size_enforced():
    with pytest.raises(ShapeError, match=">= 8"):
        synth_image("checkerboard", 4, 16, seed=0)


def test_render_gaussian_blobs_analytic_values():
    image = render_gaussian_blobs(11, 11, [(5.0, 5.0, 2.0, 1.0)])
    assert image[5, 5] == pytest.approx(1.0)
    assert image[5, 7] == pytest.approx(np.exp(-4.0 / 8.0))


def test_corpus_derives_distinct_images():
    corpus = synth_corpus("gaussian-blobs", 4, 16, 16, seed=0)
    assert len(corpus) == 4
    for i in range(3):
        assert not np.array_equal(corpus[i], corpus[i + 1])
    again = synth_corpus("gaussian-blobs", 4, 16, 16, seed=0)
    assert all(np.array_equal(a, b) for a, b in zip(corpus, again))


@pytest.mark.parametrize("seed", [0, 7, 2**64 + 3])
def test_image_drawn_alone_equals_the_corpus_image_bitwise(seed):
    # A job synthesizes only its own image, from its own seed.
    count = 12
    seeds = corpus_seeds(seed, count)
    assert [corpus_seeds(seed, i + 1)[i] for i in range(count)] == list(seeds)
    spec = CorpusSpec(kind="bandlimited-noise", count=count, height=16, width=24, seed=seed)
    extents, load = spec.describe()
    assert extents == {(16, 24): count}
    corpus = synth_corpus("bandlimited-noise", count, 16, 24, seed)
    assert [load(i).tobytes() for i in range(count)] == [image.tobytes() for image in corpus]


def test_corpus_count_validated():
    with pytest.raises(ConfigError, match=">= 1"):
        synth_corpus("gaussian-blobs", 0, 16, 16, seed=0)
