import json
import math

import numpy as np
import pytest

from seslab import (
    BorderPolicy,
    ConfigError,
    CorpusSpec,
    EquivConfig,
    LayerSpec,
    SeslabError,
    StackSpec,
    build_stack,
    combine,
    equivariance_error,
    error_map,
    run_experiment,
    scale_transform,
    scale_transform_stack,
    synth_corpus,
    synth_image,
    write_pgm,
)
from dataclasses import replace

from seslab import harness
from seslab.grid import crop
from oracles import delta_formula

TINY_STACK = StackSpec(layers=(LayerSpec(2, 7), LayerSpec(2, 7)), max_order=2)
TINY_CONFIG = EquivConfig(
    stack=TINY_STACK,
    corpus=CorpusSpec(count=2, height=32, width=40, seed=0),
    scale_factors=(1.0 / 1.1, 0.8),
    blocks=(1, 2),
)


@pytest.fixture(scope="module")
def tiny_images():
    return synth_corpus("gaussian-blobs", 2, 32, 40, 0)


class TestEquivarianceError:
    def test_unit_scale_is_exactly_zero(self, tiny_images):
        for kind in ("ses", "vanilla"):
            stack = build_stack(replace(TINY_STACK, kind=kind))
            for block in (1, 2):
                assert equivariance_error(stack, tiny_images, 1.0, block) == 0.0

    def test_matches_formula_oracle(self, tiny_images):
        stack = build_stack(TINY_STACK)
        s = 0.85

        def scale_fn(grid2d, factor):
            return scale_transform(grid2d, factor, border=BorderPolicy.ZERO)

        ours = equivariance_error(stack, tiny_images[:1], s, 2)
        ref = delta_formula(stack, tiny_images[:1], s, 2, 0.1, scale_fn)
        assert abs(ours - ref) <= 1e-12

    def test_ses_beats_vanilla_at_matched_factor(self):
        images = synth_corpus("gaussian-blobs", 5, 64, 96, 0)
        spec = StackSpec(layers=(LayerSpec(4, 9), LayerSpec(4, 9)))
        ses = build_stack(spec)
        vanilla = build_stack(replace(spec, kind="vanilla"))
        s = 1.0 / 1.1
        assert equivariance_error(ses, images, s, 1) < equivariance_error(vanilla, images, s, 1)

    def test_amplitude_invariance_of_last_linear_layer(self, tiny_images):
        stack = build_stack(TINY_STACK)
        scaled_bank = combine(
            stack.banks[-1].weights * 3.7,
            stack.banks[-1].basis,
            scale_gains=stack.banks[-1].scale_gains,
        )
        boosted = replace(stack, banks=(stack.banks[0], scaled_bank))
        s, block = 0.8, 2
        a = equivariance_error(stack, tiny_images, s, block)
        b = equivariance_error(boosted, tiny_images, s, block)
        assert abs(a - b) <= 1e-10 * max(1.0, a)

    def test_zero_features_raise(self, tiny_images):
        stack = build_stack(TINY_STACK)
        zero_bank = combine(
            np.zeros_like(stack.banks[-1].weights),
            stack.banks[-1].basis,
            scale_gains=stack.banks[-1].scale_gains,
        )
        dead = replace(stack, banks=(stack.banks[0], zero_bank))
        with pytest.raises(SeslabError, match="zero"):
            equivariance_error(dead, tiny_images, 0.8, 2)

    def test_scale_factor_validated(self, tiny_images):
        stack = build_stack(TINY_STACK)
        for bad in (0.0, 1.2, -0.5):
            with pytest.raises(ConfigError, match="scale factor"):
                equivariance_error(stack, tiny_images, bad, 1)

    def test_block_validated(self, tiny_images):
        stack = build_stack(TINY_STACK)
        with pytest.raises(ConfigError, match="block"):
            equivariance_error(stack, tiny_images, 0.8, 3)


@pytest.mark.parametrize(
    "measure",
    [
        lambda stack, image: equivariance_error(stack, [image], 0.8, 2),
        lambda stack, image: error_map(stack, image, 0.8, 2),
    ],
    ids=["equivariance_error", "error_map"],
)
def test_non_finite_image_rejected_by_measurements(measure, tiny_images):
    image = tiny_images[0].copy()
    image[5, 7] = np.nan
    with pytest.raises(SeslabError, match="non-finite"):
        measure(build_stack(TINY_STACK), image)


class TestRunExperiment:
    def test_row_count_covers_cross_product(self):
        report = run_experiment(TINY_CONFIG)
        assert len(report.rows) == 2 * 2 * 2
        kinds = {r.kind for r in report.rows}
        assert kinds == {"ses", "vanilla"}

    def test_rerun_is_byte_identical(self):
        a = run_experiment(TINY_CONFIG).to_csv_text()
        b = run_experiment(TINY_CONFIG).to_csv_text()
        assert a == b

    def test_thread_count_does_not_change_output(self, monkeypatch):
        monkeypatch.setenv("SESLAB_THREADS", "1")
        a = run_experiment(TINY_CONFIG).to_csv_text()
        monkeypatch.setenv("SESLAB_THREADS", "4")
        b = run_experiment(TINY_CONFIG).to_csv_text()
        assert a == b

    def test_invalid_threads_rejected(self, monkeypatch):
        monkeypatch.setenv("SESLAB_THREADS", "many")
        with pytest.raises(ConfigError, match="SESLAB_THREADS"):
            run_experiment(TINY_CONFIG)

    def test_workers_capped_by_image_count(self, monkeypatch):
        recorded = []

        class RecordingPool(harness.ThreadPoolExecutor):
            def __init__(self, max_workers):
                recorded.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        monkeypatch.setenv("SESLAB_THREADS", "64")
        run_experiment(TINY_CONFIG)
        assert TINY_CONFIG.corpus.count == 2
        assert recorded == [2, 2]

    def test_non_finite_image_rejected(self, monkeypatch, tiny_images):
        image = tiny_images[0].copy()
        image[5, 7] = np.nan
        monkeypatch.setattr(CorpusSpec, "load", lambda self: [tiny_images[1], image])
        with pytest.raises(SeslabError, match="non-finite"):
            run_experiment(TINY_CONFIG)

    def test_non_finite_cell_mean_rejected(self, monkeypatch):
        # math.log10 was skipped for a NaN mean, so the report read log10_delta -inf
        def cells(stack, image, scale_factors, blocks, crop_margin, map_scale=None):
            return {(b, s): math.nan if (b, s) == (2, 0.8) else 0.5 for b in blocks for s in scale_factors}, {}

        monkeypatch.setattr(harness, "_image_cells", cells)
        with pytest.raises(SeslabError, match=r"ses block 2 at scale 0\.8: mean delta is nan"):
            run_experiment(TINY_CONFIG)

    def test_csv_structure(self):
        text = run_experiment(TINY_CONFIG).to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "kind,block,scale,delta,log10_delta,n"
        assert len(lines) == 9
        first = lines[1].split(",")
        assert first[0] == "ses"
        assert int(first[1]) == 1
        assert int(first[5]) == 2

    def test_image_directory_corpus(self, tmp_path):
        for i, img in enumerate(synth_corpus("gaussian-blobs", 2, 32, 32, 1)):
            write_pgm(tmp_path / f"img{i}.pgm", img)
        config = replace(TINY_CONFIG, corpus=CorpusSpec(image_dir=str(tmp_path)))
        report = run_experiment(config)
        assert all(r.n == 2 for r in report.rows)

    def test_empty_image_directory_rejected(self, tmp_path):
        config = replace(TINY_CONFIG, corpus=CorpusSpec(image_dir=str(tmp_path)))
        with pytest.raises(ConfigError, match="no .pgm images"):
            run_experiment(config)

    def test_json_report_roundtrips(self, tmp_path):
        report = run_experiment(TINY_CONFIG)
        path = tmp_path / "report.json"
        report.write_json(path)
        data = json.loads(path.read_text())
        assert len(data["rows"]) == len(report.rows)
        assert data["metadata"]["config"]["blocks"] == [1, 2]

    def test_config_json_roundtrip(self):
        back = EquivConfig.from_dict(json.loads(json.dumps(TINY_CONFIG.to_dict())))
        assert back == TINY_CONFIG

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="scale factors"):
            EquivConfig(stack=TINY_STACK, scale_factors=(1.5,), blocks=(1,))
        with pytest.raises(ConfigError, match="block indices"):
            EquivConfig(stack=TINY_STACK, scale_factors=(0.8,), blocks=(5,))
        with pytest.raises(ConfigError, match="unknown"):
            EquivConfig.from_dict({"stack": TINY_STACK.to_dict(), "gpus": 4})
        with pytest.raises(ConfigError, match="JSON object"):
            EquivConfig.from_dict([1, 2])
        with pytest.raises(ConfigError, match="integer"):
            EquivConfig(stack=TINY_STACK, scale_factors=(0.8,), blocks=(1.5,))

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"scale_factors": [True]}, r"scale_factors\[0\]"),
            ({"scale_factors": [0.8, "0.5"]}, r"scale_factors\[1\]"),
            ({"crop_margin": "0.1"}, "crop_margin"),
        ],
    )
    def test_real_fields_typed(self, payload, field):
        with pytest.raises(ConfigError, match=f"{field} must be a number"):
            EquivConfig.from_dict({"stack": TINY_STACK.to_dict(), "blocks": [1], **payload})

    @pytest.mark.parametrize(
        "spec, fields",
        [
            (CorpusSpec, {"count": "3"}),
            (CorpusSpec, {"height": 24.5}),
            (CorpusSpec, {"seed": True}),
            (StackSpec, {"seed": "x"}),
            (StackSpec, {"max_order": 2.0}),
            (LayerSpec, {"out_channels": 4, "k": 5.0}),
        ],
    )
    def test_spec_integer_fields_typed(self, spec, fields):
        with pytest.raises(ConfigError, match="must be an integer"):
            spec(**fields)


class TestErrorMap:
    def test_unit_scale_all_zero(self):
        stack = build_stack(TINY_STACK)
        image = synth_image("gaussian-blobs", 32, 40, seed=0)
        grid = error_map(stack, image, 1.0, 2)
        assert grid.shape == (32, 40)
        assert np.all(grid == 0.0)

    def test_normalized_peak(self):
        stack = build_stack(TINY_STACK)
        image = synth_image("gaussian-blobs", 32, 40, seed=0)
        grid = error_map(stack, image, 0.8, 2)
        assert grid.max() == 1.0
        assert grid.min() >= 0.0

    def test_zero_features_raise(self):
        stack = build_stack(TINY_STACK)
        zero_bank = combine(
            np.zeros_like(stack.banks[-1].weights),
            stack.banks[-1].basis,
            scale_gains=stack.banks[-1].scale_gains,
        )
        dead = replace(stack, banks=(stack.banks[0], zero_bank))
        image = synth_image("gaussian-blobs", 32, 40, seed=0)
        with pytest.raises(SeslabError, match="zero"):
            error_map(dead, image, 0.8, 2)

    def test_ses_maps_dimmer_than_vanilla_on_average(self):
        images = synth_corpus("gaussian-blobs", 3, 48, 64, 0)
        spec = StackSpec(layers=(LayerSpec(4, 9), LayerSpec(4, 9)))
        ses = build_stack(spec)
        vanilla = build_stack(replace(spec, kind="vanilla"))
        s, block = 1.0 / 1.1, 1

        def mean_unnormalized(stack):
            total = 0.0
            for img in images:
                feats = stack.forward(img)[block - 1]
                g = stack.forward(scale_transform(img, s, border=BorderPolicy.ZERO))[block - 1]
                diff = np.stack(
                    [scale_transform(ch, s, border=BorderPolicy.ZERO) for ch in feats]
                ) - g
                denom = np.sum(
                    np.stack([scale_transform(ch, s, border=BorderPolicy.ZERO) for ch in feats]) ** 2
                )
                total += float(np.sum(diff * diff) / denom)
            return total / len(images)

        assert mean_unnormalized(ses) < mean_unnormalized(vanilla)


def full_size_cell(feats, feats_of_scaled, s, margin):
    """A cell as the whole-map path computes it: T_s F over the full map,
    the difference at full size, then the crop and the sums of squares."""
    scaled = scale_transform_stack(feats, s, border=BorderPolicy.ZERO)
    diff = scaled - feats_of_scaled
    num, den = crop(diff, margin), crop(scaled, margin)
    err = np.sum(diff * diff, axis=0)
    peak = err.max()
    return float(np.sum(num * num)) / float(np.sum(den * den)), (err / peak if peak > 0 else err)


class TestCellReduction:
    """``_delta_ratio`` samples only the crop window; it must give the
    full-size path's ratio bit for bit, with and without the error map."""

    SCALES = (0.55, 0.7, 1.0 / 1.1, 1.0)

    @pytest.fixture(scope="class")
    def features(self, tiny_images):
        cases = []
        for kind in ("ses", "vanilla"):
            stack = build_stack(replace(TINY_STACK, kind=kind))
            for image in tiny_images:
                base = stack.forward(image)
                for s in self.SCALES:
                    scaled = stack.forward(scale_transform(image, s, border=BorderPolicy.ZERO))
                    for block in (1, 2):
                        cases.append((base[block - 1], scaled[block - 1], s))
        return cases

    @pytest.mark.parametrize("margin", [0.1, 0.0, 0.25])
    def test_every_cell_equals_full_size_path(self, features, margin):
        for feats, feats_of_scaled, s in features:
            expected, expected_map = full_size_cell(feats, feats_of_scaled, s, margin)
            ratio, grid = harness._delta_ratio(feats, feats_of_scaled, s, margin, False)
            assert grid is None
            assert ratio == expected
            map_ratio, grid = harness._delta_ratio(feats, feats_of_scaled, s, margin, True)
            assert map_ratio == ratio
            assert grid.tobytes() == expected_map.tobytes()

    def test_image_cells_equal_full_size_path(self, tiny_images):
        stack = build_stack(TINY_STACK)
        cells, maps = harness._image_cells(stack, tiny_images[0], self.SCALES, (1, 2), 0.1, 0.7)
        base = stack.forward(tiny_images[0])
        for s in self.SCALES:
            scaled = stack.forward(scale_transform(tiny_images[0], s, border=BorderPolicy.ZERO))
            for block in (1, 2):
                ratio, grid = full_size_cell(base[block - 1], scaled[block - 1], s, 0.1)
                assert cells[(block, s)] == ratio
                if s == 0.7:
                    assert maps[block].tobytes() == grid.tobytes()
        assert sorted(maps) == [1, 2]

    def test_unit_scale_is_exactly_zero(self, features):
        for feats, _, _ in features:
            for with_map in (False, True):
                ratio, _ = harness._delta_ratio(feats, feats, 1.0, 0.1, with_map)
                assert ratio == 0.0

    @pytest.mark.parametrize("with_map", [False, True])
    def test_zero_denominator_raises(self, rng, with_map):
        zero = np.zeros((2, 32, 40))
        with pytest.raises(SeslabError, match="identically zero"):
            harness._delta_ratio(zero, rng.normal(size=zero.shape), 0.8, 0.1, with_map)
        # features only near the border, which T_s at 0.5 moves out of the crop window
        rim = np.zeros((2, 32, 40))
        rim[:, :2] = rim[:, -2:] = rim[:, :, :2] = rim[:, :, -2:] = 1.0
        assert full_size_cell(rim, rim, 0.5, 0.0)[0] > 0.0
        with pytest.raises(SeslabError, match="identically zero"):
            harness._delta_ratio(rim, rim, 0.5, 0.3, with_map)
