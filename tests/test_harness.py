import collections
import json
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from seslab import (
    BorderPolicy,
    ConfigError,
    CorpusSpec,
    DegenerateGeometryError,
    EquivConfig,
    LayerSpec,
    SeslabError,
    StackSpec,
    build_stack,
    combine,
    equivariance_error,
    error_map,
    read_pgm,
    run_experiment,
    scale_matched_residue,
    scale_transform,
    scale_transform_stack,
    single_scale_residue,
    synth_corpus,
    synth_image,
    write_pgm,
)
from dataclasses import replace

from seslab import grid, harness, resample, sesconv
from seslab.errors import dump
from seslab.grid import crop, crop_window
from seslab.sesconv import KINDS, Stack
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
        for bad in (0.0, 1.2, -0.5, float("nan"), True, "0.8"):
            with pytest.raises(ConfigError, match="scale factor"):
                equivariance_error(stack, tiny_images, bad, 1)

    def test_block_validated(self, tiny_images):
        stack = build_stack(TINY_STACK)
        # 1.0 ended in a TypeError from a slice, and True was measured as block 1
        for bad in (3, 0, 1.0, True):
            with pytest.raises(ConfigError, match="block"):
                equivariance_error(stack, tiny_images, 0.8, bad)
            with pytest.raises(ConfigError, match="block"):
                error_map(stack, tiny_images[0], 0.8, bad)
        expected = equivariance_error(stack, tiny_images, 0.8, 2)
        assert equivariance_error(stack, tiny_images, 0.8, np.int64(2)) == expected
        grid = error_map(stack, tiny_images[0], 0.8, 2)
        assert np.array_equal(error_map(stack, tiny_images[0], 0.8, np.int64(2)), grid)

    def test_fraction_scale_factor_is_its_float(self, tiny_images):
        # A Fraction passed the check and ended in a numpy TypeError.
        stack = build_stack(TINY_STACK)
        s = Fraction(4, 5)
        assert equivariance_error(stack, tiny_images, s, 2) == equivariance_error(stack, tiny_images, 0.8, 2)
        assert np.array_equal(error_map(stack, tiny_images[0], s, 2), error_map(stack, tiny_images[0], 0.8, 2))
        assert replace(TINY_CONFIG, scale_factors=(s, Fraction(1, 2))).scale_factors == (0.8, 0.5)
        for bad in (Fraction(1, 10**400), Fraction(10**400)):  # floats 0.0 and past the range
            with pytest.raises(ConfigError, match="scale factor"):
                equivariance_error(stack, tiny_images, bad, 1)
            with pytest.raises(ConfigError, match="scale factor"):
                error_map(stack, tiny_images[0], bad, 1)
            with pytest.raises(ConfigError):
                replace(TINY_CONFIG, scale_factors=(bad,))

    def test_long_arguments_are_abbreviated(self, tiny_images):
        # The whole 401-digit Fraction went into a 472-character message.
        stack = build_stack(TINY_STACK)
        for args, what in (((Fraction(1, 10**400), 1), "scale factor"), ((0.8, 10**400), "block")):
            with pytest.raises(ConfigError, match=what) as info:
                equivariance_error(stack, tiny_images, *args)
            assert len(str(info.value)) < 120
        with pytest.raises(ConfigError, match="scale factor") as info:
            replace(TINY_CONFIG, scale_factors=(0.5,) * 1000 + (2.0,))
        assert len(str(info.value)) < 120

    def test_no_images_rejected(self):
        # the mean over no images raised ZeroDivisionError
        with pytest.raises(ConfigError, match="image is required"):
            equivariance_error(build_stack(TINY_STACK), [], 0.8, 1)

    def test_margin_leaving_no_pixel_runs_no_forward(self, tiny_images, monkeypatch):
        stack = build_stack(TINY_STACK)
        shapes = []
        monkeypatch.setattr(Stack, "forward", lambda self, grid: shapes.append(np.shape(grid)))
        with pytest.raises(ConfigError, match="leaves no pixel"):
            equivariance_error(stack, tiny_images, 0.8, 1, crop_margin=0.49)
        assert shapes == []

    # The default stack has 3 scales: each layer runs one conv2d per scale.
    @pytest.mark.parametrize("block, calls", [(1, 6), (2, 12), (4, 24)])
    def test_forwards_stop_at_the_deepest_block_read(self, monkeypatch, block, calls):
        stack = build_stack(StackSpec())
        image = synth_image("gaussian-blobs", 48, 80, seed=0)
        base = stack.forward(image)[block - 1]
        scaled = stack.forward(scale_transform(image, 0.8, border=BorderPolicy.ZERO))[block - 1]
        count = []
        real = sesconv.conv2d
        monkeypatch.setattr(sesconv, "conv2d", lambda *args, **kwargs: count.append(1) or real(*args, **kwargs))
        assert equivariance_error(stack, [image], 0.8, block) == full_size_cell(base, scaled, 0.8, 0.1)[0]
        assert len(count) == calls


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


@pytest.mark.parametrize(
    "measure",
    [
        lambda stack, image, block: equivariance_error(stack, [image], 0.8, block),
        lambda stack, image, block: error_map(stack, image, 0.8, block),
    ],
    ids=["equivariance_error", "error_map"],
)
@pytest.mark.parametrize("block", [1, 2])
def test_overflowing_squared_features_rejected_by_measurements(measure, block):
    # A finite image of huge values gave nan, and error_map a non-finite map
    # after a RuntimeWarning from its peak normalization.
    stack = build_stack(StackSpec(layers=(LayerSpec(2, 5), LayerSpec(2, 5))))
    image = synth_image("gaussian-blobs", 32, 32, seed=0) * 1e300
    with pytest.raises(SeslabError, match="do not sum to a finite number"):
        measure(stack, image, block)


@pytest.mark.parametrize(
    "measure",
    [
        lambda stack, image, margin: crop(image, margin),
        lambda stack, image, margin: equivariance_error(stack, [image], 0.8, 1, crop_margin=margin),
        lambda stack, image, margin: scale_matched_residue(stack.banks[0], image, 0, 2, crop_margin=margin),
        lambda stack, image, margin: single_scale_residue(stack.banks[0], image, 0.8, crop_margin=margin),
    ],
    ids=["crop", "equivariance_error", "scale_matched_residue", "single_scale_residue"],
)
@pytest.mark.parametrize(
    "margin, message",
    [
        (-0.4, r"crop margin must lie in \[0, 0\.5\), got -0\.4 for a 32x40 grid"),
        (0.5, r"crop margin must lie in \[0, 0\.5\), got 0\.5 for a 32x40 grid"),
        (float("nan"), r"crop margin must lie in \[0, 0\.5\), got nan for a 32x40 grid"),
        (0.49, r"crop margin 0\.49 leaves no pixel of a 32x40 grid"),
    ],
    ids=["negative", "half", "nan", "empty-window"],
)
def test_crop_margin_checked_by_measurements(measure, margin, message, tiny_images):
    # A negative margin was measured over a slice of the map, and an empty
    # window was reported as an identically zero feature map.
    with pytest.raises(ConfigError, match=message):
        measure(build_stack(TINY_STACK), tiny_images[0], margin)


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

    def test_maps_only_when_asked_and_rows_do_not_depend_on_them(self, monkeypatch):
        with_maps = []
        real = harness._delta_ratio

        def counting(*args):
            with_maps.append(args[-1])
            return real(*args)

        monkeypatch.setattr(harness, "_delta_ratio", counting)
        default = run_experiment(TINY_CONFIG)  # library callers keep their maps
        assert sorted(default.maps) == [(k, b) for k in ("ses", "vanilla") for b in TINY_CONFIG.blocks]
        assert sum(with_maps) == len(default.maps)
        with_maps.clear()
        bare = run_experiment(TINY_CONFIG, maps=False)
        assert bare.maps == {} and not any(with_maps)
        assert bare.to_csv_text() == default.to_csv_text()

    def test_stacks_are_built_only_up_to_the_deepest_block(self, monkeypatch):
        # Calibrating all 4 layers of the default stack took 14 of 18 conv2d calls.
        config = EquivConfig(corpus=CorpusSpec(count=1, height=48, width=80), scale_factors=(0.8,), blocks=(1,))
        count = []
        real = sesconv.conv2d
        monkeypatch.setattr(sesconv, "conv2d", lambda *args, **kwargs: count.append(1) or real(*args, **kwargs))
        report = run_experiment(config, maps=False)
        assert len(count) == 8  # F(h) and F(T_s h): one conv2d per scale, 3 for ses and 1 for vanilla; a one-layer stack calibrates none
        monkeypatch.undo()
        full = run_experiment(replace(config, blocks=(1, 4)), maps=False)
        assert report.rows == tuple(row for row in full.rows if row.block == 1)
        assert report.metadata["config"]["stack"] == dump(StackSpec())

    def test_every_forward_goes_through_stack_forward(self, monkeypatch):
        # Stack.forward is the latency target of the bench: per kind, F(h) and
        # one F(T_s h) per scale factor of every image must call it. Each image
        # runs through the ses stack and then the vanilla stack.
        calls = []
        real = sesconv.Stack.forward
        monkeypatch.setattr(
            sesconv.Stack, "forward", lambda self, *args, **kwargs: calls.append(self.kind) or real(self, *args, **kwargs)
        )
        run_experiment(TINY_CONFIG, maps=False)
        per_image = 1 + len(TINY_CONFIG.scale_factors)
        assert calls == (["ses"] * per_image + ["vanilla"] * per_image) * TINY_CONFIG.corpus.count

    def test_thread_count_does_not_change_output(self, monkeypatch):
        monkeypatch.setenv("SESLAB_THREADS", "1")
        a = run_experiment(TINY_CONFIG).to_csv_text()
        monkeypatch.setenv("SESLAB_THREADS", "4")
        b = run_experiment(TINY_CONFIG).to_csv_text()
        assert a == b

    @pytest.mark.parametrize(
        ("threads", "message"),
        [("many", "must be an integer, got 'many'"), ("0", "must be >= 1, got '0'"), ("-3", "must be >= 1, got '-3'")],
    )
    def test_invalid_threads_rejected(self, monkeypatch, threads, message):
        # 0 and -3 used to run one worker silently.
        monkeypatch.setenv("SESLAB_THREADS", threads)
        with pytest.raises(ConfigError, match=f"^SESLAB_THREADS {message}$"):
            run_experiment(TINY_CONFIG)

    def test_workers_capped_by_image_count(self, monkeypatch):
        recorded, tasks = [], []

        class RecordingPool(harness.ThreadPoolExecutor):
            def __init__(self, max_workers):
                recorded.append(max_workers)
                super().__init__(max_workers=max_workers)

            def map(self, fn, shares):
                tasks.append(list(shares))
                return super().map(fn, tasks[-1])

        monkeypatch.setattr(harness, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        monkeypatch.setenv("SESLAB_THREADS", "64")
        run_experiment(TINY_CONFIG)
        assert TINY_CONFIG.corpus.count == 2
        assert recorded == [2]  # one pool runs every share, each through both kinds
        # One task per worker, not per image: a 5-image corpus on 3 workers makes 3.
        monkeypatch.setenv("SESLAB_THREADS", "3")
        run_experiment(replace(TINY_CONFIG, corpus=replace(TINY_CONFIG.corpus, count=5)), maps=False)
        assert (recorded, tasks) == ([2, 3], [[0, 1], [0, 1, 2]])

    def test_uneven_shares_give_identical_reports_and_maps(self, monkeypatch, tmp_path):
        # 5 images on 2 workers split 3 + 2, on 3 workers 2 + 2 + 1.
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        config = replace(TINY_CONFIG, corpus=replace(TINY_CONFIG.corpus, count=5))
        outputs = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("SESLAB_THREADS", threads)
            report = run_experiment(config)
            report.write_json(tmp_path / f"{threads}.json")
            maps = {key: grid.tobytes() for key, grid in report.maps.items()}
            outputs.append((report.to_csv_text(), (tmp_path / f"{threads}.json").read_bytes(), maps))
        assert outputs[0] == outputs[1] == outputs[2]
        assert all(row.n == 5 for row in report.rows) and len(outputs[0][2]) == 4

    @pytest.mark.parametrize("threads", ["1", "8"])
    def test_corpus_seeds_are_derived_once_per_run(self, monkeypatch, threads):
        # Each image derived the seeds of every image before it: O(count^2).
        # The sleep holds the first derivation open while the other workers
        # make their first loads, more workers than this machine has cores.
        calls = []
        real = harness.corpus_seeds
        monkeypatch.setattr(harness, "corpus_seeds", lambda *args: calls.append(args) or time.sleep(0.05) or real(*args))
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        monkeypatch.setenv("SESLAB_THREADS", threads)
        config = replace(TINY_CONFIG, corpus=replace(TINY_CONFIG.corpus, count=8, seed=7))
        report = run_experiment(config, maps=False)
        assert calls == [(7, 8)]
        monkeypatch.undo()
        assert report.rows == run_experiment(config, maps=False).rows

    def test_non_finite_image_rejected(self, monkeypatch, tiny_images):
        image = tiny_images[0].copy()
        image[5, 7] = np.nan
        extents = collections.Counter({image.shape: 2})
        monkeypatch.setattr(CorpusSpec, "describe", lambda self: (extents, [tiny_images[1], image].__getitem__))
        with pytest.raises(SeslabError, match="non-finite"):
            run_experiment(TINY_CONFIG)

    @pytest.mark.parametrize("bad", [0, 1])
    def test_a_failing_image_stops_every_share(self, monkeypatch, bad):
        # The other share ran to its end before the error surfaced: 21 of 40
        # images were loaded. Image 1 fails in share 1 while share 0 runs on.
        loads = []
        real = CorpusSpec.describe

        def describe(self):
            extents, load = real(self)

            def loading(i):
                loads.append(i)
                image = load(i)
                if i == bad:
                    image[3, 3] = np.nan
                return image

            return extents, loading

        monkeypatch.setattr(CorpusSpec, "describe", describe)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        monkeypatch.setenv("SESLAB_THREADS", "2")
        config = replace(TINY_CONFIG, corpus=replace(TINY_CONFIG.corpus, count=40))
        with pytest.raises(SeslabError, match="non-finite"):
            run_experiment(config, maps=False)
        assert bad in loads and len(loads) <= 10

    def test_non_finite_cell_mean_rejected(self, monkeypatch):
        # math.log10 was skipped for a NaN mean, so the report read log10_delta -inf
        def cells(stack, image, scale_factors, blocks, crop_margin, map_scale=None, out=None):
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
        write_pgm(tmp_path / "img0a.pgm", synth_image("checkerboard", 36, 44, 0))  # sorts between them
        config = replace(TINY_CONFIG, corpus=CorpusSpec(image_dir=str(tmp_path)))
        extents, load = config.corpus.describe()
        assert list(extents.items()) == [((32, 32), 2), ((36, 44), 1)]
        assert load(1).tobytes() == read_pgm(tmp_path / "img0a.pgm").tobytes()
        report = run_experiment(config)
        assert all(r.n == 3 for r in report.rows)

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
        back = EquivConfig.from_dict(json.loads(json.dumps(dump(TINY_CONFIG))))
        assert back == TINY_CONFIG

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="scale factors"):
            EquivConfig(stack=TINY_STACK, scale_factors=(1.5,), blocks=(1,))
        with pytest.raises(ConfigError, match="block indices"):
            EquivConfig(stack=TINY_STACK, scale_factors=(0.8,), blocks=(5,))
        # Both kinds always run, so a vanilla kind would be echoed and ignored.
        with pytest.raises(ConfigError, match="stack.kind must be 'ses'"):
            EquivConfig(stack=replace(TINY_STACK, kind="vanilla"))
        with pytest.raises(ConfigError, match="unknown"):
            EquivConfig.from_dict({"stack": dump(TINY_STACK), "gpus": 4})
        with pytest.raises(ConfigError, match="JSON object"):
            EquivConfig.from_dict([1, 2])
        with pytest.raises(ConfigError, match="integer"):
            EquivConfig(stack=TINY_STACK, scale_factors=(0.8,), blocks=(1.5,))
        # Repeats are rejected, also when only their floats or integers are equal.
        for factors in ((0.8, 0.8), (0.8, Fraction(4, 5))):
            with pytest.raises(ConfigError, match="scale factors must be one or more distinct"):
                EquivConfig(stack=TINY_STACK, scale_factors=factors, blocks=(1,))
        for blocks in ((2, 1, 2), (1, np.int64(1))):
            with pytest.raises(ConfigError, match="block indices must be one or more distinct"):
                EquivConfig(stack=TINY_STACK, scale_factors=(0.8,), blocks=blocks)

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
            EquivConfig.from_dict({"stack": dump(TINY_STACK), "blocks": [1], **payload})

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


def delta_ratio(feats, feats_of_scaled, s, margin, with_map):
    """``harness._delta_ratio`` as ``_image_cells`` calls it, given F(h) and
    F(T_s h) over the whole frame: the map's cell reads the whole frame,
    every other cell the crop window. F(T_s h)'s window is a copy, which
    ``_delta_ratio`` overwrites."""
    window = crop_window(feats.shape, margin)
    read = crop_window(feats.shape, 0.0) if with_map else window
    t_s = resample.scale_transform_mapping(feats.shape, s)
    scaled_feats = resample._warp(feats, feats.shape[-2:], t_s, BorderPolicy.ZERO, read)
    within = grid.within(window, read)
    return harness._delta_ratio(scaled_feats, feats_of_scaled[(..., *read)].copy(), within, with_map)


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
            ratio, grid = delta_ratio(feats, feats_of_scaled, s, margin, False)
            assert grid is None
            assert ratio == expected
            map_ratio, grid = delta_ratio(feats, feats_of_scaled, s, margin, True)
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
                ratio, _ = delta_ratio(feats, feats, 1.0, 0.1, with_map)
                assert ratio == 0.0

    @pytest.mark.parametrize("with_map", [False, True])
    def test_zero_denominator_raises(self, rng, with_map):
        zero = np.zeros((2, 32, 40))
        with pytest.raises(SeslabError, match="identically zero"):
            delta_ratio(zero, rng.normal(size=zero.shape), 0.8, 0.1, with_map)
        # features only near the border, which T_s at 0.5 moves out of the crop window
        rim = np.zeros((2, 32, 40))
        rim[:, :2] = rim[:, -2:] = rim[:, :, :2] = rim[:, :, -2:] = 1.0
        assert full_size_cell(rim, rim, 0.5, 0.0)[0] > 0.0
        with pytest.raises(SeslabError, match="identically zero"):
            delta_ratio(rim, rim, 0.5, 0.3, with_map)


# Kernel extents 3, 5, 7: the reach R of blocks (1, 3) is 1 + 2 + 3 = 6.
MIXED_STACK = StackSpec(layers=(LayerSpec(3, 3), LayerSpec(2, 5), LayerSpec(3, 7)), max_order=1)


class TestCroppedForward:
    """Every F(T_s h) but the map's runs on the crop window dilated by the
    reach R and clipped to the frame; its cells must equal the full-size
    path bit for bit."""

    SCALES = (0.6, 1.0 / 1.1, 1.0)

    @pytest.fixture(scope="class")
    def image(self):
        return synth_image("gaussian-blobs", 37, 101, seed=3)  # odd extents

    @pytest.fixture(scope="class", params=["ses", "vanilla"])
    def stack(self, request):
        return build_stack(replace(MIXED_STACK, kind=request.param))

    @pytest.mark.parametrize("margin", [0.0, 0.1, 0.25])
    @pytest.mark.parametrize("blocks", [(1,), (2,), (1, 3)], ids=str)
    def test_cells_equal_full_size_path(self, stack, image, blocks, margin):
        cells, maps = harness._image_cells(stack, image, self.SCALES, blocks, margin, 0.6)
        assert harness._image_cells(stack, image, self.SCALES, blocks, margin)[0] == cells
        base = stack.forward(image)
        for s in self.SCALES:
            scaled = stack.forward(scale_transform(image, s, border=BorderPolicy.ZERO))
            for block in blocks:
                ratio, grid = full_size_cell(base[block - 1], scaled[block - 1], s, margin)
                assert cells[(block, s)] == ratio
                if s == 0.6:
                    assert maps[block].tobytes() == grid.tobytes()
        assert [cells[(block, 1.0)] for block in blocks] == [0.0] * len(blocks)


@pytest.mark.parametrize("kind", ["ses", "vanilla"])
@pytest.mark.parametrize(
    "spec, shape, margin, box, regions",
    [
        # equiv-ref: a 96x296 box, whose layer outputs shrink to the 76x256 crop window
        (StackSpec(), (96, 320), 0.1, (96, 296), [(96, 286), (96, 276), (86, 266), (76, 256)]),
        # equiv-wide: a 162x520 box
        (StackSpec(layers=(LayerSpec(16, 5),) * 2, max_order=2), (192, 640), 0.1, (162, 520), [(158, 516), (154, 512)]),
        # crop window rows 4:33, cols 10:91; the reach 6 passes the top and bottom rows
        (MIXED_STACK, (37, 101), 0.1, (37, 93), [(37, 91), (35, 87), (29, 81)]),
        (MIXED_STACK, (37, 101), 0.25, (31, 63), [(29, 61), (25, 57), (19, 51)]),
        (replace(MIXED_STACK, layers=MIXED_STACK.layers[:1]), (37, 101), 0.1, (31, 83), [(29, 81)]),
        (MIXED_STACK, (37, 101), 0.0, (37, 101), [(37, 101)] * 3),
    ],
    ids=["equiv-ref", "equiv-wide", "mixed", "mixed-margin-0.25", "mixed-first-layer", "mixed-margin-0"],
)
def test_box_forward_layers_shrink_to_the_crop_window(monkeypatch, kind, spec, shape, margin, box, regions):
    # The first conv of the scaled forward reads the crop window's receptive
    # box: the window dilated by the reach of every layer, clipped to the frame.
    stack = build_stack(replace(spec, kind=kind))
    image = synth_image("gaussian-blobs", *shape, seed=0)
    inputs, shapes = [], []
    real = sesconv.conv2d

    def recording(image, kernels, border, out=None, margins=None, fold=False):
        inputs.append(image.shape)
        result = real(image, kernels, border, out=out, margins=margins, fold=fold)
        shapes.append(result.shape)
        return result

    monkeypatch.setattr(sesconv, "conv2d", recording)
    harness._image_cells(stack, image, (0.8,), tuple(range(1, len(spec.layers) + 1)), margin)
    # Each scale slice runs through every layer in turn.
    scales = spec.num_scales if kind == "ses" else 1
    out_ch = [layer.out_channels for layer in spec.layers]
    expected = [(o, *region) for o, region in zip(out_ch, regions)] * scales
    base = [(o, *shape) for o in out_ch] * scales
    assert shapes == base + expected
    layers = len(out_ch)
    assert inputs[: len(base) : layers] == [(1, *shape)] * scales
    assert inputs[len(base) :: layers] == [(1, *box)] * scales


@pytest.mark.parametrize("map_scale", [None, 0.8])
@pytest.mark.parametrize("margin", [0.0, 0.1])
def test_image_cells_peak_memory_is_base_plus_one_forward(margin, map_scale):
    # At margin 0 every forward is full size. Each scale factor's block
    # outputs must be freed before the next forward allocates its own: kept
    # alive, they add two block outputs to the peak, past the slack of one.
    stack = build_stack(StackSpec(layers=(LayerSpec(16, 5), LayerSpec(16, 5)), max_order=2))
    image = synth_image("bandlimited-noise", 96, 320, seed=0)
    tracemalloc.start()
    try:
        blocks = stack.forward(image)
        forward = tracemalloc.get_traced_memory()[1]
        base = sum(block.nbytes for block in blocks)
        del blocks
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        harness._image_cells(stack, image, (0.8, 0.6), (1, 2), margin, map_scale)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < base + forward + base // 2  # slack: one block output


def test_map_cell_holds_one_crop_copy_at_a_time():
    # At the map scale the scaled forward reads the frame, so each cell sums
    # contiguous copies of its crop. The peak holds the base and scaled blocks,
    # T_s F and the map; the numerator's copy is freed before the denominator's
    # is made. Both at once put the peak a crop copy higher (25.1 MB).
    stack = build_stack(StackSpec(layers=(LayerSpec(16, 5), LayerSpec(16, 5)), max_order=2))
    image = synth_image("bandlimited-noise", 96, 320, seed=0)
    blocks = stack.forward(image)
    base, window = sum(block.nbytes for block in blocks), crop(blocks[0], 0.1).nbytes
    del blocks
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        harness._image_cells(stack, image, (0.8,), (1, 2), 0.1, 0.8)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 2 * base + base // 2 + window + window // 2  # slack: half a crop copy


@pytest.mark.parametrize(
    "config",
    [
        EquivConfig(corpus=CorpusSpec(count=1)),
        EquivConfig(
            stack=StackSpec(layers=(LayerSpec(16, 5), LayerSpec(16, 5)), max_order=2),
            corpus=CorpusSpec(kind="bandlimited-noise", count=1, height=192, width=640),
            scale_factors=(0.8, 0.6),
            blocks=(1, 2),
        ),
        EquivConfig(corpus=CorpusSpec(image_dir="square-and-thin")),
        EquivConfig(corpus=CorpusSpec(image_dir="large-square-and-thin")),
    ],
    ids=["equiv-ref", "equiv-wide", "square-and-thin", "large-square-and-thin"],
)
def test_plan_covers_the_run_peak(monkeypatch, tmp_path, config):
    # The plan counted an image and one [S, C, h, w] map per worker: 61.1 MB
    # against a 115.1 MB peak on equiv-wide, 12.1 against 13.0 MB on equiv-ref.
    # It then sized the worker at the largest-area extent, 200x200 here, but
    # conv2d's row-block patch grows with the padded width, so the thin image
    # holds more. A worker's F(h) array is sized for the largest area, which
    # at 300x300 is not the thin extent that the plan names.
    if config.corpus.image_dir is not None:
        rng = np.random.default_rng(7)
        side = {"square-and-thin": 200, "large-square-and-thin": 300}[config.corpus.image_dir]
        for name, shape in (("square", (side, side)), ("thin", (1, 39999))):
            write_pgm(tmp_path / f"{name}.pgm", rng.uniform(size=shape))
        config = replace(config, corpus=replace(config.corpus, image_dir=str(tmp_path)))
    planned = []
    check = harness.check_fits_memory
    monkeypatch.setattr(harness, "check_fits_memory", lambda values, plan: planned.append(values) or check(values, plan))
    run_experiment(config)
    tracemalloc.start()
    try:
        run_experiment(config)  # with the error maps, whose cells read the frame
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * planned[-1]


@pytest.mark.parametrize("s", [1e-310, 5e-324])
def test_scale_factor_that_overflows_the_grid_is_refused_before_any_stack(monkeypatch, s):
    # T_s's divide overflowed with a RuntimeWarning in the first image's
    # warp, after both stacks were built.
    monkeypatch.setattr(harness, "build_stack", lambda spec: pytest.fail("a stack was built"))
    config = replace(TINY_CONFIG, corpus=CorpusSpec(count=1, height=16, width=16), scale_factors=(0.5, s))
    with pytest.raises(DegenerateGeometryError, match=f"^scale factor {s} maps the corner of a 16x16 grid"):
        run_experiment(config)


def test_run_builds_the_specs_it_plans(monkeypatch):
    # Each kind is planned by its own banks: the vanilla stack at one scale.
    planned, built = [], []
    plan, build = harness._plan, harness.build_stack
    monkeypatch.setattr(harness, "_plan", lambda *args: planned.extend(plan(*args)) or tuple(planned))
    monkeypatch.setattr(harness, "build_stack", lambda spec: built.append(spec) or build(spec))
    config = replace(TINY_CONFIG, stack=replace(TINY_STACK, layers=MIXED_STACK.layers), blocks=(2,))
    run_experiment(config, maps=False)
    assert built == planned == [replace(config.stack, kind=kind, layers=MIXED_STACK.layers[:2]) for kind in KINDS]
    assert [len(spec.scale_set()) for spec in built] == [config.stack.num_scales, 1]


def test_plan_counts_each_image_cells_and_synthetic_seed(monkeypatch):
    planned = []
    monkeypatch.setattr(harness, "check_fits_memory", lambda values, plan: planned.append((values, plan)))
    image_dir = replace(TINY_CONFIG, corpus=CorpusSpec(image_dir="unread"))
    for config in (TINY_CONFIG, image_dir):
        for count in (2, 1002):
            harness._plan(config, collections.Counter({(32, 40): count}), 1)
    cells = 2 * len(TINY_CONFIG.blocks) * len(TINY_CONFIG.scale_factors)
    assert planned[1][0] - planned[0][0] == 1000 * (cells + 0.5)  # a 4-byte seed is half a double
    assert planned[3][0] - planned[2][0] == 1000 * cells
    assert f"{cells} cells and a seed per image" in planned[0][1]
    assert f"{cells} cells per image" in planned[2][1]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_holds_the_planned_cells_per_image(monkeypatch, threads):
    # The plan counts a double per cell and a 4-byte seed per synthetic image.
    # Per-image result dicts held about 1.7 KB per image for these 10 cells.
    # The fake returns fresh cells as _image_cells does, without its forwards:
    # tracemalloc reads numpy's as_strided as about 48 B of growth per call
    # that the process's RSS does not show, and 1000 images stay fast.
    def cells(stack, image, scale_factors, blocks, crop_margin, map_scale=None, out=None):
        return {(b, s): float(image[0, 0]) + s for s in scale_factors for b in blocks}, {}

    monkeypatch.setattr(harness, "_image_cells", cells)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
    monkeypatch.setenv("SESLAB_THREADS", threads)
    config = EquivConfig(
        stack=StackSpec(layers=(LayerSpec(2, 5),), max_order=2),
        corpus=CorpusSpec(height=8, width=8),
        scale_factors=(0.9, 0.8, 0.7, 0.6, 0.5),
        blocks=(1,),
    )
    planned = 8 * 2 * len(config.blocks) * len(config.scale_factors)
    peaks = []
    for count in (100, 1100):
        tracemalloc.start()
        try:
            run_experiment(replace(config, corpus=replace(config.corpus, count=count)), maps=False)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 1000 <= 2 * planned


def test_plan_counts_the_base_array_at_the_largest_area(monkeypatch):
    # The thin extent's measurement is the largest, but the worker's F(h)
    # array is sized by the 300x300 image: the plan counts both.
    planned = []
    monkeypatch.setattr(harness, "check_fits_memory", lambda values, plan: planned.append((values, plan)))
    config = EquivConfig(corpus=CorpusSpec(image_dir="unread"))
    for extents in ({(300, 300): 1, (1, 39999): 1}, {(1, 39999): 2}):
        harness._plan(config, collections.Counter(extents), 2)
    channels = sum(layer.out_channels for layer in config.stack.layers)
    assert planned[0][0] - planned[1][0] == 2 * channels * (300 * 300 - 39999)
    assert "the largest 1x39999" in planned[0][1]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_each_worker_writes_every_base_forward_into_one_array(monkeypatch, threads):
    # F(h) of both kinds and of every image in a share writes its blocks into
    # one array that the worker allocates once; the crop forwards allocate
    # their own. Each F(h) used to allocate its blocks.
    outs = []
    real = sesconv.Stack.forward

    def forward(self, image, window=None, **kwargs):
        blocks = real(self, image, window, **kwargs)
        outs.append((window is None, kwargs.get("out")))
        assert kwargs.get("out") is None or all(np.shares_memory(block, kwargs["out"]) for block in blocks)
        return blocks

    monkeypatch.setattr(sesconv.Stack, "forward", forward)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("SESLAB_THREADS", threads)
    run_experiment(TINY_CONFIG, maps=False)
    base = [out for frame, out in outs if frame]
    assert len(base) == len(KINDS) * TINY_CONFIG.corpus.count
    assert all(out is None for frame, out in outs if not frame)
    assert all(isinstance(out, np.ndarray) for out in base)
    buffers = list({id(out): out for out in base}.values())
    assert len(buffers) == int(threads)
    if threads == "2":  # worker w has image w: its two kinds share its array
        assert [id(out) for out in base].count(id(buffers[0])) == len(KINDS)


def test_run_holds_one_image_per_worker(tmp_path, monkeypatch):
    # A worker loads each image and drops it before the next. The whole corpus
    # used to be loaded before the first forward: six images held, not one.
    monkeypatch.setenv("SESLAB_THREADS", "1")
    images = synth_corpus("gaussian-blobs", 6, 64, 96, 2)
    peaks = []
    for count in (2, 6):
        corpus = tmp_path / str(count)
        corpus.mkdir()
        for i, image in enumerate(images[:count]):
            write_pgm(corpus / f"{i}.pgm", image)
        config = replace(TINY_CONFIG, corpus=CorpusSpec(image_dir=str(corpus)))
        tracemalloc.start()
        try:
            run_experiment(config, maps=False)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < images[0].nbytes
