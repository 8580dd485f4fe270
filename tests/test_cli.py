import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from seslab import (
    ConfigError,
    CorpusSpec,
    EquivConfig,
    error_map,
    harness,
    read_pgm,
    read_tensor,
    sesconv,
    synth_image,
    write_pgm,
)
from seslab.cli import main

KITTI_INTRINSICS = {"f": 707.0, "u0": 63.5, "v0": 47.5, "width": 128, "height": 96}


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def geo_files(tmp_path):
    return {
        "image": _image_file(tmp_path),
        "plane": write_json(tmp_path / "plane.json", {"m": 0.0, "n": 0.0, "o": 1.0, "p": -30.0}),
        "tilted": write_json(tmp_path / "tilted.json", {"m": -0.05, "n": 0.05, "o": 1.0, "p": -30.0}),
        "motion": write_json(tmp_path / "motion.json", {"t": [0.0, 0.0, -3.0]}),
        "still": write_json(tmp_path / "still.json", {"t": [0.0, 0.0, 0.0]}),
        "intrinsics": write_json(tmp_path / "intr.json", KITTI_INTRINSICS),
    }


def _image_file(tmp_path):
    image = synth_image("gaussian-blobs", 96, 128, seed=6)
    path = tmp_path / "input.pgm"
    write_pgm(path, image)
    return str(path)


class TestBasisCommand:
    def test_writes_expected_shape(self, tmp_path):
        out = tmp_path / "basis.f64"
        code = main([
            "basis", "--alpha", "0.1", "--scales", "3", "--order", "6", "--k", "7",
            "--out", str(out), "--out-dir", str(tmp_path),
        ])
        assert code == 0
        filters, meta = read_tensor(out)
        assert list(filters.shape) == [3, 49, 7, 7]
        assert meta["k"] == 7
        assert len(meta["sigmas"]) == 3

    def test_single_scale_shape(self, tmp_path):
        out = tmp_path / "basis1.f64"
        assert main(["basis", "--scales", "1", "--out", str(out), "--out-dir", str(tmp_path)]) == 0
        filters, _ = read_tensor(out)
        assert list(filters.shape) == [1, 49, 7, 7]

    def test_missing_out_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["basis", "--alpha", "0.1"])
        assert exc.value.code == 2

    def test_invalid_alpha_exit_code(self, tmp_path):
        code = main(["basis", "--alpha", "2.0", "--out", str(tmp_path / "b.f64"),
                     "--out-dir", str(tmp_path)])
        assert code == 2

    def test_rerun_from_echoed_config_is_byte_identical(self, tmp_path):
        out = tmp_path / "b.f64"
        main(["basis", "--alpha", "0.2", "--scales", "2", "--order", "3", "--k", "9",
              "--out", str(out), "--out-dir", str(tmp_path)])
        first = out.read_bytes()
        echoed = json.loads((tmp_path / "basis_config.json").read_text())
        echoed.pop("out")
        config = write_json(tmp_path / "from_echo.json", echoed)
        out2 = tmp_path / "b2.f64"
        main(["basis", "--config", config, "--out", str(out2), "--out-dir", str(tmp_path)])
        assert out2.read_bytes() == first

    @pytest.mark.parametrize(
        "payload",
        [{"k": [7]}, {"sigma_base": "2"}, {"scales": 3.0}, {"alpha": True}],
        ids=json.dumps,
    )
    def test_wrong_typed_config_is_usage_error(self, tmp_path, capsys, payload):
        config = write_json(tmp_path / "config.json", payload)
        out = tmp_path / "b.f64"
        assert main(["basis", "--config", config, "--out", str(out), "--out-dir", str(tmp_path)]) == 2
        assert "invalid configuration" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_scale_count_error_names_scales(self, tmp_path, capsys, source):
        # The message named "count", a parameter of scale_set_from_alpha.
        if source == "flag":
            args = ["--scales", "4"]
        else:
            args = ["--config", write_json(tmp_path / "config.json", {"scales": 4})]
        out = tmp_path / "b.f64"
        assert main(["basis", *args, "--out", str(out), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration: scales must be 1, 2, or 3, got 4" in err
        assert "count" not in err
        assert not out.exists()

    @pytest.mark.parametrize("sigma_base", [1e-320, 1e300])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_non_finite_basis_is_usage_error(self, tmp_path, capsys, sigma_base, source):
        # Every filter came out NaN, and the tensor was written with exit 0.
        if source == "flag":
            args = ["--sigma-base", repr(sigma_base)]
        else:
            args = ["--config", write_json(tmp_path / "config.json", {"sigma_base": sigma_base})]
        out = tmp_path / "b.f64"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["basis", *args, "--out", str(out), "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and "sigma_base" in err
        assert not out.exists()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestWarpCommand:
    def test_zero_translation_scale_mode_is_identity(self, tmp_path, geo_files):
        out = tmp_path / "warped.pgm"
        code = main([
            "warp", "--image", geo_files["image"], "--mode", "scale",
            "--plane", geo_files["plane"], "--motion", geo_files["still"],
            "--intrinsics", geo_files["intrinsics"],
            "--out", str(out), "--out-dir", str(tmp_path),
        ])
        assert code == 0
        original = read_pgm(geo_files["image"])
        warped = read_pgm(out)
        assert np.abs(warped - original).max() <= 1.0 / 255.0

    def test_projective_equals_scale_for_parallel_plane(self, tmp_path, geo_files):
        outs = {}
        for mode in ("projective", "scale"):
            out = tmp_path / f"{mode}.pgm"
            assert main([
                "warp", "--image", geo_files["image"], "--mode", mode,
                "--plane", geo_files["plane"], "--motion", geo_files["motion"],
                "--intrinsics", geo_files["intrinsics"],
                "--out", str(out), "--out-dir", str(tmp_path),
            ]) == 0
            outs[mode] = read_pgm(out)
        diff = np.abs(outs["projective"] - outs["scale"]).max()
        assert diff <= 1.0 / 255.0 + 1e-12

    def test_metrics_json_reports_bound_ratio(self, tmp_path, geo_files):
        intr = write_json(
            tmp_path / "kitti.json",
            {"f": 707.0, "u0": 621.0, "v0": 187.5, "width": 1242, "height": 375},
        )
        image = synth_image("gaussian-blobs", 96, 128, seed=1)
        img_path = tmp_path / "img.pgm"
        write_pgm(img_path, image)
        # metrics describe the plane/motion geometry even though the image is small
        code = main([
            "warp", "--image", str(img_path), "--mode", "scale",
            "--plane", geo_files["tilted"], "--motion", geo_files["motion"],
            "--intrinsics", intr, "--out", str(tmp_path / "w.pgm"),
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        metrics = json.loads((tmp_path / "warp_metrics.json").read_text())
        assert metrics["scale_factor"] == pytest.approx(1.1)
        assert metrics["parallel_ratio"] == pytest.approx(0.0878, abs=5e-4)
        assert metrics["corollary_deviation_px"] > 0.0

    def test_degenerate_scale_is_config_error(self, tmp_path, geo_files):
        through = write_json(tmp_path / "through.json", {"t": [0.0, 0.0, 30.0]})
        code = main([
            "warp", "--image", geo_files["image"], "--mode", "scale",
            "--plane", geo_files["plane"], "--motion", through,
            "--intrinsics", geo_files["intrinsics"],
            "--out", str(tmp_path / "x.pgm"), "--out-dir", str(tmp_path),
        ])
        assert code == 2

    def test_logpolar_and_inverse_roundtrip(self, tmp_path, geo_files):
        lp_path = tmp_path / "lp.pgm"
        assert main([
            "warp", "--image", geo_files["image"], "--mode", "logpolar",
            "--out", str(lp_path), "--out-dir", str(tmp_path),
        ]) == 0
        rec_path = tmp_path / "rec.pgm"
        assert main([
            "warp", "--image", str(lp_path), "--mode", "invlogpolar",
            "--out-shape", "96,128",
            "--out", str(rec_path), "--out-dir", str(tmp_path),
        ]) == 0
        rec = read_pgm(rec_path)
        original = read_pgm(geo_files["image"])
        assert rec.shape == original.shape
        # lossy but correlated
        assert np.corrcoef(rec.ravel(), original.ravel())[0, 1] > 0.5

    def test_missing_geometry_files_is_usage_error(self, tmp_path, geo_files):
        code = main([
            "warp", "--image", geo_files["image"], "--mode", "projective",
            "--out", str(tmp_path / "x.pgm"), "--out-dir", str(tmp_path),
        ])
        assert code == 2

    @pytest.mark.parametrize(
        ("kind", "payload", "field"),
        [
            ("plane", {"m": 0.0, "o": 1.0, "p": -30.0}, "n"),
            ("plane", {"m": 0.0, "n": "0", "o": 1.0, "p": -30.0}, "n"),
            ("plane", {"m": True, "n": 0.0, "o": 1.0, "p": -30.0}, "m"),
            ("plane", [0.0, 0.0, 1.0, -30.0], "plane"),
            ("intrinsics", [1, 2], "intrinsics"),
            ("intrinsics", {**KITTI_INTRINSICS, "width": 60.7}, "width"),
            ("intrinsics", {**KITTI_INTRINSICS, "height": "96"}, "height"),
            ("intrinsics", {**KITTI_INTRINSICS, "f": None}, "f"),
            ("intrinsics", {"f": 707.0, "u0": 63.5, "v0": 47.5, "width": 128}, "height"),
            ("motion", {"R": [[1.0, 0.0, 0.0]] * 3}, "t"),
            ("motion", {"t": "0 0 -3"}, "t"),
            ("motion", {"t": [0.0, 0.0]}, "t"),
            ("motion", {"t": [0.0, 0.0, True]}, "t[2]"),
            ("motion", {"t": [0.0, 0.0, -3.0], "R": [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]]}, "R"),
            ("motion", {"t": [0.0, 0.0, -3.0], "R": [[1, 0, 0], [0, 1, 0], [0, 0, "1"]]}, "R[2][2]"),
            ("motion", 3, "motion"),
        ],
        ids=lambda value: json.dumps(value) if not isinstance(value, str) else value,
    )
    def test_malformed_geometry_is_usage_error(self, tmp_path, capsys, geo_files, kind, payload, field):
        files = {**geo_files, kind: write_json(tmp_path / f"bad_{kind}.json", payload)}
        code = main([
            "warp", "--image", files["image"], "--mode", "projective",
            "--plane", files["plane"], "--motion", files["motion"],
            "--intrinsics", files["intrinsics"],
            "--out", str(tmp_path / "x.pgm"), "--out-dir", str(tmp_path),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err
        assert field in err
        assert not (tmp_path / "x.pgm").exists()

    @pytest.mark.parametrize(
        ("rotation", "message"),
        [
            ([[1e200, -1e200, 0.0], [1e200, 1e200, 0.0], [0.0, 0.0, 1.0]], "not orthonormal"),
            ([[1e308, 0.0, 0.0], [0.0, 1e308, 0.0], [0.0, 0.0, 1.0]], "not orthonormal"),
        ],
        ids=["1e200", "1e308"],
    )
    def test_huge_rotation_is_usage_error_without_warning(
        self, tmp_path, capsys, geo_files, rotation, message
    ):
        # R^T R overflowed, and numpy printed a RuntimeWarning before the error.
        files = {**geo_files, "motion": write_json(tmp_path / "m.json", {"t": [0.0, 0.0, -3.0], "R": rotation})}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([
                "warp", "--image", files["image"], "--mode", "scale",
                "--plane", files["plane"], "--motion", files["motion"],
                "--intrinsics", files["intrinsics"],
                "--out", str(tmp_path / "x.pgm"), "--out-dir", str(tmp_path),
            ])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and message in err
        assert "Warning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "x.pgm").exists()

    def test_missing_image_is_io_error(self, tmp_path, geo_files):
        code = main([
            "warp", "--image", str(tmp_path / "absent.pgm"), "--mode", "logpolar",
            "--out", str(tmp_path / "x.pgm"), "--out-dir", str(tmp_path),
        ])
        assert code == 1


    @pytest.mark.parametrize(
        ("kind", "payload", "field"),
        [
            ("plane", {"m": math.nan, "n": 0.0, "o": 1.0, "p": -30.0}, "plane.m"),
            ("plane", {"m": 0.0, "n": 0.0, "o": 1.0, "p": -math.inf}, "plane.p"),
            ("intrinsics", {**KITTI_INTRINSICS, "f": math.inf}, "intrinsics.f"),
            ("motion", {"t": [0.0, 0.0, math.nan]}, "motion.t[2]"),
        ],
        ids=lambda value: json.dumps(value) if not isinstance(value, str) else value,
    )
    def test_non_finite_geometry_is_usage_error(self, tmp_path, capsys, geo_files, kind, payload, field):
        # json parses NaN and Infinity; they gave a NaN metric, or a scale factor of 1.
        files = {**geo_files, kind: write_json(tmp_path / f"bad_{kind}.json", payload)}
        out_dir = tmp_path / "out"
        code = main([
            "warp", "--image", files["image"], "--mode", "scale",
            "--plane", files["plane"], "--motion", files["motion"],
            "--intrinsics", files["intrinsics"],
            "--out", str(out_dir / "x.pgm"), "--out-dir", str(out_dir),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and f"{field} must be a finite number" in err
        assert not out_dir.exists()


class TestSsimSweepCommand:
    def test_row_count_and_bounds(self, tmp_path):
        code = main([
            "ssim-sweep", "--heights", "48,64", "--up-factors", "1,2",
            "--count", "3", "--seed", "0", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "ssim_sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "height,up_factor,mean_ssim,n"
        assert len(lines) == 5
        for line in lines[1:]:
            height, up, mean_ssim, n = line.split(",")
            assert float(mean_ssim) < 1.0
            assert int(n) == 3

    def test_three_heights_four_factors_give_twelve_rows(self, tmp_path):
        code = main([
            "ssim-sweep", "--heights", "96,192,384", "--up-factors", "1,2,3,4",
            "--count", "1", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "ssim_sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 12

    def test_deterministic_across_runs(self, tmp_path):
        args = ["ssim-sweep", "--heights", "48", "--up-factors", "1,2", "--count", "2"]
        main(args + ["--out-dir", str(tmp_path / "a")])
        main(args + ["--out-dir", str(tmp_path / "b")])
        assert (tmp_path / "a/ssim_sweep.csv").read_bytes() == (tmp_path / "b/ssim_sweep.csv").read_bytes()

    def test_empty_corpus_rejected(self, tmp_path):
        assert main(["ssim-sweep", "--count", "0", "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "payload",
        [
            {"heights": 5},
            {"heights": [48, "64"]},
            {"heights": [24.5]},
            {"up_factors": "2"},
            {"up_factors": [1, None]},
            {"up_factors": [True]},
            {"count": "3"},
            {"count": 2.0},
            {"seed": "x"},
            {"kind": 3},
            {"width": "wide"},
            {"width": 40.5},
            [1, 2],
            3,
        ],
        ids=json.dumps,
    )
    def test_wrong_typed_config_is_usage_error(self, tmp_path, capsys, payload):
        config = write_json(tmp_path / "config.json", payload)
        assert main(["ssim-sweep", "--config", config, "--out-dir", str(tmp_path)]) == 2
        assert "invalid configuration" in capsys.readouterr().err


    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_zero_width_rejected(self, tmp_path, capsys, source):
        # A width of 0 used to run square images.
        argv = ["ssim-sweep", "--heights", "32", "--up-factors", "1", "--count", "1"]
        if source == "flag":
            argv += ["--width", "0"]
        else:
            argv += ["--config", write_json(tmp_path / "config.json", {"width": 0})]
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and "width must be >= 1, got 0" in err
        assert not (tmp_path / "out").exists()


class TestEquivCommand:
    @pytest.fixture
    def tiny_config(self, tmp_path):
        payload = {
            "stack": {
                "kind": "ses",
                "layers": [{"out_channels": 2, "k": 7, "nonlinearity": "relu"}] * 2,
                "alpha": 0.1,
                "num_scales": 3,
                "seed": 0,
                "base_sigma": 2.4,
                "max_order": 2,
            },
            "corpus": {"kind": "gaussian-blobs", "count": 2, "height": 32, "width": 40, "seed": 0},
            "scale_factors": [0.909090909090909, 0.8],
            "blocks": [1, 2],
            "crop_margin": 0.1,
        }
        return write_json(tmp_path / "config.json", payload)

    def test_report_and_echo(self, tmp_path, tiny_config):
        code = main(["equiv", "--config", tiny_config, "--out-dir", str(tmp_path), "--format", "json"])
        assert code == 0
        lines = (tmp_path / "equiv_report.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 8
        assert (tmp_path / "equiv_report.json").exists()
        echoed = json.loads((tmp_path / "equiv_config.json").read_text())
        assert echoed["blocks"] == [1, 2]

    def test_byte_identical_across_runs_and_threads(self, tmp_path, tiny_config, monkeypatch):
        monkeypatch.setenv("SESLAB_THREADS", "1")
        main(["equiv", "--config", tiny_config, "--out-dir", str(tmp_path / "r1")])
        monkeypatch.setenv("SESLAB_THREADS", "4")
        main(["equiv", "--config", tiny_config, "--out-dir", str(tmp_path / "r2")])
        a = (tmp_path / "r1/equiv_report.csv").read_bytes()
        b = (tmp_path / "r2/equiv_report.csv").read_bytes()
        assert a == b

    def test_error_maps_written(self, tmp_path, tiny_config):
        code = main(["equiv", "--config", tiny_config, "--out-dir", str(tmp_path), "--maps"])
        assert code == 0
        maps = sorted((tmp_path / "maps").glob("*.pgm"))
        assert len(maps) == 4  # 2 kinds x 2 blocks
        grid = read_pgm(maps[0])
        assert grid.shape == (32, 40)

    def test_maps_reuse_report_forwards(self, tmp_path, tiny_config, monkeypatch):
        builds, loads = [], []
        real_build, real_load = sesconv.build_stack, CorpusSpec.load

        def counting_build(*args, **kwargs):
            builds.append(1)
            return real_build(*args, **kwargs)

        def counting_load(self):
            loads.append(1)
            return real_load(self)

        for module in (harness, sesconv):
            monkeypatch.setattr(module, "build_stack", counting_build)
        monkeypatch.setattr(CorpusSpec, "load", counting_load)
        assert main(["equiv", "--config", tiny_config, "--out-dir", str(tmp_path), "--maps"]) == 0
        assert (len(builds), len(loads)) == (2, 1)

        config = EquivConfig.from_dict(json.loads(Path(tiny_config).read_text()))
        image = real_load(config.corpus)[0]
        s = config.scale_factors[0]
        for kind in ("ses", "vanilla"):
            stack = real_build(replace(config.stack, kind=kind))
            for block in config.blocks:
                expected = tmp_path / "expected.pgm"
                write_pgm(expected, error_map(stack, image, s, block))
                written = tmp_path / "maps" / f"error_{kind}_block{block}.pgm"
                assert written.read_bytes() == expected.read_bytes()

    def test_malformed_config_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"blocks": [9]}')
        assert main(["equiv", "--config", str(bad), "--out-dir", str(tmp_path)]) == 2


    @pytest.mark.parametrize(
        "payload",
        [
            {"corpus": {"count": "3"}},
            {"corpus": {"seed": "x"}},
            {"stack": {"seed": "x"}},
            {"corpus": {"height": 24.5}},
            {"corpus": {"image_dir": 5}},
            {"corpus": {"colour": "red"}},
            {"stack": {"layers": 4}},
            {"blocks": 2},
            {"scale_factors": [True]},
            {"scale_factors": ["0.5"]},
            {"crop_margin": "0.1"},
            [1, 2],
            3,
        ],
        ids=json.dumps,
    )
    def test_wrong_typed_config_is_usage_error(self, tmp_path, capsys, payload):
        config = write_json(tmp_path / "config.json", payload)
        assert main(["equiv", "--config", config, "--out-dir", str(tmp_path)]) == 2
        assert "invalid configuration" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("payload", "field"),
        [
            ({"stack": {"alpha": True}}, "alpha"),
            ({"stack": {"alpha": 1e-300}}, "alpha"),
            ({"stack": {"alpha": float("nan")}}, "alpha"),
            ({"stack": {"base_sigma": True}}, "base_sigma"),
            ({"stack": {"base_sigma": float("nan")}}, "base_sigma"),
            ({"stack": {"base_sigma": "2"}}, "base_sigma"),
            ({"stack": []}, "stack"),
        ],
        ids=lambda value: json.dumps(value) if not isinstance(value, str) else value,
    )
    def test_malformed_stack_is_config_error_naming_the_field(self, tmp_path, capsys, payload, field):
        with pytest.raises(ConfigError, match=field):
            EquivConfig.from_dict(payload)
        config = write_json(tmp_path / "config.json", payload)
        assert main(["equiv", "--config", config, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and field in err
        assert not (tmp_path / "equiv_report.csv").exists()

    def test_scale_count_error_names_num_scales(self, tmp_path, capsys):
        config = write_json(tmp_path / "config.json", {"stack": {"num_scales": 4}})
        assert main(["equiv", "--config", config, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration: num_scales must be 1, 2, or 3, got 4" in err
        assert "count" not in err
        assert not (tmp_path / "equiv_report.csv").exists()

    @pytest.mark.parametrize("base_sigma", [1e-320, 1e300])
    @pytest.mark.parametrize("layers", [2, 1])
    def test_non_finite_basis_is_config_error_naming_base_sigma(
        self, tmp_path, capsys, tiny_config, base_sigma, layers
    ):
        # Every basis filter comes out NaN. A two-layer stack used to fail in
        # the norm without naming base_sigma; a one-layer one reported nan deltas.
        payload = json.loads(Path(tiny_config).read_text())
        payload["stack"]["base_sigma"] = base_sigma
        payload["stack"]["layers"] = payload["stack"]["layers"][:layers]
        payload["blocks"] = list(range(1, layers + 1))
        config = write_json(tmp_path / "non_finite.json", payload)
        assert main(["equiv", "--config", config, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and "base_sigma" in err
        assert not (tmp_path / "equiv_report.csv").exists()


    @pytest.mark.parametrize("base_sigma", [1e-320, 1e300])
    def test_non_finite_basis_prints_no_runtime_warning(self, tmp_path, capsys, tiny_config, base_sigma):
        payload = json.loads(Path(tiny_config).read_text())
        payload["stack"]["base_sigma"] = base_sigma
        config = write_json(tmp_path / "non_finite.json", payload)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["equiv", "--config", config, "--out-dir", str(tmp_path)]) == 2
        assert "base_sigma" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command", ["warp", "equiv", "ssim-sweep"])
def test_integer_too_large_for_a_float_is_usage_error(tmp_path, capsys, geo_files, command):
    # Each of these exited 1 with an OverflowError traceback.
    big = 10**400
    payload, field = {
        "warp": ({**KITTI_INTRINSICS, "f": big}, "intrinsics.f"),
        "equiv": ({"scale_factors": [big]}, "scale_factors[0]"),
        "ssim-sweep": ({"up_factors": [big], "count": 1}, "up_factors[0]"),
    }[command]
    config = write_json(tmp_path / "config.json", payload)
    argv = {
        "warp": ["warp", "--image", geo_files["image"], "--mode", "logpolar", "--intrinsics", config,
                 "--out", str(tmp_path / "out" / "x.pgm")],
        "equiv": ["equiv", "--config", config],
        "ssim-sweep": ["ssim-sweep", "--config", config],
    }[command]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err and f"{field} must be a finite number" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


class TestCrossProcessDeterminism:
    def test_equiv_csv_identical_across_processes(self, tmp_path, monkeypatch):
        import subprocess
        import sys

        payload = {
            "stack": {
                "kind": "ses",
                "layers": [{"out_channels": 2, "k": 7, "nonlinearity": "relu"}],
                "alpha": 0.1,
                "num_scales": 3,
                "seed": 0,
                "base_sigma": 2.8,
                "max_order": 2,
            },
            "corpus": {"kind": "gaussian-blobs", "count": 2, "height": 32, "width": 32, "seed": 0},
            "scale_factors": [0.8],
            "blocks": [1],
            "crop_margin": 0.1,
        }
        config = write_json(tmp_path / "cfg.json", payload)
        monkeypatch.setenv("SESLAB_THREADS", "1")
        assert main(["equiv", "--config", config, "--out-dir", str(tmp_path / "inproc")]) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "seslab", "equiv", "--config", config,
             "--out-dir", str(tmp_path / "subproc")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        a = (tmp_path / "inproc/equiv_report.csv").read_bytes()
        b = (tmp_path / "subproc/equiv_report.csv").read_bytes()
        assert a == b


class TestSelftestCommand:
    def test_fresh_build_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "all" in out and "passed" in out

    def test_corrupted_basis_norm_detected(self, capsys):
        assert main(["selftest", "--corrupt", "basis-norm"]) == 1
        out = capsys.readouterr().out
        assert "FAIL basis-filter-l2-norm" in out
