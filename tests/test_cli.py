import json
import math
import os
import tracemalloc
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
    log_polar_roundtrip_ssim,
    read_pgm,
    read_tensor,
    sesconv,
    synth_corpus,
    synth_image,
    write_pgm,
)
from seslab import grid, selftest
from seslab.cli import main
from seslab.errors import load

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

    @pytest.mark.parametrize(
        ("order", "k", "message"),
        [("-1", "7", "max_order must be >= 0, got -1"), ("11", "23", "Hermite order is capped at 10, got 11")],
    )
    def test_bad_order_is_not_reported_as_a_sigma_error(self, tmp_path, capsys, order, k, message):
        # cmd_basis reports any ConfigError of build_basis as one of sigma_base.
        argv = ["basis", "--order", order, "--k", k, "--out", str(tmp_path / "b.f64"), "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"seslab: invalid configuration: {message}\n"

    def test_basis_too_large_for_memory_is_refused_before_any_filter(self, tmp_path, capsys):
        # --k 100001 --order 1 used to end in a MemoryError traceback (74.5 GiB).
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = main(["basis", "--k", "100001", "--order", "1", "--out", str(out / "b.f64"), "--out-dir", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "seslab: invalid configuration: a basis of k 100001 (3 scales of 4 100001x100001 filters) plans "
        )
        assert "physical memory" in err and "sigma_base" not in err and "Traceback" not in err
        assert peak < 1024 * 1024
        assert not out.exists()

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

    @pytest.mark.parametrize("shape", ["5", "5,x", "1,2,3"])
    def test_malformed_out_shape_is_usage_error_naming_the_flag(self, tmp_path, capsys, geo_files, shape):
        code = main([
            "warp", "--image", geo_files["image"], "--mode", "invlogpolar", "--out-shape", shape,
            "--out", str(tmp_path / "rec.pgm"), "--out-dir", str(tmp_path),
        ])
        assert code == 2
        assert f"--out-shape must be two integers H,W, got '{shape}'" in capsys.readouterr().err

    def test_out_shape_too_large_for_memory_is_usage_error(self, tmp_path, capsys, geo_files):
        # A 100000x100000 output (74.5 GiB) used to fail inside numpy; the
        # check fires before anything of that size is allocated.
        tracemalloc.start()
        try:
            code = main([
                "warp", "--image", geo_files["image"], "--mode", "invlogpolar", "--out-shape", "100000,100000",
                "--out", str(tmp_path / "out" / "rec.pgm"), "--out-dir", str(tmp_path / "out"),
            ])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid configuration: out_shape 100000x100000" in err and "physical memory" in err
        assert peak < 1024 * 1024
        assert not (tmp_path / "out").exists()

    def test_out_shape_past_the_float_range_is_usage_error(self, tmp_path, capsys, geo_files):
        # A 401-digit height used to exit 1 with an OverflowError traceback:
        # the mapping floated the extents before the output was planned.
        code = main([
            "warp", "--image", geo_files["image"], "--mode", "invlogpolar", "--out-shape", f"{10**400},5",
            "--out", str(tmp_path / "out" / "rec.pgm"), "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid configuration: out_shape 1000" in err and "physical memory" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["scale", "projective"])
    @pytest.mark.parametrize("width", [10**400, 10**8], ids=["401-digit", "1e8"])
    def test_intrinsics_grid_too_large_is_usage_error(self, tmp_path, capsys, geo_files, mode, width):
        # A 401-digit width used to exit 1 with an OverflowError traceback from
        # parallel_bound, and projective_mapping's denominator check built a
        # height x width grid that nothing planned.
        intrinsics = write_json(tmp_path / "wide.json", {**KITTI_INTRINSICS, "width": width, "height": 10**6})
        tracemalloc.start()
        try:
            code = main([
                "warp", "--image", geo_files["image"], "--mode", mode,
                "--plane", geo_files["plane"], "--motion", geo_files["motion"], "--intrinsics", intrinsics,
                "--out", str(tmp_path / "out" / "w.pgm"), "--out-dir", str(tmp_path / "out"),
            ])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert f"invalid configuration: intrinsics width x height {str(width)[:3]}" in err and "physical memory" in err
        assert peak < 1024 * 1024
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["projective", "scale", "logpolar", "invlogpolar"])
    def test_image_too_large_for_memory_is_refused_from_its_header(
        self, tmp_path, capsys, monkeypatch, geo_files, mode
    ):
        # The image used to be read whole before anything planned the warp.
        # Its 96x128 frames take 96 KiB each; the budget here is 64 KiB.
        monkeypatch.setattr(grid.os, "sysconf", lambda name: 4096 if name == "SC_PAGE_SIZE" else 16)
        reads = []
        monkeypatch.setattr("seslab.cli.read_pgm", lambda path: reads.append(path))
        argv = ["warp", "--image", geo_files["image"], "--mode", mode, "--out", str(tmp_path / "out" / "w.pgm")]
        argv += ["--plane", geo_files["plane"], "--motion", geo_files["motion"], "--intrinsics", geo_files["intrinsics"]]
        argv += ["--out-dir", str(tmp_path / "out")] + (["--out-shape", "96,128"] if mode == "invlogpolar" else [])
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        frames = 3 if mode == "scale" else 2
        assert (
            f"invalid configuration: out_shape 96x128 of the {mode} warp of image {geo_files['image']} of 96x128 "
            f"(the input, {frames} output frames and the sampler's blocks)"
        ) in err
        assert "physical memory (65536 bytes)" in err
        assert peak < 1024 * 1024
        assert reads == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["projective", "scale", "logpolar", "invlogpolar"])
    def test_warp_holds_its_frames_only_and_plans_them(self, tmp_path, monkeypatch, geo_files, mode):
        # A 375x1242 point-kernel warp holds its input, its output and the
        # encoder's float buffer. The denominator grids and the encoder's
        # quantization temporaries took the peak to 4.01 frames. The scale
        # mode's separable sampler holds about a frame more, 4.16 in all,
        # which the plan of two frames used to miss.
        height, width = 375, 1242
        frame = tmp_path / "frame.pgm"
        write_pgm(frame, synth_image("gaussian-blobs", height, width, seed=2))
        intrinsics = write_json(tmp_path / "kitti.json", {"f": 707.0, "u0": 621.0, "v0": 187.5, "width": width, "height": height})
        image = str(frame)
        if mode == "invlogpolar":
            image = str(tmp_path / "lp.pgm")
            assert main(["warp", "--image", str(frame), "--mode", "logpolar", "--out", image, "--out-dir", str(tmp_path)]) == 0
        argv = ["warp", "--image", image, "--mode", mode, "--out", str(tmp_path / "w.pgm"), "--out-dir", str(tmp_path)]
        argv += ["--plane", geo_files["tilted"], "--motion", geo_files["motion"], "--intrinsics", intrinsics]
        if mode == "invlogpolar":
            argv += ["--out-shape", f"{height},{width}"]
        planned = []

        def recording(values, plan):
            planned.append(8.0 * values)
            return grid.check_fits_memory(values, plan)

        monkeypatch.setattr("seslab.cli.check_fits_memory", recording)
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(planned) == 1
        assert peak <= planned[0]
        assert peak <= (4.25 if mode == "scale" else 3.25) * height * width * 8

    @pytest.mark.parametrize("mode", ["projective", "scale"])
    @pytest.mark.parametrize(("height", "width"), [(600, 2000), (375, 1242)], ids=["past", "equal"])
    def test_image_past_the_intrinsics_grid_is_refused_from_its_header(
        self, tmp_path, capsys, monkeypatch, mode, height, width
    ):
        # The denominator of this map changes sign near u = 1485, past the
        # intrinsics' 1242 columns where it is checked: row 100 of a 2000-wide
        # image used to map u = 1480 to x = 1.3e5 and u = 1490 to x = -1.4e5,
        # and the warp exited 0 with clamped edge pixels past that column.
        frame = tmp_path / "frame.pgm"
        write_pgm(frame, synth_image("gaussian-blobs", height, width, seed=3))
        intrinsics = write_json(tmp_path / "kitti.json", {"f": 707.0, "u0": 621.0, "v0": 187.5, "width": 1242, "height": 375})
        plane = write_json(tmp_path / "steep.json", {"m": -9.0, "n": 0.0, "o": 1.0, "p": -30.0})
        motion = write_json(tmp_path / "motion.json", {"t": [0.0, 0.0, -3.0]})
        reads = []
        monkeypatch.setattr("seslab.cli.read_pgm", lambda path: reads.append(path) or read_pgm(path))
        code = main([
            "warp", "--image", str(frame), "--mode", mode, "--plane", plane, "--motion", motion,
            "--intrinsics", intrinsics, "--out", str(tmp_path / "out" / "w.pgm"), "--out-dir", str(tmp_path / "out"),
        ])
        if width == 1242:
            assert code == 0 and reads == [str(frame)]
            return
        assert code == 2
        assert (
            f"invalid configuration: image {frame} of 600x2000 reaches past the intrinsics' 375x1242 grid"
        ) in capsys.readouterr().err
        assert reads == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        ("mode", "flags", "message"),
        [
            ("projective", ["--motion", "motion", "--intrinsics", "intrinsics"], "mode projective needs --plane"),
            ("projective", ["--plane", "broken", "--motion", "motion", "--intrinsics", "intrinsics"], "malformed JSON"),
            ("logpolar", ["--r-min", "0"], "r_min must lie in (0, "),
            ("invlogpolar", ["--out-shape", "0,5"], "--out-shape extents must be integers >= 1, got 0x5"),
            ("logpolar", ["--image", "column"], "log-polar output needs >= 2 columns, got (40, 1)"),
            ("invlogpolar", ["--image", "column", "--out-shape", "40,40"],
             "log-polar image needs >= 2 radius columns, got (40, 1)"),
            ("invlogpolar", ["--out-shape", "1,1"], "a 1x1 log-polar frame has no radius"),
            ("logpolar", ["--out-shape", "5,5"], "--out-shape is for mode invlogpolar only, got mode logpolar"),
            *[
                (mode, ["--plane", "plane", "--motion", "motion", "--intrinsics", "intrinsics", "--out-shape", "5,5"],
                 f"--out-shape is for mode invlogpolar only, got mode {mode}")
                for mode in ("projective", "scale")
            ],
        ],
        ids=[
            "no-plane", "malformed-plane", "r-min-0", "out-shape-0", "column-logpolar", "column-invlogpolar",
            "out-shape-1x1", "out-shape-logpolar", "out-shape-projective", "out-shape-scale",
        ],
    )
    def test_pixel_free_arguments_are_refused_before_the_decode(
        self, tmp_path, capsys, monkeypatch, geo_files, mode, flags, message
    ):
        # Each of these used to decode the whole image and then exit 2. A 40x1
        # image passed the radius check, which was all of the log-polar
        # mapping's rules that ran before the decode. A 1x1 frame, whose
        # farthest corner is its center, was refused as an r_min outside
        # (0, 0). The last --image wins. --out-shape outside invlogpolar was
        # ignored: the full frame was written, and the echoed config named it.
        files = {**geo_files, "broken": str(tmp_path / "broken.json"), "column": str(tmp_path / "column.pgm")}
        (tmp_path / "broken.json").write_text('{"m": 0.0,')
        write_pgm(tmp_path / "column.pgm", np.linspace(0.0, 1.0, 40)[:, None])
        reads = []
        monkeypatch.setattr("seslab.cli.read_pgm", lambda path: reads.append(path) or read_pgm(path))
        argv = ["warp", "--image", geo_files["image"], "--mode", mode, "--out", str(tmp_path / "out" / "w.pgm")]
        argv += [files.get(flag, flag) for flag in flags] + ["--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "invalid configuration: " in err and message in err
        assert reads == []
        assert not (tmp_path / "out").exists()

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
    @pytest.mark.parametrize(
        ("field", "flag", "values"),
        [("heights", "--heights", [48, 32, 48]), ("up_factors", "--up-factors", [2, 1, 2.0])],
    )
    def test_repeated_cells_rejected(self, tmp_path, capsys, source, field, flag, values):
        # Repeats used to exit 0 and write one identical row per repeat.
        argv = ["ssim-sweep", "--count", "1"]
        if source == "flag":
            argv += [flag, ",".join(map(str, values))]
        else:
            argv += ["--config", write_json(tmp_path / "config.json", {field: values})]
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and f"{field} must be distinct" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        ("heights", "up_factors", "message"),
        [
            ("16", "2,1e12", "up_factor 1e+12 (a roundtrip through 1.6e+13x1.6e+13 grids)"),
            ("16", "2,0.5", "finite real >= 1, got 0.5"),
            ("100000", "1", "up_factor 1 (a roundtrip through 100000x100000 grids)"),
            (str(10**400), "1", "up_factor 1 (a roundtrip through infxinf grids)"),
            ("96,abc", "1", "--heights must be integers separated by commas, got '96,abc'"),
            ("96", "1,2x", "--up-factors must be reals separated by commas, got '1,2x'"),
        ],
        ids=["huge-up", "below-1", "huge-height", "height-past-float", "height-not-an-integer", "up-not-a-real"],
    )
    def test_bad_cell_rejected_before_any_roundtrip(self, tmp_path, capsys, monkeypatch, heights, up_factors, message):
        # The first two used to run the u = 2 cell, then exit 2 and leave an
        # empty --out-dir; the third failed inside numpy; the fourth exited 2
        # from numpy's random generator and left an empty --out-dir. The last
        # two were refused by int() and float(), naming no flag.
        calls = []
        monkeypatch.setattr("seslab.cli.log_polar_roundtrip_ssim", lambda *args: calls.append(args) or 0.5)
        argv = ["ssim-sweep", "--heights", heights, "--up-factors", up_factors, "--count", "1"]
        assert main(argv + ["--out-dir", str(tmp_path / "o2")]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and message in err
        assert not calls
        assert not (tmp_path / "o2").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_rejected_before_any_corpus(self, tmp_path, capsys, monkeypatch, source):
        # numpy refused it inside the first corpus, naming no field, and the
        # empty --out-dir was left behind. Each height's CorpusSpec refuses it.
        calls = []
        monkeypatch.setattr("seslab.harness.synth_image", lambda *args: calls.append(args))
        argv = ["ssim-sweep", "--heights", "32", "--up-factors", "1", "--count", "1"]
        if source == "flag":
            argv += ["--seed", "-1"]
        else:
            argv += ["--config", write_json(tmp_path / "config.json", {"seed": -1})]
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
        assert "invalid configuration: corpus seed must be >= 0, got -1" in capsys.readouterr().err
        assert not calls
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_unknown_kind_rejected_before_any_corpus(self, tmp_path, capsys, monkeypatch, source):
        # synth_corpus refused it, after --out-dir was made. Each height's
        # CorpusSpec refuses it.
        calls = []
        monkeypatch.setattr("seslab.harness.synth_image", lambda *args: calls.append(args))
        argv = ["ssim-sweep", "--heights", "32", "--up-factors", "1", "--count", "1"]
        if source == "flag":
            argv += ["--kind", "stripes"]
        else:
            argv += ["--config", write_json(tmp_path / "config.json", {"kind": "stripes"})]
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration: corpus kind must be one of ('gaussian-blobs', 'checkerboard', " \
            "'bandlimited-noise'), got 'stripes'" in err
        assert not calls
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_zero_width_rejected(self, tmp_path, capsys, source):
        # A width of 0 used to run square images. It has no SSIM window.
        argv = ["ssim-sweep", "--heights", "32", "--up-factors", "1", "--count", "1"]
        if source == "flag":
            argv += ["--width", "0"]
        else:
            argv += ["--config", write_json(tmp_path / "config.json", {"width": 0})]
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration: heights and width must be >= 11 (the SSIM window), got (32, 0)" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--heights", "16,9"], "heights and width must be >= 11 (the SSIM window), got (16, 9)"),
            (["--heights", "4"], "heights and width must be >= 11 (the SSIM window), got (4,)"),
            (["--heights", "16", "--width", "10"], "heights and width must be >= 11 (the SSIM window), got (16, 10)"),
            (["--heights", "16", "--count", str(10**12)], "SSIM value per up_factor for each of 1000000000000 images"),
        ],
        ids=["second-height", "only-height", "width", "corpus"],
    )
    def test_cell_without_an_ssim_window_or_memory_rejected_before_any_work(
        self, tmp_path, capsys, monkeypatch, flags, message
    ):
        # The first three used to run the cells before the small one, then exit
        # 2 and leave an empty --out-dir; the corpus was not planned at all.
        # The last plans a seed per image, which do not fit.
        calls = []
        monkeypatch.setattr("seslab.harness.synth_image", lambda *args: calls.append(args))
        monkeypatch.setattr("seslab.cli.log_polar_roundtrip_ssim", lambda *args: calls.append(args) or 0.5)
        argv = ["ssim-sweep", "--up-factors", "1", "--count", "1", *flags, "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and message in err
        assert not calls
        assert not (tmp_path / "out").exists()

    def test_one_image_is_held_at_a_time(self, tmp_path, monkeypatch):
        # A cell's plan counts one image and the seeds. The whole corpus of a
        # height used to be held, 10 images of 300x300 (7.2 MB) here.
        monkeypatch.setattr("seslab.cli.log_polar_roundtrip_ssim", lambda *args: 0.5)
        peaks = []
        for count in ("2", "10"):
            tracemalloc.start()
            try:
                argv = ["ssim-sweep", "--heights", "300", "--up-factors", "1,2", "--count", count]
                assert main(argv + ["--out-dir", str(tmp_path / count)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 300 * 300 * 8

    def test_seeds_and_roundtrip_are_planned_together(self, tmp_path, capsys, monkeypatch):
        # One image with the seeds and values of every image fits on its own,
        # and so does the roundtrip; the cell holds both. Nothing is allocated.
        values = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 8
        count = 2 * (values - 1000 * 1000) // 3  # 1.5 doubles per image: a 4-byte seed and a value
        calls = []
        monkeypatch.setattr("seslab.harness.synth_image", lambda *args: calls.append(args))
        monkeypatch.setattr("seslab.cli.log_polar_roundtrip_ssim", lambda *args: calls.append(args) or 0.5)
        argv = ["ssim-sweep", "--heights", "1000", "--up-factors", "1", "--count", str(count)]
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
        assert (
            f"one image of 1000x1000 at a time, a seed and an SSIM value per up_factor for each of {count} images, "
            "and the up_factor 1 roundtrip"
        ) in capsys.readouterr().err
        assert not calls
        assert not (tmp_path / "out").exists()

    def test_mean_is_the_fsum_over_the_corpus_in_image_order(self, tmp_path):
        # Each image runs at every up-factor in turn; each cell still sums its
        # values over the corpus in image order.
        argv = ["ssim-sweep", "--heights", "24,32", "--width", "40", "--up-factors", "1,1.5", "--count", "3"]
        argv += ["--kind", "gaussian-blobs", "--seed", "7", "--format", "json", "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        rows = json.loads((tmp_path / "ssim_sweep.json").read_text())
        assert [(row["height"], row["up_factor"], row["n"]) for row in rows] == [
            (24, 1.0, 3), (24, 1.5, 3), (32, 1.0, 3), (32, 1.5, 3)
        ]
        for row in rows:
            corpus = synth_corpus("gaussian-blobs", 3, row["height"], 40, 7)
            expected = math.fsum(log_polar_roundtrip_ssim(image, row["up_factor"]) for image in corpus) / 3
            assert row["mean_ssim"] == expected


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
        assert load(EquivConfig, echoed) == load(EquivConfig, json.loads(Path(tiny_config).read_text()))

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

    def test_report_is_byte_identical_with_and_without_maps(self, tmp_path, tiny_config):
        for name, extra in (("bare", []), ("maps", ["--maps"])):
            argv = ["equiv", "--config", tiny_config, "--out-dir", str(tmp_path / name), "--format", "json"]
            assert main(argv + extra) == 0
        for report in ("equiv_report.csv", "equiv_report.json"):
            assert (tmp_path / "bare" / report).read_bytes() == (tmp_path / "maps" / report).read_bytes()
        assert not (tmp_path / "bare" / "maps").exists()

    def test_maps_reuse_report_forwards(self, tmp_path, tiny_config, monkeypatch):
        builds, described, loads = [], [], []
        real_build, real_describe = sesconv.build_stack, CorpusSpec.describe

        def counting_build(*args, **kwargs):
            builds.append(1)
            return real_build(*args, **kwargs)

        def counting_describe(self):
            described.append(1)
            extents, load = real_describe(self)
            return extents, lambda i: loads.append(i) or load(i)

        for module in (harness, sesconv):
            monkeypatch.setattr(module, "build_stack", counting_build)
        monkeypatch.setattr(CorpusSpec, "describe", counting_describe)
        assert main(["equiv", "--config", tiny_config, "--out-dir", str(tmp_path), "--maps"]) == 0
        assert (len(builds), len(described), loads) == (2, 1, [0, 1])  # each image is loaded once

        config = EquivConfig.from_dict(json.loads(Path(tiny_config).read_text()))
        image = config.corpus.load()[0]
        s = config.scale_factors[0]
        for kind in ("ses", "vanilla"):
            stack = real_build(replace(config.stack, kind=kind))
            for block in config.blocks:
                expected = tmp_path / "expected.pgm"
                write_pgm(expected, error_map(stack, image, s, block))
                written = tmp_path / "maps" / f"error_{kind}_block{block}.pgm"
                assert written.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("source", ["synthetic", "image_dir"])
    def test_crop_margin_too_wide_for_the_corpus_fails_before_any_forward(
        self, tmp_path, capsys, monkeypatch, source
    ):
        calls = []
        monkeypatch.setattr(sesconv.Stack, "forward", lambda stack, image: calls.append("forward"))
        monkeypatch.setattr(harness, "build_stack", lambda spec: calls.append("build_stack"))
        corpus = {"kind": "gaussian-blobs", "count": 1, "height": 8, "width": 8, "seed": 0}
        if source == "image_dir":
            images = tmp_path / "images"
            images.mkdir()
            write_pgm(images / "a.pgm", synth_image("gaussian-blobs", 8, 8, seed=0))
            corpus = {"image_dir": str(images)}
        config = write_json(tmp_path / "config.json", {"corpus": corpus, "crop_margin": 0.45})
        tracemalloc.start()
        try:
            code = main(["equiv", "--config", config, "--out-dir", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "crop margin 0.45 leaves no pixel of a 8x8 grid" in capsys.readouterr().err
        assert peak < 1024 * 1024
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_invalid_threads_leave_no_output_directory(self, tmp_path, capsys, monkeypatch, tiny_config):
        # The directory used to be made before run_experiment read SESLAB_THREADS.
        monkeypatch.setenv("SESLAB_THREADS", "abc")
        assert main(["equiv", "--config", tiny_config, "--out-dir", str(tmp_path / "o")]) == 2
        assert "invalid configuration: SESLAB_THREADS must be an integer, got 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_stack_kind_other_than_ses_is_config_error(self, tmp_path, capsys, tiny_config):
        # A vanilla kind was accepted, echoed and ignored: both kinds ran.
        payload = json.loads(Path(tiny_config).read_text())
        payload["stack"]["kind"] = "vanilla"
        config = write_json(tmp_path / "vanilla.json", payload)
        assert main(["equiv", "--config", config, "--out-dir", str(tmp_path / "out")]) == 2
        assert "invalid configuration: stack.kind must be 'ses'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("spec", ["corpus", "stack"])
    def test_negative_seed_is_config_error_before_any_stack(self, tmp_path, capsys, monkeypatch, tiny_config, spec):
        # numpy refused it only after both stacks were built (a corpus seed)
        # or while building the first (a stack seed), naming no field.
        calls = []
        for name in ("corpus_seeds", "build_stack"):
            monkeypatch.setattr(harness, name, lambda *args, name=name: calls.append(name))
        payload = json.loads(Path(tiny_config).read_text())
        payload[spec]["seed"] = -1
        config = write_json(tmp_path / "negative.json", payload)
        assert main(["equiv", "--config", config, "--out-dir", str(tmp_path / "out")]) == 2
        assert f"invalid configuration: {spec} seed must be >= 0, got -1" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_unknown_corpus_kind_is_config_error_before_any_stack(self, tmp_path, capsys, monkeypatch, tiny_config):
        # It was refused only inside the first share, after the plan and both
        # stack builds, naming no field.
        calls = []
        for name in ("corpus_seeds", "build_stack"):
            monkeypatch.setattr(harness, name, lambda *args, name=name: calls.append(name))
        payload = json.loads(Path(tiny_config).read_text())
        payload["corpus"]["kind"] = "stripes"
        config = write_json(tmp_path / "stripes.json", payload)
        assert main(["equiv", "--config", config, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration: corpus kind must be one of ('gaussian-blobs', 'checkerboard', " \
            "'bandlimited-noise'), got 'stripes'" in err
        assert calls == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(("field", "value"), [("height", -5), ("height", 7), ("width", 0)])
    def test_synthetic_extent_below_eight_is_config_error_naming_the_field(
        self, tmp_path, capsys, field, value
    ):
        # A negative height was reported as a crop margin leaving no pixel.
        config = write_json(tmp_path / "config.json", {"corpus": {field: value}})
        assert main(["equiv", "--config", config, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"invalid configuration: corpus {field} must be >= 8 for synthetic images, got {value}" in err
        assert "crop margin" not in err
        assert not (tmp_path / "equiv_report.csv").exists()

    @pytest.mark.parametrize(
        ("corpus", "message"),
        [
            ({"height": 10**400}, "corpus of 20 images (the largest 1000"),
            ({"height": 200000, "width": 200000}, "corpus of 20 images (the largest 200000x200000)"),
            ({"count": 10**12, "height": 8, "width": 8}, "corpus of 1000000000000 images (the largest 8x8)"),
        ],
        ids=["height-past-float", "200000-square", "count-1e12"],
    )
    def test_corpus_too_large_for_memory_is_usage_error(self, tmp_path, capsys, monkeypatch, corpus, message):
        # The first exited 1 with an OverflowError traceback from the crop
        # window; the second (298 GiB) failed inside numpy. The third is
        # refused by its cells: no image seed or cell is made.
        calls = []
        for name in ("corpus_seeds", "synth_image", "build_stack"):
            monkeypatch.setattr(harness, name, lambda *args, name=name: calls.append(name))
        config = write_json(tmp_path / "config.json", {"corpus": corpus})
        tracemalloc.start()
        try:
            code = main(["equiv", "--config", config, "--out-dir", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid configuration: " + message in err and "physical memory" in err
        assert peak < 1024 * 1024
        assert calls == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        ("stack", "message"),
        [
            (
                {"layers": [{"out_channels": 1, "k": 1000001}]},
                "a basis of k 1000001 (3 scales of 16 1000001x1000001 filters)",
            ),
            (
                {"layers": [{"out_channels": 64, "k": 501}] * 2},
                "layer 2 of k 501 (the bases, [S, O, C, k, k] kernels and coefficients of layers 1..2)",
            ),
            (
                {"layers": [{"out_channels": 1000000, "k": 1}, {"out_channels": 1, "k": 1}], "max_order": 0},
                "the calibration forward of layers 1..1 on a 96x96 probe, and the stack's weights",
            ),
        ],
        ids=["k-1000001", "two-64-channel-k-501", "calibration-of-1000000-channels"],
    )
    def test_stack_weights_too_large_for_memory_are_refused_before_any_stack(
        self, tmp_path, capsys, monkeypatch, stack, message
    ):
        # All used to end in a MemoryError traceback: the first in the basis
        # profiles (7.28 TiB), the second in the [3, 64, 64, 501, 501]
        # kernels (23.0 GiB), after a plan that counted feature maps only,
        # and the third in the calibration forward's [3000000, 96, 96] map
        # (206 GiB), which no plan counted. The machine is taken to have 16 GiB.
        monkeypatch.setattr(grid.os, "sysconf", lambda name: 4096 if name == "SC_PAGE_SIZE" else 1 << 22)
        calls = []
        for name in ("corpus_seeds", "build_stack"):
            monkeypatch.setattr(harness, name, lambda *args, name=name: calls.append(name))
        blocks = list(range(1, len(stack["layers"]) + 1))
        corpus = {"count": 1, "height": 16, "width": 16}
        config = write_json(tmp_path / "config.json", {"corpus": corpus, "blocks": blocks, "stack": stack})
        tracemalloc.start()
        try:
            code = main(["equiv", "--config", config, "--out-dir", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"seslab: invalid configuration: {message} plans ")
        assert "physical memory" in err and "base_sigma" not in err and "Traceback" not in err
        assert peak < 1024 * 1024
        assert calls == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("s", [1e-310, 5e-324])
    def test_scale_factor_that_overflows_the_grid_is_refused_by_name(self, tmp_path, capsys, monkeypatch, s):
        # It printed a RuntimeWarning from the scale map, then exited 2 with
        # "sample coordinates must be finite", naming no factor.
        calls = []
        monkeypatch.setattr(harness, "build_stack", lambda *args: calls.append("build_stack"))
        corpus = {"count": 1, "height": 16, "width": 16}
        config = write_json(tmp_path / "config.json", {"corpus": corpus, "scale_factors": [s]})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["equiv", "--config", config, "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"seslab: invalid configuration: scale factor {s} maps the corner of a 16x16 grid past the float range\n"
        )
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert calls == []
        assert not (tmp_path / "out").exists()

    # Repeated scale factors or blocks wrote a report row per listed cell
    # and reran its forwards.
    @pytest.mark.parametrize(
        "payload", ['{"blocks": [9]}', '{"scale_factors": [0.8, 0.8]}', '{"blocks": [2, 1, 2]}']
    )
    def test_malformed_config_rejected(self, tmp_path, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(payload)
        assert main(["equiv", "--config", str(bad), "--out-dir", str(tmp_path)]) == 2
        assert not (tmp_path / "equiv_report.csv").exists()


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


@pytest.mark.parametrize(
    ("raw", "message"),
    [
        (b"", "truncated header, missing magic"),
        (b"P5\n4 4\n255\n" + bytes(15), "expected 16 payload bytes for 4x4 maxval 255, got 15"),
        (b"P5\n4 4\n255\n" + bytes(17), "expected 16 payload bytes for 4x4 maxval 255, got 17"),
    ],
    ids=["empty", "one-byte-short", "one-byte-long"],
)
@pytest.mark.parametrize("command", ["warp", "equiv"])
def test_malformed_pgm_is_io_error_before_any_work(tmp_path, capsys, monkeypatch, command, raw, message):
    images = tmp_path / "images"
    images.mkdir()
    write_pgm(images / "a.pgm", synth_image("gaussian-blobs", 16, 16, seed=0))
    (images / "b.pgm").write_bytes(raw)
    calls = []
    monkeypatch.setattr(harness, "build_stack", lambda spec: calls.append("build_stack"))
    monkeypatch.setattr("seslab.cli.read_pgm", lambda path: calls.append("read_pgm"))
    argv = {
        "warp": ["warp", "--image", str(images / "b.pgm"), "--mode", "logpolar", "--out", str(tmp_path / "out" / "x.pgm")],
        "equiv": ["equiv", "--config", write_json(tmp_path / "config.json", {"corpus": {"image_dir": str(images)}})],
    }[command]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 1
    assert f"i/o error: {images / 'b.pgm'}: {message}" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["equiv", "basis", "warp"])
def test_json_nested_past_the_recursion_limit_is_usage_error(tmp_path, capsys, geo_files, command):
    # Each of these ended in a RecursionError traceback.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    argv = {
        "equiv": ["equiv", "--config", str(deep)],
        "basis": ["basis", "--config", str(deep), "--out", str(tmp_path / "out" / "b.f64")],
        "warp": ["warp", "--image", geo_files["image"], "--mode", "projective", "--plane", str(deep),
                 "--motion", geo_files["motion"], "--intrinsics", geo_files["intrinsics"],
                 "--out", str(tmp_path / "out" / "x.pgm")],
    }[command]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"invalid configuration: {deep}: malformed JSON" in err
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

    def test_corrupted_basis_norm_detected(self, capsys, monkeypatch):
        # filters scaled by 1.01 fail the norm check (and only it)
        real = selftest.build_basis

        def scaled(*args, **kwargs):
            basis = real(*args, **kwargs)
            return replace(basis, filters=basis.filters * 1.01)

        monkeypatch.setattr(selftest, "build_basis", scaled)
        assert main(["selftest"]) == 1
        out = capsys.readouterr().out
        assert "FAIL basis-filter-l2-norm" in out and "1 of 9 checks failed" in out

    def test_ssim_symmetry_checked(self, capsys, monkeypatch):
        assert main(["selftest"]) == 0
        assert "ok   ssim-symmetric" in capsys.readouterr().out
        # an order-dependent score fails the check (and only it)
        monkeypatch.setattr("seslab.selftest.ssim", lambda a, b: 1.0 if a is b else float(a[0, 0] - b[0, 0]))
        assert main(["selftest"]) == 1
        out = capsys.readouterr().out
        assert "FAIL ssim-symmetric" in out and "1 of 9 checks failed" in out
