"""README's CLI examples name only commands and flags that the parser takes,
and its warp example runs on the geometry files it documents."""

import json
import re
import shlex
from pathlib import Path

import pytest

from seslab import synth_image, write_pgm
from seslab.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_block() -> str:
    """The code block of README's ``## CLI`` section."""
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```sh\n", 1)[1].split("```", 1)[0]


def cli_examples() -> list:
    """The argv of every ``seslab ...`` line in the code block of README's
    ``## CLI`` section, backslash continuations joined."""
    lines = cli_block().replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("seslab ")]


def test_every_subcommand_has_an_example():
    commands = {argv[0] for argv in cli_examples()}
    assert commands == {"basis", "warp", "ssim-sweep", "equiv", "selftest"}


@pytest.mark.parametrize("argv", cli_examples(), ids=lambda argv: " ".join(argv[:3]))
def test_example_parses(argv):
    build_parser().parse_args(argv)


def warp_example_files() -> dict:
    """{name: payload} of each ``# name.json: {...}`` comment of README's CLI block."""
    decoder = json.JSONDecoder()
    files = {}
    for line in cli_block().splitlines():
        match = re.match(r"# (\w+\.json):\s*", line)
        if match:
            files[match.group(1)] = decoder.raw_decode(line[match.end() :])[0]
    return files


@pytest.mark.parametrize("mode", ["projective", "scale"])
def test_warp_example_runs(tmp_path, monkeypatch, mode):
    # The documented geometry on a KITTI-sized frame, within its intrinsics' grid.
    (argv,) = [argv for argv in cli_examples() if argv[:2] == ["warp", "--image"] and "projective" in argv]
    argv = [mode if arg == "projective" else arg for arg in argv]
    files = warp_example_files()
    assert sorted(files) == ["intr.json", "motion.json", "plane.json"]
    monkeypatch.chdir(tmp_path)
    for name, payload in files.items():
        Path(name).write_text(json.dumps(payload))
    write_pgm(argv[argv.index("--image") + 1], synth_image("gaussian-blobs", 375, 1242, seed=0))
    assert main(argv) == 0
    metrics = json.loads((Path(argv[argv.index("--out-dir") + 1]) / "warp_metrics.json").read_text())
    assert metrics["mode"] == mode and metrics["scale_factor"] == 1.1
