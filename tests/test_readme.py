"""README's CLI examples name only commands and flags that the parser takes."""

import shlex
from pathlib import Path

import pytest

from seslab.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_examples() -> list:
    """The argv of every ``seslab ...`` line in the code block of README's
    ``## CLI`` section, backslash continuations joined."""
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("seslab ")]


def test_every_subcommand_has_an_example():
    commands = {argv[0] for argv in cli_examples()}
    assert commands == {"basis", "warp", "ssim-sweep", "equiv", "selftest"}


@pytest.mark.parametrize("argv", cli_examples(), ids=lambda argv: " ".join(argv[:3]))
def test_example_parses(argv):
    build_parser().parse_args(argv)
