"""Every function the benchmark tracer wraps must exist in the seslab modules.

The tracer in perfbench/spans.py patches ``owner.__dict__[name]`` for each
target, so a refactor that renames or deletes one breaks traced benchmark
runs. This test catches that without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize(
    "module_name, path",
    sorted(set(spans.TRACE_TARGETS) | set(spans.LATENCY_TARGETS)),
    ids=lambda value: value,
)
def test_trace_target_resolves(module_name, path):
    owner = importlib.import_module(f"seslab.{module_name}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(owner.__dict__.get(attr)), f"seslab.{module_name}.{path} is not defined"
