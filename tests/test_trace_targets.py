"""Every function the benchmark tracer wraps must exist in the seslab modules.

The tracer in perfbench/spans.py patches ``owner.__dict__[name]`` for each
target, so a refactor that renames or deletes one breaks traced benchmark
runs. This test catches that without running the benchmark.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seslab

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


def test_package_import_loads_every_target_module():
    # The tracer looks each target's module up in sys.modules after a fresh
    # `import seslab, seslab.cli`, so a module that import leaves unloaded
    # stops every benchmark run with a KeyError.
    modules = sorted({f"seslab.{name}" for name, _ in (*spans.TRACE_TARGETS, *spans.LATENCY_TARGETS)})
    code = f"import sys, seslab, seslab.cli; print([m for m in {modules!r} if m not in sys.modules])"
    src = str(Path(seslab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"
