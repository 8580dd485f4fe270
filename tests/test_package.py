"""Package-wide checks: the root exports exactly what it imports, and one module holds the number rule."""

import ast
import re
from pathlib import Path

import seslab


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse(Path(seslab.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    imported = [alias.asname or alias.name for node in imports for alias in node.names]
    assert len(imported) == len(set(imported))
    assert sorted(seslab.__all__) == sorted(imported)
    assert all(hasattr(seslab, name) for name in seslab.__all__)


def test_the_number_rule_is_spelled_out_in_errors_only():
    # Every other module asks errors.is_integer and errors.as_real.
    src = Path(seslab.__file__).parent
    spelled = sorted(p.name for p in src.glob("*.py") if re.search(r"numbers\.(Real|Integral)", p.read_text()))
    assert spelled == ["errors.py"]
