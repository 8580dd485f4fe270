"""The package root exports exactly what it imports."""

import ast
from pathlib import Path

import seslab


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse(Path(seslab.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    imported = [alias.asname or alias.name for node in imports for alias in node.names]
    assert len(imported) == len(set(imported))
    assert sorted(seslab.__all__) == sorted(imported)
    assert all(hasattr(seslab, name) for name in seslab.__all__)
