"""Package-wide checks: the root exports exactly what it imports, one module holds the number rule, no refusal raises a bare ValueError, and no module imports a name it never uses."""

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


def test_every_refusal_raises_a_typed_seslab_error():
    # ShapeError, ConfigError and DegenerateGeometryError are ValueErrors that
    # say what was wrong; a bare ValueError says nothing of it.
    src = Path(seslab.__file__).parent
    raised = [
        (path.name, node.lineno, getattr(node.exc, "func", node.exc))  # the class of `raise C(...)` or `raise C`
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise) and node.exc is not None
    ]
    assert raised
    assert [f"{name}:{line}" for name, line, exc in raised if isinstance(exc, ast.Name) and exc.id == "ValueError"] == []


def _names(tree) -> set:
    """The names that ``tree`` reads, writes or deletes, those of string
    annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            names |= _names(ast.parse(annotation.value, mode="eval"))
    return names


def test_every_import_is_used():
    # __init__.py imports its names to re-export them; every other module
    # must reference each name it imports, if only in an annotation.
    src = Path(seslab.__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = _names(tree)
        unused += [
            f"{path.name}:{node.lineno} {alias.asname or alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (alias.asname or alias.name.partition(".")[0]) not in used
        ]
    assert unused == []
