import ast
from pathlib import Path

import matrange

SOURCES = sorted(Path(matrange.__file__).parent.glob("*.py"))


def test_no_assert_guards_in_package():
    # python -O strips assert statements: invariants raise InternalInvariantError
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Name) and node.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert SOURCES and not found, found


def test_no_floating_point_in_package():
    # the decision path is exact: no float literal, no float or complex name
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))) or (
                isinstance(node, ast.Name) and node.id in ("float", "complex")
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert SOURCES and not found, found


def test_every_import_is_used():
    # __init__.py imports to re-export; elsewhere an import must be read
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert SOURCES and not unused, unused
