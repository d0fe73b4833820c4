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
