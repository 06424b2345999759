"""Checks on the library source itself."""

import ast
from pathlib import Path

import noncrossing

_PACKAGE = Path(noncrossing.__file__).resolve().parent


def test_no_bare_asserts():
    # python -O strips assert statements, so integrity checks must raise
    found = []
    for path in sorted(_PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, f"bare asserts in the library: {', '.join(found)}"
