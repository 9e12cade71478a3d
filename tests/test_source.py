"""Rules that hold for the package source as a whole."""

import ast
from pathlib import Path

import quatsurf


def test_no_assert_statements():
    # python -O strips every assert, so no check in the package may rest on one
    modules = sorted(Path(quatsurf.__file__).parent.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
