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


def test_volumes_imports_no_numpy():
    # dirichlet_L2 is scalar math: touching numpy's kernels maps pages of its
    # library into the process, which is what its peak RSS is measured on
    path = Path(quatsurf.__file__).parent / "volumes.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
    assert imported and not {name for name in imported if name.split(".")[0] == "numpy"}
