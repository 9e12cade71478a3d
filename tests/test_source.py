"""Rules that hold for the package source as a whole."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import quatsurf
from quatsurf import census


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


def _module_level_imports(tree):
    """The modules a source imports when it loads: every import outside a
    function body (class bodies and top-level if/try blocks run at import)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
        stack.extend(ast.iter_child_nodes(node))


def test_only_census_imports_numpy_at_load():
    # the engines that build arrays import numpy in their own bodies, so the
    # scalar layer (units, covolumes, splitting) runs without numpy's 12 MB
    modules = sorted(Path(quatsurf.__file__).parent.rglob("*.py"))
    loading = {
        path.name
        for path in modules
        if any(name.split(".")[0] == "numpy" for name in _module_level_imports(ast.parse(path.read_text(), filename=str(path))))
    }
    assert loading == {"census.py"}


def test_scalar_layer_runs_without_numpy():
    # the calls of a units batch: fundamental units, the smallest odd split
    # prime by Miller-Rabin, and one covolume L(2, chi)
    code = """if True:
        import sys
        from quatsurf import QuadraticField, QuatAlgK, geodesic_length_real_quadratic, kleinian_covolume, primes_above, split_primes_prefix
        lengths = [geodesic_length_real_quadratic(d).length for d in (1000033, 1000037)]
        k = QuadraticField(-10007)
        p = split_primes_prefix(k, 1).primes[0]
        cov = kleinian_covolume(QuatAlgK(-10007, frozenset(primes_above(k, p))))
        print(p, cov.l_value > 0, all(x > 0 for x in lengths), sorted({"numpy", "quatsurf.census"} & set(sys.modules)))
    """
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120)
    assert res.stdout == "3 True True []\n"


def test_public_names_resolve():
    # the census names resolve on first access, through the package's __getattr__
    for name in quatsurf.__all__:
        assert getattr(quatsurf, name) is not None, name
    for name in ("AlgebraCensus", "PrimePredicate", "algebra_census", "wood_stats"):
        assert getattr(quatsurf, name) is getattr(census, name)
    namespace = {}
    exec("from quatsurf import *", namespace)
    assert set(quatsurf.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        quatsurf.no_such_name
