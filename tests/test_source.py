"""Rules that hold for the package source as a whole."""

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import quatsurf
from quatsurf import census, quadfields


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
        from quatsurf import wood_stats  # the discriminant reductions resolve without numpy or census
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
    for name in ("AlgebraCensus", "PrimePredicate", "algebra_census"):
        assert getattr(quatsurf, name) is getattr(census, name)
    for name in ("wood_stats", "ramification_probability_check"):
        assert getattr(quatsurf, name) is getattr(quadfields, name)
    namespace = {}
    exec("from quatsurf import *", namespace)
    assert set(quatsurf.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        quatsurf.no_such_name


def test_all_is_the_imported_names_and_the_census_names():
    # __all__ is derived from the package namespace; read from the source instead,
    # it is every name of a `from .x import ...` and the census tuple, so a constant
    # imported there, which the derivation drops, shows up as a difference, and a
    # public helper defined there, which it drops too, is refused outright
    tree = ast.parse(Path(quatsurf.__file__).read_text())
    imported = [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]
    defined = [node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    defined += [target.id for node in tree.body if isinstance(node, ast.Assign) for target in node.targets if isinstance(target, ast.Name)]
    assert [name for name in defined if not name.startswith("_")] == []
    tuples = [node.value for node in tree.body if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)]
    assert len(tuples) == 1
    census_names = [ast.literal_eval(element) for element in tuples[0].elts]
    assert census_names and not set(census_names) & set(imported)
    assert quatsurf.__all__ == sorted(imported + census_names)


def _private_reads(path: Path) -> list[str]:
    """module.name reads, and from-imports, of a single-underscore name of
    another quatsurf module in the source at path."""
    tree = ast.parse(path.read_text(), filename=str(path))
    siblings = {path.stem for path in path.parent.glob("*.py")}
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("quatsurf")):
            for alias in node.names:
                if node.module in (None, "quatsurf") and alias.name in siblings:
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_") and not alias.name.startswith("__"):
                    found.append(f"{path.name}:{node.lineno} imports {alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            if node.attr.startswith("_") and not node.attr.startswith("__"):
                found.append(f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    # an underscore name is its module's own layout; a second module that
    # reads it knows that layout too, and breaks when it changes
    modules = sorted(Path(quatsurf.__file__).parent.glob("*.py"))
    assert [found for path in modules for found in _private_reads(path)] == []


def test_oracles_read_only_the_scalar_layer():
    # an oracle that calls the code it checks checks nothing: tests/oracles.py
    # reads from quatsurf one scalar function, a type and an error, no engine
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    siblings = {path.stem for path in Path(quatsurf.__file__).parent.glob("*.py")}
    modules, reads = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            reads.update(alias.name for alias in node.names if alias.name.split(".")[0] == "quatsurf")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "quatsurf":
            for alias in node.names:
                if node.module == "quatsurf" and alias.name in siblings:
                    modules.add(alias.asname or alias.name)
                else:
                    reads.add(alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            reads.add(f"{node.value.id}.{node.attr}")
    assert reads == {"arith.kronecker", "SplitType", "VerificationError"}


def test_modules_below_token_step():
    # CPython 3.11's parser doubles its token array at 4,096 tokens (tokenize's,
    # without NL and COMMENT): a module past that costs 0.04-0.08 MB of peak RSS
    # in every process that compiles it
    for path in sorted(Path(quatsurf.__file__).parent.glob("*.py")):
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        count = sum(token.type not in (tokenize.NL, tokenize.COMMENT) for token in tokens)
        assert count < 4096, (path.name, count)
