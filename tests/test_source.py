"""Guards over the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import glhom
from glhom import gl_order_poly

SOURCES = sorted(Path(glhom.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert statements, so invariants are raised as exceptions
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) >= 8
    assert found == []


def _unbounded(decorator: ast.expr) -> bool:
    """``functools.cache``, or ``lru_cache`` given maxsize None."""
    if isinstance(decorator, ast.Call):
        sizes = decorator.args[:1] + [k.value for k in decorator.keywords if k.arg == "maxsize"]
        return any(isinstance(v, ast.Constant) and v.value is None for v in sizes)
    return ast.unparse(decorator) in ("cache", "functools.cache")


def test_no_unbounded_caches():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(map(_unbounded, node.decorator_list))
    ]
    assert found == []
    assert gl_order_poly.cache_info().maxsize is not None



def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def test_profiles_validate_only_on_construction():
    # every DegreeProfile is valid once built, so nothing else re-validates one
    trees = _trees()
    calls = [
        (name, node.lineno)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).split(".")[-1] == "validate_profile"
    ]
    post_init = next(
        fn
        for fn in ast.walk(trees["profiles.py"])
        if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
    )
    assert [
        (name, post_init.lineno < line <= post_init.end_lineno) for name, line in calls
    ] == [("profiles.py", True)]


def test_no_cap_parameters():
    # caps are module constants (oracle.MAX_CANDIDATES, counting.MAX_WORK_BITS, ...),
    # never arguments
    found = [
        f"{name}:{fn.name}({arg.arg})"
        for name, tree in _trees().items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        if arg.arg in ("max_candidates", "cap")
    ]
    assert found == []
