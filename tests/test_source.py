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
