"""Guards over the package source itself."""

from __future__ import annotations

import ast
import doctest
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import glhom

SOURCES = sorted(Path(glhom.__file__).parent.glob("*.py"))
# the tests' naive minimal-tuple box search, held to the same rules where it builds a report
NAIVE_BOX = Path(__file__).with_name("naive_box.py")
# the tests' orbit-sum route to f_n, which lists the eligible tuples the package never lists
ORBIT_SUM = Path(__file__).with_name("orbit_sum.py")


def test_no_assert_statements():
    # python -O strips assert statements, so invariants are raised as exceptions
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert {path.stem for path in SOURCES} == {
        "__init__", "cli", "counting", "errors", "minimize", "oracle", "profiles",
    }
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


def _trees(*extra: Path) -> dict[str, ast.Module]:
    return {
        path.name: ast.parse(path.read_text(), filename=str(path)) for path in (*SOURCES, *extra)
    }


# the opening words of each profile invariant's ValidationError
PROFILE_INVARIANTS = (
    "degree list is empty", "degrees must be positive integers",
    "multiplicities must be positive integers", "degrees must be sorted non-decreasing",
    "each degree must form one group", "d_1 != 1: the trivial representation must be present",
    "degree-square sum",
)


def test_profiles_validate_only_on_construction():
    # every DegreeProfile is valid once built, so its invariants are raised in its __init__
    # alone, each once, and nothing can re-check a profile that exists
    trees = _trees()
    raises = [
        (name, node.lineno, text)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
        for text in PROFILE_INVARIANTS
        if text in ast.unparse(node.exc)
    ]
    profile_class = next(
        cls
        for cls in ast.walk(trees["profiles.py"])
        if isinstance(cls, ast.ClassDef) and cls.name == "DegreeProfile"
    )
    init = next(
        fn for fn in profile_class.body if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
    )
    assert sorted(text for _, _, text in raises) == sorted(PROFILE_INVARIANTS)
    assert {(name, init.lineno < line <= init.end_lineno) for name, line, _ in raises} == {
        ("profiles.py", True)
    }


def _attribute_readers(trees: dict[str, ast.Module], attr: str) -> set[tuple[str, str]]:
    """(module, qualified function) of every function that reads ``<expr>.attr``."""
    found: set[tuple[str, str]] = set()

    def visit(node: ast.AST, module: str, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Attribute) and child.attr == attr:
                found.add((module, scope))
            visit(child, module, scope)

    for module, tree in trees.items():
        visit(tree, module, "")
    return found


def test_degrees_are_grouped_once_and_expanded_only_where_coordinates_are_listed():
    # a profile holds (degree, multiplicity) groups; nothing regroups a flat
    # degree tuple, and a new reader of the a-long expansion is added here on purpose
    trees = _trees(NAIVE_BOX, ORBIT_SUM)
    assert not [
        (name, node.lineno)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and any(alias.name.split(".")[-1] == "groupby" for alias in node.names)
    ]
    assert not [
        (name, fn.lineno)
        for name, tree in trees.items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name == "_groups"
    ]
    assert _attribute_readers(trees, "degrees") == {
        ("cli.py", "_cmd_table"),  # the ``degrees`` field of ``table --json``
        ("counting.py", "hom_count_poly"),  # after its pre-flight
        ("naive_box.py", "_box_optima"),
        ("naive_box.py", "minimal_tuples_naive"),
        ("orbit_sum.py", "eligible_tuples"),
        ("orbit_sum.py", "orbit_poly"),
        ("profiles.py", "DegreeProfile.__str__"),
        # GroupSpec's own field, the degrees of a custom spec as written
        ("profiles.py", "GroupSpec.__str__"),
        ("profiles.py", "profile_of"),
    }


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


def test_minimal_tuple_search_has_no_global_ranges():
    # every group, degree 1 included, takes its totals from one interval per DP
    # state; no range of totals is fixed per residue from a global slack
    bound = {
        node.arg if isinstance(node, ast.arg) else node.id
        for node in ast.walk(_trees()["minimize.py"])
        if isinstance(node, ast.arg)
        or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }
    assert not bound & {"ranges", "slack"}


def test_one_dp_pass_for_the_count_polynomial():
    # the pre-flight works out the packed width from the H_n recurrence, and the one
    # DP pass reuses it: no pass at q = 1, no second, guessed width; the packed integer
    # is built and unpacked in counting.py alone
    trees = _trees()
    packed = {"_packed_states", "_unpack"}
    names = {
        ast.FunctionDef: lambda node: node.name,
        ast.Call: lambda node: ast.unparse(node.func).rpartition(".")[2],  # callee, bare
    }
    for kind, name_of in names.items():
        assert {
            (path, name_of(node))
            for path, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, kind) and name_of(node) in packed
        } == {("counting.py", name) for name in packed}
    tree = trees["counting.py"]
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "_packed_states"
    ]
    assert len(calls) == 1
    bound = {
        node.arg if isinstance(node, ast.arg) else node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.arg)
        or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }
    assert not bound & {"max_bits", "l1"}


def test_one_report_builder_for_the_minimal_tuple_search():
    # _solve returns (S_w, m_w, b, tables): one function builds a report from them, besides
    # the tests' naive reference, and leading_term reads S_n and m_n without any report
    builders, leading_calls = set(), set()
    for name, tree in _trees(NAIVE_BOX).items():
        for top in tree.body:
            scope = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    called = ast.unparse(node.func).split(".")[-1]
                    if called == "MinimalReport":
                        builders.add((name, scope))
                    if (name, scope) == ("minimize.py", "leading_term"):
                        leading_calls.add(called)
    assert builders == {
        ("minimize.py", "minimal_tuples"), ("naive_box.py", "minimal_tuples_naive"),
    }
    assert "_solve" in leading_calls
    assert not {called for called in leading_calls if called.startswith("minimal_tuples")}


def test_one_enumerator_and_one_digit_walk_in_the_oracle():
    # the pure-Python matrix reference lives in tests/prime_field.py; the
    # package keeps the numpy enumerator, whose index-to-digits walk is stated once
    trees = _trees()
    oracle_tree = trees["oracle.py"]
    assert {
        node.name for node in oracle_tree.body if isinstance(node, ast.ClassDef)
    } == {"Presentation"}
    assert "itertools" not in {
        name.split(".")[0]
        for node in ast.walk(oracle_tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in _imported(node)
    }
    assert {
        (name, fn.name)
        for name, tree in trees.items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.Name) and node.id == "_BLOCK_ROWS"
    } == {("oracle.py", "_digit_blocks")}
    with pytest.raises(AttributeError, match="no attribute 'PrimeFieldMatrix'"):
        glhom.PrimeFieldMatrix


def test_one_powering_routine_in_the_oracle():
    # an inverse is g^(2m-1) where g^m = 1, from the squaring that also filters
    # power relators: no adjugate, no table of determinant inverses
    tree = _trees()["oracle.py"]
    functions = {fn.name: fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
    assert "_batch_inverse" not in functions
    called = {
        ast.unparse(node.func).split(".")[-1]
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    assert not called & {"cross", "unique"}
    params = functions["_unit_blocks"].args
    assert (params.vararg, params.kwarg) == (None, None)
    assert [a.arg for a in params.posonlyargs + params.args + params.kwonlyargs] == [
        "n", "q", "e", "normal",
    ]
    assert [
        name
        for name, fn in functions.items()
        for loop in ast.walk(fn)
        if isinstance(loop, ast.For)
        and ast.unparse(loop.target) == "bit"
        and ast.unparse(loop.iter).startswith("bin(")
    ] == ["_power"]


def test_one_identity_test_in_the_oracle():
    # g^e = 1 and each relator are tested on their last product by _identity_rows,
    # and the digit walk divides only to build its low-digit table, not per block
    tree = _trees()["oracle.py"]
    functions = {fn.name: fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
    for name in ("_unit_blocks", "_eval_word"):
        called = {
            ast.unparse(node.func)
            for node in ast.walk(functions[name])
            if isinstance(node, ast.Call)
        }
        assert "_identity_rows" in called
    assert [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any("eye(" in ast.unparse(side) for side in (node.left, *node.comparators))
    ] == []
    assert [
        ast.unparse(node)
        for loop in ast.walk(functions["_digit_blocks"])
        if isinstance(loop, (ast.For, ast.While))
        for node in ast.walk(loop)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
    ] == []


def test_the_oracle_multiplies_entry_planes_elementwise():
    # a product is n^3 multiply-adds on (n, n, N) entry planes, and the join broadcasts rows
    # against candidates: no matmul, einsum or ``@``, and no repeated or tiled index rows
    tree = _trees()["oracle.py"]
    named = {
        node.attr if isinstance(node, ast.Attribute) else node.id
        for node in ast.walk(tree)
        if isinstance(node, (ast.Attribute, ast.Name))
    }
    assert not named & {"matmul", "einsum", "dot", "tensordot", "repeat", "tile"}
    assert not [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ]


def _module_level_imports(node: ast.AST):
    """Import statements that run when the module is imported: none inside a def."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _module_level_imports(child)


def _imported(node: ast.Import | ast.ImportFrom) -> list[str]:
    """Dotted names an import reaches, within the package: ``from . import oracle`` -> oracle."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
    return [name.lstrip(".").removeprefix("glhom.") for name in names]


def test_the_oracle_parses_no_text():
    # a Presentation is built from relator tuples alone, so the oracle has no grammar to raise on
    imported = {
        name
        for node in ast.walk(_trees()["oracle.py"])
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in _imported(node)
    }
    assert not imported & {"re", "errors.ParseError"}


def test_only_the_oracle_imports_numpy_and_nothing_imports_it_eagerly():
    found = {
        (path.name, name.split(".")[0])
        for path in SOURCES
        for node in _module_level_imports(ast.parse(path.read_text(), filename=str(path)))
        for name in _imported(node)
        if name.split(".")[0] in ("numpy", "oracle")
    }
    assert found == {("oracle.py", "numpy")}


def test_each_layer_imports_only_what_its_commands_run():
    # importing dataclasses costs each command about 10 ms; cli.py imports a layer only
    # inside the command that runs it; poly never loads the minimal-tuple search, and
    # the residue commands never load the polynomial layers
    trees = _trees()
    reached = {
        name: {
            imported.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for imported in _imported(node)
        }
        for name, tree in trees.items()
    }
    assert [name for name, modules in reached.items() if "dataclasses" in modules] == []
    assert {
        imported.split(".")[0]
        for node in _module_level_imports(trees["cli.py"])
        for imported in _imported(node)
    } == {"__future__", "sys", "errors", "profiles"}
    # the command line is read from cli._COMMANDS: argparse alone costs each command about 4 ms
    assert [name for name, modules in reached.items() if "argparse" in modules] == []
    assert "minimize" not in reached["counting.py"]
    assert not reached["minimize.py"] & {"counting"}


def test_one_command_table_drives_the_cli_and_only_main_prints_results():
    import glhom.cli as cli

    # each subcommand's function is its entry, and takes its own options' dests as keywords
    tree = _trees()["cli.py"]
    defined = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    entries = [fn.__name__ for fn, _, _ in cli._COMMANDS.values()]
    assert entries == [f"_cmd_{name}" for name in cli._COMMANDS]
    assert set(entries) == {name for name in defined if name.startswith("_cmd_")}
    for fn, _, options in cli._COMMANDS.values():
        own = {dest for flag, (dest, _, _, _) in options.items() if flag not in cli._COMMON}
        assert set(fn.__code__.co_varnames[2 : fn.__code__.co_argcount]) == own
    # every other print in cli.py is a diagnostic on standard error
    to_stdout = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "print"
        and "file=sys.stderr" not in map(ast.unparse, node.keywords)
    ]
    main = next(fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "main")
    assert to_stdout and all(main.lineno < line <= main.end_lineno for line in to_stdout)


def test_only_the_process_entry_exits_and_it_flushes_both_streams_first():
    # cli._run skips the interpreter's teardown with os._exit once stdout and stderr are
    # flushed; main, which tests and library callers run in process, returns its code and
    # never exits; the installed command and python -m glhom.cli both start at _run
    trees = _trees()
    exits = [
        (name, getattr(top, "name", None), node.lineno)
        for name, tree in trees.items()
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "os._exit"
    ]
    assert [(name, scope) for name, scope, _ in exits] == [("cli.py", "_run")]
    functions = {fn.name: fn for fn in trees["cli.py"].body if isinstance(fn, ast.FunctionDef)}
    flushes = [
        loop for loop in ast.walk(functions["_run"])
        if isinstance(loop, ast.For) and "stream.flush()" in map(ast.unparse, loop.body)
    ]
    assert len(flushes) == 1 and flushes[0].end_lineno < exits[0][2]
    assert {"sys.stdout", "sys.stderr"} <= set(map(ast.unparse, ast.walk(flushes[0].iter)))
    called = {
        ast.unparse(node.func) for node in ast.walk(functions["main"]) if isinstance(node, ast.Call)
    }
    assert not called & {"sys.exit", "os._exit", "exit", "quit", "os.abort"}
    guard = trees["cli.py"].body[-1]
    assert ast.unparse(guard) == "if __name__ == '__main__':\n    _run()"
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((Path(__file__).parent.parent / "pyproject.toml").read_text())
    assert project["project"]["scripts"] == {"glhom": "glhom.cli:_run"}


def test_leading_term_runs_one_nonnegative_search():
    # f_n's top comes from one _solve over the non-negative tuples of weight n, never from N,
    # and only leading_term asks _solve for that bound
    calls = [
        (name, top.name, node)
        for name, tree in _trees().items()
        for top in tree.body
        if isinstance(top, ast.FunctionDef)
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
    ]
    leading = [
        ast.unparse(node.func) for name, scope, node in calls
        if (name, scope) == ("minimize.py", "leading_term")
    ]
    assert leading.count("_solve") == 1 and "stability_bound" not in leading
    nonnegative = {
        (name, scope) for name, scope, node in calls
        if "nonnegative" in {keyword.arg for keyword in node.keywords}
    }
    assert nonnegative == {("minimize.py", "leading_term")}


_IMPORT_PROBE = """
import sys
before = set(sys.modules)
import contextlib, io
import glhom.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = glhom.cli.main({argv!r})
print(code, *sorted(set(sys.modules) - before & {watched!r}))
print(glhom.counting.__name__, hasattr(glhom, "intpoly"))
"""


def test_residue_and_poly_commands_leave_numpy_unloaded():
    # one fresh interpreter per command: the test process has every module loaded already
    # fractions is loaded only where a MinimalReport, with its eps_r, is built, and no command
    # reads its command line with argparse, whose messages load gettext and locale; then each
    # layer module is an attribute of the package, loaded on first use, and intpoly is gone
    watched = {
        "argparse", "dataclasses", "fractions", "gettext", "json", "locale", "numpy",
        "glhom.counting", "glhom.intpoly", "glhom.minimize", "glhom.oracle",
    }
    residue = "0 glhom.minimize"
    expected = {
        ("table", "--group", "sym:4"): "0 fractions glhom.minimize",
        ("bound", "--group", "sym:5"): residue,
        ("leading", "--group", "sym:4", "-n", "25"): residue,
        ("variety", "--group", "sym:4", "-n", "25"): residue,
        ("table", "--group", "sym:4", "--json"): "0 fractions glhom.minimize json",
        ("poly", "--group", "dihedral:5", "-n", "4", "--eval", "11"): "0 glhom.counting",
        ("verify", "--group", "cyclic:2", "-n", "2", "-q", "3"):
            "0 glhom.counting glhom.oracle numpy",
    }
    path = [str(Path(glhom.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    probed = {
        argv: subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE.format(argv=list(argv), watched=watched)],
            capture_output=True, text=True, env=env, check=True,
        ).stdout.splitlines()
        for argv in expected
    }
    assert {argv: lines[0] for argv, lines in probed.items()} == expected
    assert {argv: lines[1:] for argv, lines in probed.items()} == dict.fromkeys(
        expected, ["glhom.counting False"]
    )


# names with no caller in the package, gone from it: the orbit-sum route to f_n is the tests'
# reference in tests/orbit_sum.py, the lifting lemma's tests compute k*d_i + t_i inline, the
# tests build each Presentation from relator tuples, and each name repeating another's answer
# went (minimal_tuples takes any weight, a report carries eps_r, a profile checks itself, and
# the variety's dimension and top components are leading_term's exponent and coefficient)
REMOVED_NAMES = (
    "DivisionByZero IneligibleTuple LengthMismatch LiftedReport NonZeroRemainder UnstableRegime"
    " VarietyReport div_exact eligible_tuples epsilon gl_order_poly lift_minimal"
    " minimal_tuples_direct minimal_tuples_for_n orbit_poly parse_presentation validate_profile"
    " variety_report weight"
).split()


def test_the_package_exports_the_calculator_and_nothing_else():
    assert set(glhom.__all__) == {
        "hom_count_poly",
        "GlhomError", "InvariantViolation", "ParseError", "RangeError", "ResourceLimit",
        "UnsupportedFamily", "ValidationError",
        "NEG_INFINITY", "IntPolynomial",
        "LeadingTerm", "MinimalReport", "StabilityBound", "leading_term", "minimal_tuples",
        "stability_bound",
        "Presentation", "builtin_presentation", "gl_count", "hom_count_bruteforce",
        "DegreeProfile", "GroupSpec", "parse_group_spec", "profile_of", "splitting_field_check",
    }
    for name in REMOVED_NAMES:
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(glhom, name)
    defined = {
        node.name
        for tree in _trees().values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert not defined & set(REMOVED_NAMES)
    # f_n is returned, printed and evaluated, never multiplied, added or divided
    arithmetic = {"__mul__", "__rmul__", "__add__", "__sub__", "__neg__", "__floordiv__"}
    assert not arithmetic & set(vars(glhom.IntPolynomial))
    # IntPolynomial((1,)) is the one polynomial, and ``not poly`` tests for zero
    for member in ("one", "is_zero"):
        with pytest.raises(AttributeError, match=f"no attribute '{member}'"):
            getattr(glhom.IntPolynomial, member)


def test_lazy_oracle_names_resolve_as_before():
    namespace: dict = {}
    exec("from glhom import *", namespace)
    assert set(glhom.__all__) <= set(namespace)
    assert glhom.hom_count_bruteforce is namespace["hom_count_bruteforce"]
    assert glhom.hom_count_bruteforce is glhom.oracle.hom_count_bruteforce
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        glhom.no_such_name


def test_readme_examples_run():
    # the README's >>> blocks, under doctest; they also exercise ``from glhom import *``.  The
    # plain python blocks, such as the import list, run as they are, so no gone name stays there
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    python = re.findall(r"```python\n(.*?)```", readme, re.S)
    plain, blocks = [b for b in python if ">>>" not in b], [b for b in python if ">>>" in b]
    assert plain and blocks
    for block in plain:
        exec(block, {})
    runner, parser = doctest.DocTestRunner(), doctest.DocTestParser()
    report: list[str] = []
    for block in blocks:
        runner.run(parser.get_doctest(block, {}, "README.md", "README.md", 0), out=report.append)
    assert (runner.failures, "".join(report)) == (0, "")
