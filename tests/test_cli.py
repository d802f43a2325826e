"""Command-line interface: formats, exit codes, JSON/text agreement."""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import glhom.cli as cli
import glhom.counting as counting
import glhom.minimize as minimize
import glhom.oracle
from glhom import hom_count_poly, parse_group_spec, profile_of, stability_bound
from conftest import run_cli_guarded


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_table_dihedral3_text(capsys):
    code, out, _ = run(capsys, "table", "--group", "dihedral:3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 + 6 + 2  # header, six residues, b and N footers
    row4 = lines[5].split()
    assert row4 == ["4", "1", "(1,1,1)", "3", "1/3"]
    assert lines[-2] == "b = 0"
    assert lines[-1] == "N = 0 (<= a(a-1) = 30)"


def test_table_sym4_row11(capsys):
    code, out, _ = run(capsys, "table", "--group", "sym:4")
    assert code == 0
    lines = out.splitlines()
    row = lines[12].split()  # header + rows 0..10 before it
    # sample column shows the lexicographically least minimal tuple
    assert row == ["11", "2", "(0,0,1,1,2)", "6", "23/24"]


def test_table_cyclic2(capsys):
    code, out, _ = run(capsys, "table", "--group", "cyclic:2")
    lines = out.splitlines()
    assert lines[1].split() == ["0", "1", "(0,0)", "0", "0"]
    assert lines[2].split() == ["1", "2", "(0,1)", "1", "1/2"]


def test_table_json_matches_text(capsys):
    code, payload, _ = run_json(capsys, "table", "--group", "sym:4")
    assert code == 0
    code2, out, _ = run(capsys, "table", "--group", "sym:4")
    rows = out.splitlines()[1 : 1 + 24]
    assert len(payload["rows"]) == 24
    for text_row, json_row in zip(rows, payload["rows"]):
        r, m, sample, s, eps = text_row.split()
        assert int(r) == json_row["r"]
        assert int(m) == json_row["m"]
        assert sample == "(" + ",".join(map(str, json_row["sample"])) + ")"
        assert int(s) == json_row["s"]
        assert eps == json_row["eps"]
    assert payload["b"] == 0 and payload["n_threshold"] == 0
    assert payload["threshold_ceiling"] == 552


def test_poly_text(capsys):
    code, out, _ = run(capsys, "poly", "--group", "cyclic:2", "-n", "2", "--eval", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "q^2 + q + 2"
    assert lines[1] == "f(3) = 14 = |Hom(A, GL_2(3))|"


def test_poly_eval_without_splitting_label(capsys):
    code, out, _ = run(capsys, "poly", "--group", "cyclic:3", "-n", "1", "--eval", "5,7")
    lines = out.splitlines()
    assert lines[1] == "f(5) = 3"  # 5 is not a splitting field: no Hom label
    assert lines[2] == "f(7) = 3 = |Hom(A, GL_1(7))|"


def test_poly_sym4_n2(capsys):
    code, out, _ = run(capsys, "poly", "--group", "sym:4", "-n", "2", "--eval", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "q^3 + q^2 + 2"
    assert lines[1] == "f(5) = 152 = |Hom(A, GL_2(5))|"


def test_poly_n0(capsys):
    code, out, _ = run(capsys, "poly", "--group", "sym:4", "-n", "0")
    assert code == 0
    assert out.splitlines()[0] == "1"


def test_poly_json_round_trip(capsys):
    code, payload, _ = run_json(
        capsys, "poly", "--group", "sym:4", "-n", "3", "--eval", "5"
    )
    assert code == 0
    poly = hom_count_poly(profile_of(parse_group_spec("sym:4")), 3)
    assert payload["polynomial"] == poly.to_json_obj()
    code2, out, _ = run(capsys, "poly", "--group", "sym:4", "-n", "3", "--eval", "5")
    assert poly.to_text() == out.splitlines()[0]
    assert payload["degree"] == poly.degree
    ev = payload["evaluations"][0]
    assert int(ev["value"]) == poly.evaluate(5)
    m = re.match(r"f\(5\) = (\d+)", out.splitlines()[1])
    assert int(m.group(1)) == int(ev["value"])


def test_leading_stable(capsys):
    code, out, err = run(capsys, "leading", "--group", "sym:4", "-n", "25")
    assert code == 0
    assert out.strip() == "2 * q^598 (stable)"
    assert err == ""


def test_leading_unstable_warns(capsys):
    # below N the label warns that the paper's formula need not hold; the term is f_n's true top
    code, out, err = run(capsys, "leading", "--group", "sym:5", "-n", "3")
    assert (code, out, err) == (0, "2 * q^4 (unstable: n=3 < N=120)\n", "")
    code, out, err = run(capsys, "leading", "--group", "sym:5", "-n", "23")
    assert (code, out, err) == (0, "8 * q^522 (unstable: n=23 < N=120)\n", "")


def test_bound_sym5(capsys):
    code, out, _ = run(capsys, "bound", "--group", "sym:5")
    assert code == 0
    assert out.strip() == "b=1, N=120 (<= a(a-1)=14280)"


def test_bound_sym4(capsys):
    code, out, _ = run(capsys, "bound", "--group", "sym:4")
    assert out.startswith("b=0, N=0")


def test_variety(capsys):
    code, out, _ = run(capsys, "variety", "--group", "sym:4", "-n", "25")
    assert code == 0
    assert out.strip() == "dimension 598, 2 components"


def test_variety_answers_below_the_threshold(capsys):
    # f_n's top term is certified at every n >= 0, so variety answers below N = 120 too
    code, out, err = run(capsys, "variety", "--group", "sym:5", "-n", "23")
    assert (code, out, err) == (0, "dimension 522, 8 components\n", "")
    code, out, err = run(capsys, "variety", "--group", "sym:5", "-n", "-1")
    assert (code, out, err) == (1, "", "error: dimension must be >= 0\n")


def test_variety_needs_no_bound_at_any_order():
    # one search at weight n, with no per-residue DP for N over the 10^8 residues
    argv = ("variety", "--group", "custom:order=100000001,degrees=1,10000", "-n", "12345")
    result, wall = run_cli_guarded(*argv)
    out = "dimension 146899999, 1 components\n"
    assert (result.returncode, result.stdout, result.stderr) == (0, out, "")
    assert wall < 1.0


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--group", "cyclic:2", "-n", "2", "-q", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines == ["f(3) = 14", "brute force = 14", "PASS"]


def test_verify_cyclic3(capsys):
    code, out, _ = run(capsys, "verify", "--group", "cyclic:3", "-n", "1", "-q", "7")
    assert code == 0
    assert out.splitlines() == ["f(7) = 3", "brute force = 3", "PASS"]


def test_verify_not_splitting_exit_1(capsys):
    code, out, err = run(capsys, "verify", "--group", "cyclic:3", "-n", "1", "-q", "5")
    assert code == 1
    assert "F_5 is not a splitting field" in err


def test_verify_no_presentation_exit_1(capsys):
    code, out, err = run(capsys, "verify", "--group", "abelian:2x2", "-n", "1", "-q", "5")
    assert code == 1
    assert "no built-in presentation" in err


def test_verify_fail_exit_2(capsys, monkeypatch):
    monkeypatch.setattr(glhom.oracle, "hom_count_bruteforce", lambda *a, **k: 999)
    code, out, _ = run(capsys, "verify", "--group", "cyclic:2", "-n", "2", "-q", "3")
    assert code == 2
    assert out.splitlines()[-1] == "FAIL"


def test_verify_json(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "--group", "cyclic:2", "-n", "2", "-q", "3"
    )
    assert code == 0
    assert payload["match"] is True
    assert payload["poly_value"] == payload["bruteforce"] == "14"


_THREAD_PROBE = """
import contextlib, io, os
import glhom.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = glhom.cli.main(["verify", "--group", "dihedral:3", "-n", "2", "-q", "7"])
print(code, os.environ["OPENBLAS_NUM_THREADS"], len(os.listdir("/proc/self/task")))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task to count")
def test_verify_runs_numpy_with_one_blas_thread_unless_the_user_chose():
    # the oracle never calls BLAS, so verify keeps OpenBLAS from starting a worker thread
    # that would only spin; a fresh interpreter, as numpy reads the setting on import
    path = [str(Path(cli.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))

    def probe(**preset):
        result = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE],
            capture_output=True, text=True, env={**env, **preset}, check=True,
        )
        return result.stdout.split()

    assert probe() == ["0", "1", "1"]
    assert probe(OPENBLAS_NUM_THREADS="2")[:2] == ["0", "2"]


# an output that fits the 8 KiB stdout buffer, so nothing is written before the exit's flush;
# the child's stdout is block-buffered, and the exit codes and messages are those the
# interpreter gives a failed flush at exit
_SMALL = ("poly", "--group", "cyclic:2", "-n", "3")


def _reported_at_exit(result) -> tuple[int, str]:
    """The exit code and the error line of the report on a failed write to stdout.

    The report must be all of stderr: a traceback before it means a write failed earlier.
    """
    head, error = result.stderr.splitlines()
    assert head.startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
    return result.returncode, error


def test_closed_stdout_exits_0():
    # Python starts with sys.stdout None when fd 1 is closed, and print then writes nothing
    result, _ = run_cli_guarded(*_SMALL, stdout=None)
    assert (result.returncode, result.stderr) == (0, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_stdout_on_a_full_device_exits_120():
    with open("/dev/full", "w") as full:
        result, _ = run_cli_guarded(*_SMALL, stdout=full)
    assert _reported_at_exit(result) == (120, "OSError: [Errno 28] No space left on device")


def test_stdout_on_a_pipe_its_reader_closed_exits_120():
    # past the stdout buffer the write fails in main's print, not at the exit's flush, and
    # ends the same way
    for argv in (_SMALL, ("poly", "--group", "cyclic:2", "-n", "150", "--json")):
        read, write = os.pipe()
        os.close(read)
        try:
            result, _ = run_cli_guarded(*argv, stdout=write)
        finally:
            os.close(write)
        assert _reported_at_exit(result) == (120, "BrokenPipeError: [Errno 32] Broken pipe")


def test_output_past_the_stdout_buffer_is_written_whole(capsys):
    argv = ("poly", "--group", "cyclic:2", "-n", "150", "--json")
    result, _ = run_cli_guarded(*argv)
    code, out, err = run(capsys, *argv)
    assert (code, err, len(out) > 50 * 8192) == (0, "", True)
    assert (result.returncode, result.stdout, result.stderr) == (code, out, err)


def test_bad_group_exit_1(capsys):
    code, _, err = run(capsys, "table", "--group", "frobenius:3")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "table", "--group", "cyclic:4x")
    assert code == 1
    code, _, err = run(capsys, "table", "--group", "custom:order=6,degrees=1,2")
    assert code == 1 and "degree-square" in err


def test_missing_required_flag_exit_1(capsys):
    code, _, err = run(capsys, "poly", "--group", "cyclic:2")
    assert code == 1
    code, _, err = run(capsys, "poly", "--group", "cyclic:2", "-n", "2", "--eval", "a,b")
    assert code == 1


def test_resource_limit_exit_3(capsys):
    code, _, err = run(capsys, "poly", "--group", "sym:4", "-n", "120")
    assert code == 3
    assert "bits of packed arithmetic (59395 DP steps)" in err
    code, out, err = run(capsys, "verify", "--group", "cyclic:2", "-n", "3", "-q", "11")
    assert (code, out) == (3, "")
    assert err == "error: q^(n^2) = 2357947691 exceeds the candidate cap 100000000\n"


def test_verify_refuses_before_building_the_polynomial(capsys, monkeypatch):
    # the oracle's cap on n is checked before f_200 is built
    built = []
    monkeypatch.setattr(counting, "hom_count_poly", lambda *args: built.append(args))
    code, out, err = run(capsys, "verify", "--group", "cyclic:2", "-n", "200", "-q", "3")
    cap = "error: q^(n^2) >= 2^(n^2) at n=200 exceeds the candidate cap 100000000\n"
    assert (code, out, err, built) == (3, "", cap, [])


@pytest.mark.parametrize(
    "argv, err",
    [
        (("table", "--group", "abelian:2x0"), "abelian invariant factors must be >= 1"),
        (("leading", "--group", "sym:4", "-n", "-1"), "dimension must be >= 0"),
        (("verify", "--group", "cyclic:2", "-n", "-1", "-q", "3"), "dimension must be >= 0"),
        # n = 0 writes out no relator, but the pairing is still required
        (
            ("verify", "--group", "sym:5", "-n", "0", "-q", "7"),
            "no built-in presentation paired with sym:5",
        ),
    ],
)
def test_refusals_exit_1(capsys, argv, err):
    assert run(capsys, *argv) == (1, "", f"error: {err}\n")


def test_resource_limit_counts_before_building(capsys):
    # the work cap fires on the counted DP steps, before any polynomial is built;
    # ~10^185 eligible tuples, 132597450 steps
    code, out, err = run(capsys, "poly", "--group", "cyclic:100000", "-n", "50")
    assert code == 3
    assert out == ""
    assert re.search(
        r"n=50 needs about \d+ bits of packed arithmetic \(132597450 DP steps\),"
        r" more than the cap of 34359738368 bits",
        err,
    )


def test_poly_many_coordinates(capsys):
    # a + C(a, 2)(q^2 + q) for a = 2000 one-dimensional characters
    code, out, _ = run(capsys, "poly", "--group", "cyclic:2000", "-n", "2")
    assert code == 0
    assert out == "1999000*q^2 + 1999000*q + 2000\n"


def test_options_of_each_subcommand():
    # every option a subcommand accepts, as (flag, dest, type, required), and each
    # subcommand's help; a new knob has to be added here
    options = {
        name: {(flag, dest, kind, required) for flag, (dest, kind, required, _) in opts.items()}
        for name, (_, _, opts) in cli._COMMANDS.items()
    }
    common = {("--group", "group", str, True), ("--json", "json", bool, False)}
    n, q = ("-n", "n", int, True), ("-q", "q", int, True)
    assert options == {
        "table": common,
        "poly": common | {n, ("--eval", "eval_points", cli._eval_points, False)},
        "leading": common | {n},
        "bound": common,
        "verify": common | {n, q},
        "variety": common | {n},
    }
    assert {name: about for name, (_, about, _) in cli._COMMANDS.items()} == {
        "table": "per-residue minimal-tuple table",
        "poly": "full count polynomial f_n",
        "leading": "leading term of f_n",
        "bound": "stability bound N = b*a",
        "verify": "polynomial vs brute force",
        "variety": "representation variety dimension",
    }


@pytest.mark.parametrize(
    "argv, err",
    [
        ((), "the following arguments are required: command"),
        (
            ("foo", "--group", "sym:4"),
            "argument command: invalid choice: 'foo' (choose from 'table', 'poly', 'leading',"
            " 'bound', 'verify', 'variety')",
        ),
        (("poly", "--group", "sym:4"), "the following arguments are required: -n"),
        (("verify", "-q", "5"), "the following arguments are required: --group, -n"),
        (("poly", "--group", "sym:4", "-n", "x"), "argument -n: invalid int value: 'x'"),
        (("poly", "--group", "sym:4", "-n"), "argument -n: expected one argument"),
        (("poly", "--group", "sym:4", "-n", "--json"), "argument -n: expected one argument"),
        (("bound", "--group", "sym:4", "--eval", "3"), "unrecognized arguments: --eval 3"),
        (("bound", "--group", "sym:4", "extra"), "unrecognized arguments: extra"),
        # forms argparse read as abbreviations or attached values
        (("table", "--gr", "sym:4"), "the following arguments are required: --group"),
        (("table", "--group=sym:4"), "the following arguments are required: --group"),
        (("poly", "--group", "sym:4", "-n5"), "the following arguments are required: -n"),
    ],
)
def test_usage_errors_exit_1(capsys, argv, err):
    assert run(capsys, *argv) == (1, "", f"error: {err}\n")


@pytest.mark.parametrize("argv", [(), *((name,) for name in cli._COMMANDS)])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_names_every_subcommand_and_option(capsys, argv, flag):
    # -h stops the reading wherever it comes, before any required option is missed
    code, out, err = run(capsys, *argv, flag)
    assert (code, err) == (0, "")
    if argv:
        _, about, options = cli._COMMANDS[argv[0]]
        named = [about, *options, *(text for _, _, _, text in options.values())]
    else:
        named = [word for name, (_, about, _) in cli._COMMANDS.items() for word in (name, about)]
    assert all(word in out for word in named)


def test_repeated_option_keeps_its_last_value(capsys):
    assert run(capsys, "poly", "-n", "3", "--group", "cyclic:2", "-n", "2") == (
        0, "q^2 + q + 2\n", ""
    )


def test_eval_is_refused_before_the_polynomial_is_built():
    # --eval is read with the options, so f_80 of sym:4, seconds of work, is never built
    result, wall = run_cli_guarded("poly", "--group", "sym:4", "-n", "80", "--eval", "7,x")
    assert (result.returncode, result.stdout, result.stderr) == (
        1, "", "error: --eval expects comma-separated integers, got '7,x'\n"
    )
    assert wall < 1.0


def test_prime_eval_point_past_trial_division(capsys):
    # 2^61 - 1 is prime; trial division up to its square root would not finish
    q = 2**61 - 1
    code, out, _ = run(capsys, "poly", "--group", "cyclic:2", "-n", "1", "--eval", str(q))
    assert code == 0
    assert out == f"2\nf({q}) = 2 = |Hom(A, GL_1({q}))|\n"
    code, out, err = run(capsys, "verify", "--group", "cyclic:2", "-n", "2", "-q", str(q))
    assert code == 3 and out == ""
    assert f"q^(n^2) = {q**4} exceeds the candidate cap 100000000" in err


def test_poly_refuses_packed_working_set_before_building(capsys):
    code, out, err = run(capsys, "poly", "--group", "cyclic:2", "-n", "2000")
    assert code == 3
    assert out == ""
    assert re.search(r"n=2000 needs about \d+ bits for a q-Pascal row and one packed state", err)


def test_poly_refusal_names_only_the_packed_state_for_one_coordinate(capsys):
    # a single coordinate builds no q-Pascal row, so the message does not name one
    code, out, err = run(capsys, "poly", "--group", "cyclic:1", "-n", "26755")
    assert (code, out) == (3, "")
    assert err == (
        "error: n=26755 needs about 2147490078 bits for one packed state,"
        " more than the cap of 2147483648 bits\n"
    )


def test_bound_needs_no_counts(capsys):
    # b alone: no C(20000, r) and no 20000-entry sample per residue
    start = time.perf_counter()
    assert run(capsys, "bound", "--group", "cyclic:20000") == (
        0, "b=0, N=0 (<= a(a-1)=399980000)\n", ""
    )
    assert time.perf_counter() - start < 10


def test_poly_eval_prints_values_past_the_str_digit_limit(capsys):
    # f_60(1000) has about 10^4 digits; main lifts str()'s default limit and restores it
    limit = sys.get_int_max_str_digits()
    value = hom_count_poly(profile_of(parse_group_spec("cyclic:2")), 60).evaluate(1000)
    argv = ("poly", "--group", "cyclic:2", "-n", "60", "--eval", "1000")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and sys.get_int_max_str_digits() == limit
    digits = out.splitlines()[1].removeprefix("f(1000) = ")
    code, payload, _ = run_json(capsys, *argv)
    assert code == 0 and payload["evaluations"][0]["value"] == digits
    try:
        sys.set_int_max_str_digits(0)
        assert digits == str(value)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "argv, code, out, err, n_threshold",
    [
        (("leading", "--group", "sym:5", "-n", "3"), 0, "2 * q^4 (unstable: n=3 < N=120)\n", "",
         120),
        (("leading", "--group", "sym:4", "-n", "25"), 0, "2 * q^598 (stable)\n", "", 0),
        (("variety", "--group", "sym:4", "-n", "25"), 0, "dimension 598, 2 components\n", "", 0),
        (("variety", "--group", "sym:5", "-n", "3"), 0, "dimension 4, 2 components\n", "", 120),
    ],
)
def test_stability_bound_computed_once_per_command(
    capsys, monkeypatch, argv, code, out, err, n_threshold
):
    # at most once: leading computes N for its label, and variety, which reports no N, never
    calls, solves, solve = [], [], minimize._solve

    def counted(profile, reports=None):
        calls.append(profile)
        return stability_bound(profile, reports)

    def counted_solve(groups, order, w, counts=True, nonnegative=False):
        solves.append((w, counts, nonnegative))
        return solve(groups, order, w, counts, nonnegative)

    monkeypatch.setattr(minimize, "stability_bound", counted)
    monkeypatch.setattr(minimize, "_solve", counted_solve)
    assert run(capsys, *argv) == (code, out, err)
    leading, n = argv[0] == "leading", int(argv[-1])
    assert len(calls) == leading
    # weight n is solved once over the non-negative tuples, with counts; N solves each
    # residue once over the integers, without them
    residues = [(w, False, False) for w in range(calls[0].order)] if leading else []
    assert sorted(solves) == sorted(residues + [(n, True, True)])
    json_code, json_out, _ = run(capsys, *argv, "--json")
    assert json_code == code and len(calls) == 2 * leading
    payload = json.loads(json_out)
    assert payload.get("n_threshold") == (n_threshold if leading else None)


def test_output_byte_identical_across_runs(capsys):
    first = run(capsys, "table", "--group", "sym:4", "--json")
    second = run(capsys, "table", "--group", "sym:4", "--json")
    assert first == second
    third = run(capsys, "poly", "--group", "dihedral:5", "-n", "4", "--eval", "11")
    fourth = run(capsys, "poly", "--group", "dihedral:5", "-n", "4", "--eval", "11")
    assert third == fourth


def test_json_valid_for_all_commands(capsys):
    # each command's keys, in order, after "command" and "group"
    keys = {
        ("table", "--group", "cyclic:3"):
            ["order", "degrees", "rows", "b", "n_threshold", "threshold_ceiling"],
        ("poly", "--group", "cyclic:3", "-n", "2", "--eval", "7"):
            ["n", "degree", "polynomial", "evaluations"],
        ("leading", "--group", "cyclic:3", "-n", "7"):
            ["n", "r", "coefficient", "exponent", "stable", "n_threshold"],
        ("bound", "--group", "cyclic:3"): ["order", "b", "n_threshold", "threshold_ceiling"],
        ("verify", "--group", "cyclic:3", "-n", "1", "-q", "7"):
            ["n", "q", "poly_value", "bruteforce", "match"],
        ("variety", "--group", "cyclic:3", "-n", "6"): ["n", "dimension", "components"],
    }
    payloads = {}
    for argv, tail in keys.items():
        code, payload, _ = run_json(capsys, *argv)
        assert code == 0
        assert list(payload) == ["command", "group", *tail]
        assert payload["command"] == argv[0]
        assert payload["group"] == "cyclic:3"
        payloads[argv[0]] = payload
    rows = payloads["table"]["rows"]
    assert [list(row) for row in rows] == [["r", "m", "sample", "s", "eps"]] * 3
    assert [list(ev) for ev in payloads["poly"]["evaluations"]] == [
        ["q", "value", "splitting_field", "reason"]
    ]


def test_table_sym5_scales(capsys):
    code, out, _ = run(capsys, "table", "--group", "sym:5")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 + 120 + 2
    assert lines[-1] == "N = 120 (<= a(a-1) = 14280)"
    assert lines[4].split()[:2] == ["3", "4"]  # r=3 has four minimal tuples


def test_poly_eval_negative_point(capsys):
    code, out, _ = run(capsys, "poly", "--group", "cyclic:2", "-n", "2", "--eval", "-2")
    assert code == 0
    assert out.splitlines()[1] == "f(-2) = 4"  # 4 - 2 + 2, no Hom label


def test_verify_dihedral_splitting_gate(capsys):
    # q=7 == 1 and q=5 == -1 (mod 3) both split dihedral:3, and brute force
    # agrees with the polynomial at each
    code, out, _ = run(capsys, "verify", "--group", "dihedral:3", "-n", "2", "-q", "7")
    assert code == 0
    assert out.splitlines()[-1] == "PASS"
    code, out, _ = run(capsys, "verify", "--group", "dihedral:3", "-n", "2", "-q", "5")
    assert code == 0
    assert out.splitlines()[-1] == "PASS"
    # q=7 is neither 1 nor -1 (mod 5), and the verify command refuses it
    code, _, err = run(capsys, "verify", "--group", "dihedral:5", "-n", "2", "-q", "7")
    assert code == 1
    assert "requires q == +-1 (mod 5); got q=7" in err


def _table_rows(out):
    """(r, m_r, sample, S_r, eps_r) for each row of a text table."""
    return [line.split() for line in out.splitlines()[1:-2]]


@pytest.mark.parametrize(
    "argv, out",
    [
        (("bound", "--group", "cyclic:300"), "b=0, N=0 (<= a(a-1)=89700)\n"),
        # C(1500, 5) minimal tuples of weight 5, exponent 5^2 - 0 - S_5 = 20
        (("leading", "--group", "cyclic:1500", "-n", "5"), "62860358437800 * q^20 (stable)\n"),
        # a single coordinate builds no q-Pascal row, so the pre-flight does not count one
        (("poly", "--group", "cyclic:1", "-n", "400"), "1\n"),
        # f_0 = 1 without a DP step per coordinate
        (("poly", "--group", "cyclic:1000000000", "-n", "0"), "1\n"),
        # the packed width is H_n's, 3 bits here, not a guess from the coordinate count
        (("poly", "--group", "cyclic:1", "-n", "1290"), "1\n"),
    ],
)
def test_large_order_queries(capsys, argv, out):
    assert run(capsys, *argv) == (0, out, "")


_WORK_CAP = (
    r"error: n=2 needs about \d+ bits of packed arithmetic \({} DP steps\),"
    r" more than the cap of 34359738368 bits\n"
)


@pytest.mark.parametrize(
    "argv, err",
    [
        # as coordinate tuples these profiles take 8 GB and 80 GB; f_2 takes 6(a - 1) DP steps
        (("poly", "--group", "cyclic:1000000000", "-n", "2"), _WORK_CAP.format(5999999994)),
        (("poly", "--group", "abelian:100000x100000", "-n", "2"), _WORK_CAP.format(59999999994)),
        (
            ("table", "--group", "cyclic:20000"),
            r"error: table of a=20000 rows by s=20000 coordinates has 400000000 sample"
            r" entries, more than the cap of 2097152\n",
        ),
        # 6000000001 is prime and splits cyclic:10^9; the relator x1^(10^9) is never built
        (
            ("verify", "--group", "cyclic:1000000000", "-n", "1", "-q", "6000000001"),
            r"error: q\^\(n\^2\) = 6000000001 exceeds the candidate cap 100000000\n",
        ),
        # the memory cap at the least width, 3 bits, comes before the O(n) width recurrence
        (
            ("poly", "--group", "sym:4", "-n", "1000000000"),
            r"error: n=1000000000 needs about 500000003000000000000000001 bits for a q-Pascal"
            r" row and one packed state, more than the cap of 2147483648 bits\n",
        ),
        (
            ("poly", "--group", "cyclic:1", "-n", "1000000000"),
            r"error: n=1000000000 needs about 3000000000000000003 bits for one packed state,"
            r" more than the cap of 2147483648 bits\n",
        ),
        # m_r = C(2000000, 1000000) is bounded before comb builds its 2*10^6 bits
        (
            ("leading", "--group", "cyclic:2000000", "-n", "1000000"),
            r"error: m_r for weight 1000000 needs C\(2000000, 1000000\), up to 2000000 bits,"
            r" more than the cap of 262144 bits\n",
        ),
    ],
)
def test_large_orders_refused_at_once_under_a_memory_guard(argv, err):
    result, wall = run_cli_guarded(*argv)
    assert (result.returncode, result.stdout) == (3, "")
    assert re.fullmatch(err, result.stderr)
    assert wall < 1.0


@pytest.mark.parametrize(
    "group, order",
    [("cyclic:1000000000", 10**9), ("dihedral:1000000000", 2 * 10**9),
     ("abelian:100000x100000", 10**10)],
)
def test_bound_at_any_order_when_every_degree_is_at_most_two(group, order):
    # b = 0 without a search over the a residues
    result, wall = run_cli_guarded("bound", "--group", group)
    out = f"b=0, N=0 (<= a(a-1)={order * (order - 1)})\n"
    assert (result.returncode, result.stdout, result.stderr) == (0, out, "")
    assert wall < 1.0


@pytest.mark.parametrize(
    "group, exponent, count",
    [
        ("cyclic:1000000000", 20, math.comb(10**9, 5)),
        ("dihedral:1000000000", 22, 4 * math.comb(499999999, 2)),
        ("abelian:100000x100000", 20, math.comb(10**10, 5)),
    ],
)
def test_leading_and_variety_at_any_order_when_every_degree_is_at_most_two(
    group, exponent, count
):
    # S_r and m_r are read from the search, which builds no s-long sample tuple
    for argv, out in [
        (("leading", "--group", group, "-n", "5"), f"{count} * q^{exponent} (stable)\n"),
        (("variety", "--group", group, "-n", "5"), f"dimension {exponent}, {count} components\n"),
    ]:
        result, wall = run_cli_guarded(*argv)
        assert (result.returncode, result.stdout, result.stderr) == (0, out, "")
        assert wall < 1.0


@pytest.mark.parametrize(
    "argv, code, out, err, seconds",
    [
        # the splitting check comes before the 10^9-letter relator is built
        (
            ("verify", "--group", "cyclic:1000000000", "-n", "1", "-q", "3"),
            1, "",
            "error: F_3 is not a splitting field for cyclic:1000000000:"
            " requires q == 1 (mod 1000000000); got q=3\n",
            1.0,
        ),
        (
            ("verify", "--group", "dihedral:1000000000", "-n", "1", "-q", "3"),
            1, "",
            "error: F_3 is not a splitting field for dihedral:1000000000:"
            " requires q == +-1 (mod 1000000000); got q=3\n",
            1.0,
        ),
        # x1^20000 by repeated squaring: 18 products per block, not 19999
        (
            ("verify", "--group", "cyclic:20000", "-n", "1", "-q", "160001"),
            0, "f(160001) = 20000\nbrute force = 20000\nPASS\n", "",
            2.0,
        ),
        # n = 0 is answered without writing out the 10^9-letter relator
        (
            ("verify", "--group", "cyclic:1000000000", "-n", "0", "-q", "6000000001"),
            0, "f(6000000001) = 1\nbrute force = 1\nPASS\n", "",
            1.0,
        ),
        (
            ("verify", "--group", "dihedral:1000000000", "-n", "0", "-q", "6000000001"),
            0, "f(6000000001) = 1\nbrute force = 1\nPASS\n", "",
            1.0,
        ),
        # f_n's pre-flight refuses before the relator is written out and enumerated
        (
            ("verify", "--group", "cyclic:20000002", "-n", "1", "-q", "20000003"),
            3, "",
            "error: n=1 needs about 249000016600 bits of packed arithmetic"
            " (60000004 DP steps), more than the cap of 34359738368 bits\n",
            1.0,
        ),
        (
            ("verify", "--group", "cyclic:99999988", "-n", "1", "-q", "99999989"),
            3, "",
            "error: n=1 needs about 1246199842148 bits of packed arithmetic"
            " (299999962 DP steps), more than the cap of 34359738368 bits\n",
            1.0,
        ),
        # the join tests each block of x1 rows against all x2 candidates of GL_2(37) by
        # broadcasting, bounded by _JOIN_ENTRIES, not as one row per pair
        (
            ("verify", "--group", "dihedral:6", "-n", "2", "-q", "37"),
            0, "f(37) = 109672\nbrute force = 109672\nPASS\n", "",
            3.0,
        ),
        # n = 4 at q = 3: x1's involutions among 3^13 normal-form matrices
        (
            ("verify", "--group", "cyclic:2", "-n", "4", "-q", "3"),
            0, "f(3) = 12692\nbrute force = 12692\nPASS\n", "",
            2.0,
        ),
        # 2^(n^2) passes the candidate cap from n = 6 on, refused from n before q^(n^2) is formed
        (
            ("verify", "--group", "cyclic:2", "-n", "6", "-q", "3"),
            3, "", "error: q^(n^2) >= 2^(n^2) at n=6 exceeds the candidate cap 100000000\n",
            1.0,
        ),
        (
            ("verify", "--group", "cyclic:2", "-n", "1000000", "-q", "3"),
            3, "", "error: q^(n^2) >= 2^(n^2) at n=1000000 exceeds the candidate cap 100000000\n",
            1.0,
        ),
    ],
)
def test_verify_on_large_orders_under_a_memory_guard(argv, code, out, err, seconds):
    result, wall = run_cli_guarded(*argv)
    assert (result.returncode, result.stdout, result.stderr) == (code, out, err)
    assert wall < seconds


def test_table_cap_counts_sample_entries_before_any_residue(capsys, monkeypatch):
    solved = []
    monkeypatch.setattr(minimize, "minimal_tuples", lambda *args: solved.append(args))
    code, out, err = run(capsys, "table", "--group", "cyclic:1449")
    assert (code, out, solved) == (3, "", [])
    assert err == (
        "error: table of a=1449 rows by s=1449 coordinates has 2099601 sample entries,"
        " more than the cap of 2097152\n"
    )
    monkeypatch.undo()
    # sym:4 has a = 24 rows of s = 5 entries: refused one below 120, answered at it
    monkeypatch.setattr(cli, "MAX_TABLE_ENTRIES", 119)
    assert run(capsys, "table", "--group", "sym:4")[0] == 3
    monkeypatch.setattr(cli, "MAX_TABLE_ENTRIES", 120)
    assert run(capsys, "table", "--group", "sym:4")[0] == 0


def test_table_at_the_entry_cap_counts_every_row(capsys):
    # 1448^2 sample entries, just under the cap; C(1448, r) has at most 1448 bits
    code, out, err = run(capsys, "table", "--group", "cyclic:1448")
    assert (code, err) == (0, "")
    rows = _table_rows(out)
    assert [int(row[0]) for row in rows] == list(range(1448))
    assert [int(rows[r][1]) for r in (1, 724, 1447)] == [1448, math.comb(1448, 724), 1448]


def test_table_dihedral40_duality(capsys):
    code, out, err = run(capsys, "table", "--group", "dihedral:40")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[-2:] == ["b = 0", "N = 0 (<= a(a-1) = 6320)"]
    rows = _table_rows(out)
    assert [int(row[0]) for row in rows] == list(range(80))
    for r in range(1, 80):
        assert rows[r][1] == rows[80 - r][1], r  # m_r = m_{a-r}
        assert rows[r][4] == rows[80 - r][4], r  # eps_r = eps_{a-r}


def test_table_dihedral41_closed_forms(capsys):
    code, out, _ = run(capsys, "table", "--group", "dihedral:41")
    assert code == 0
    l = 20  # degree-2 coordinates of dihedral:41
    checked = 0
    for r_text, m_text, _, s_text, _ in _table_rows(out):
        k, odd = divmod(int(r_text), 2)
        if 2 * k <= l:
            assert int(m_text) == (2 if odd else 1) * math.comb(l, k), r_text
            assert int(s_text) == k + odd, r_text
            checked += 1
    assert checked == 22
