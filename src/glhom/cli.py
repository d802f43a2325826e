"""Command-line front end.

Subcommands: table, poly, leading, bound, verify, variety, each followed by its options as FLAG
VALUE pairs; -h prints the usage.  Results go to standard output (text, or one JSON document
with --json); diagnostics go to standard error.  Exit codes: 0 success/PASS, 1 input or
validation error, 2 verification failure, 3 resource limit exceeded; 120, as for any Python
program, when standard output cannot be written.  The process exits without teardown.
"""

from __future__ import annotations

import sys

from .errors import GlhomError, ResourceLimit, ValidationError
from .profiles import parse_group_spec, profile_of, splitting_field_check

MAX_TABLE_ENTRIES = 2**21  # a rows of s-entry samples: admits cyclic:1448 and dihedral:1400
_HELP = ("-h", "--help")


class _UsageError(GlhomError):
    pass


def _eval_points(text: str) -> list[int]:
    """The ``--eval`` list, read with the other options, so a bad one is refused before f_n."""
    try:
        return [int(part) for part in text.split(",")] if text else []
    except ValueError:
        raise _UsageError(f"--eval expects comma-separated integers, got {text!r}")


def _splits(spec, q: int) -> tuple[bool, str]:
    """``splitting_field_check``, with a q it refuses read as not splitting, for its reason."""
    try:
        return splitting_field_check(spec, q)
    except ValidationError as exc:
        return False, str(exc)


# each _cmd_* takes its own options by dest, imports only the layers it runs, and returns
# its JSON fields after "command" and "group", its text lines and its exit code
def _cmd_table(profile, spec):
    from .minimize import minimal_tuples, stability_bound

    a, s = profile.order, profile.s
    if a * s > MAX_TABLE_ENTRIES:
        raise ResourceLimit(
            f"table of a={a} rows by s={s} coordinates has {a * s} sample entries,"
            f" more than the cap of {MAX_TABLE_ENTRIES}"
        )
    reports = [minimal_tuples(profile, r) for r in range(a)]
    bound = stability_bound(profile, reports)
    fields = {
        "order": a,
        "degrees": list(profile.degrees),
        "rows": [
            {
                "r": rep.w,
                "m": rep.m,
                "sample": list(rep.sample),
                "s": rep.s,
                "eps": str(rep.eps),
            }
            for rep in reports
        ],
        "b": bound.b,
        "n_threshold": bound.n_threshold,
        "threshold_ceiling": a * (a - 1),
    }
    samples = ["(" + ",".join(map(str, rep.sample)) + ")" for rep in reports]
    width = max(len("sample tuple"), *map(len, samples))
    lines = [f"{'r':>4}  {'m_r':>6}  {'sample tuple':<{width}}  {'S_r':>6}  eps_r"]
    for rep, sample in zip(reports, samples):
        lines.append(f"{rep.w:>4}  {rep.m:>6}  {sample:<{width}}  {rep.s:>6}  {rep.eps}")
    lines += [f"b = {bound.b}", f"N = {bound.n_threshold} (<= a(a-1) = {a * (a - 1)})"]
    return fields, lines, 0


def _cmd_poly(profile, spec, n, eval_points=()):
    from .counting import hom_count_poly

    poly = hom_count_poly(profile, n)
    evaluations = []
    lines = [poly.to_text()]
    for x in eval_points:
        ok, reason = _splits(spec, x)
        value = str(poly.evaluate(x))
        evaluations.append({"q": x, "value": value, "splitting_field": ok, "reason": reason})
        lines.append(f"f({x}) = {value}" + (f" = |Hom(A, GL_{n}({x}))|" if ok else ""))
    fields = {
        "n": n,
        "degree": int(poly.degree) if poly else None,
        "polynomial": poly.to_json_obj(),
        "evaluations": evaluations,
    }
    return fields, lines, 0


def _cmd_leading(profile, spec, n):
    from .minimize import leading_term, stability_bound

    lt = leading_term(profile, n)
    n_threshold = stability_bound(profile).n_threshold
    fields = {
        "n": lt.n,
        "r": lt.r,
        "coefficient": lt.coefficient,
        "exponent": lt.exponent,
        "stable": n >= n_threshold,
        "n_threshold": n_threshold,
    }
    state = "stable" if n >= n_threshold else f"unstable: n={n} < N={n_threshold}"
    return fields, [f"{lt.coefficient} * q^{lt.exponent} ({state})"], 0


def _cmd_bound(profile, spec):
    from .minimize import stability_bound

    a = profile.order
    bound = stability_bound(profile)
    fields = {
        "order": a,
        "b": bound.b,
        "n_threshold": bound.n_threshold,
        "threshold_ceiling": a * (a - 1),
    }
    return fields, [f"b={bound.b}, N={bound.n_threshold} (<= a(a-1)={a * (a - 1)})"], 0


def _cmd_variety(profile, spec, n):
    from .minimize import leading_term

    lt = leading_term(profile, n)
    fields = {"n": n, "dimension": lt.exponent, "components": lt.coefficient}
    return fields, [f"dimension {lt.exponent}, {lt.coefficient} components"], 0


def _cmd_verify(profile, spec, n, q):
    import os

    # the oracle's integer products never call BLAS, so numpy need not start OpenBLAS's
    # worker thread, which would spin beside it; a value the user set wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import oracle  # numpy: verify only
    from .counting import hom_count_poly

    ok, reason = _splits(spec, q)
    if not ok:
        raise ValidationError(f"F_{q} is not a splitting field for {spec}: {reason}")
    # the oracle's refusals on (spec, n, q) alone come first, then f_n and its pre-flight,
    # and only then the m-letter relators of cyclic:m and dihedral:m; n = 0 builds none
    oracle._check_args(n, q)
    build = oracle._builtin(spec)
    if build is None:
        raise ValidationError(f"no built-in presentation paired with {spec}")
    value = hom_count_poly(profile, n).evaluate(q)
    brute = oracle.hom_count_bruteforce(build(), n, q) if n else 1
    match = value == brute
    fields = {
        "n": n,
        "q": q,
        "poly_value": str(value),
        "bruteforce": str(brute),
        "match": match,
    }
    lines = [f"f({q}) = {value}", f"brute force = {brute}", "PASS" if match else "FAIL"]
    return fields, lines, 0 if match else 2


_COMMON = {
    "--group": ("group", str, True, "group spec, e.g. sym:4 or cyclic:6"),
    "--json": ("json", bool, False, "emit one JSON document"),
}
_N, _Q = ("n", int, True, "matrix size n"), ("q", int, True, "prime field size q")
_EVAL = ("eval_points", _eval_points, False, "comma-separated integers")
# name: (command, help, options as flag: (dest, type, required, help)); a bool flag takes no value
_COMMANDS = {
    "table": (_cmd_table, "per-residue minimal-tuple table", _COMMON),
    "poly": (_cmd_poly, "full count polynomial f_n", {**_COMMON, "-n": _N, "--eval": _EVAL}),
    "leading": (_cmd_leading, "leading term of f_n", {**_COMMON, "-n": _N}),
    "bound": (_cmd_bound, "stability bound N = b*a", _COMMON),
    "verify": (_cmd_verify, "polynomial vs brute force", {**_COMMON, "-n": _N, "-q": _Q}),
    "variety": (_cmd_variety, "representation variety dimension", {**_COMMON, "-n": _N}),
}


def _usage(name: str | None) -> str:
    """The help of subcommand ``name``, or for None of the whole CLI, from _COMMANDS."""
    if name is None:
        head = f"usage: glhom {{{','.join(_COMMANDS)}}} --group GROUP [--json] ...\n\n{__doc__}"
        rows = {command: about for command, (_, about, _) in _COMMANDS.items()}
    else:
        _, about, options = _COMMANDS[name]
        head = f"usage: glhom {name} FLAG VALUE ...\n\n{about}\n"
        rows = {
            flag if kind is bool else f"{flag} {dest.upper()}": text + " (required)" * required
            for flag, (dest, kind, required, text) in options.items()
        }
    width = max(map(len, rows))
    return "\n".join([head, *(f"  {word:<{width}}  {text}" for word, text in rows.items())])


def _parse(argv: list[str]) -> tuple[str | None, dict | None]:
    """The subcommand ``argv`` starts with and its options by dest, read as FLAG VALUE pairs
    in any order, the last of a repeated one kept; no options where -h asks for the usage.
    """
    if not argv:
        raise _UsageError("the following arguments are required: command")
    name, words = argv[0], iter(argv[1:])
    if name in _HELP:
        return None, None
    if name not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise _UsageError(f"argument command: invalid choice: {name!r} (choose from {choices})")
    options, args, extra = _COMMANDS[name][2], {}, []
    for word in words:
        if word in _HELP:
            return name, None
        if word not in options:
            extra.append(word)
            continue
        dest, kind, _, _ = options[word]
        value = True if kind is bool else next(words, None)
        if value is None or value in options or value in _HELP:
            raise _UsageError(f"argument {word}: expected one argument")
        try:
            args[dest] = kind(value)
        except ValueError:
            raise _UsageError(f"argument {word}: invalid {kind.__name__} value: {value!r}")
    missing = [flag for flag, (dest, _, need, _) in options.items() if need and dest not in args]
    if missing:
        raise _UsageError("the following arguments are required: " + ", ".join(missing))
    if extra:
        raise _UsageError("unrecognized arguments: " + " ".join(extra))
    return name, args


def main(argv: list[str] | None = None) -> int:
    # values such as f_60(1000) have more digits than str() allows by default
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        name, args = _parse(sys.argv[1:] if argv is None else argv)
        if args is None:
            print(_usage(name))
            return 0
        as_json, spec = args.pop("json", False), parse_group_spec(args.pop("group"))
        profile = profile_of(spec)
        fields, lines, code = _COMMANDS[name][0](profile, spec, **args)
        if as_json:
            import json

            print(json.dumps({"command": name, "group": str(profile), **fields}, indent=2))
        else:
            print("\n".join(lines))
        return code
    except GlhomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ResourceLimit) else 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _run() -> None:
    """The process entry: main(), both streams flushed, then an exit that skips teardown."""
    import os

    code = main()
    try:
        for stream in filter(None, (sys.stdout, sys.stderr)):  # None: its fd closed at start
            stream.flush()
    except OSError:
        sys.exit(code)  # the interpreter's own exit reports the failed write, with 120
    os._exit(code)


if __name__ == "__main__":
    _run()
