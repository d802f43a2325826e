"""Command-line front end.

Subcommands: table, poly, leading, bound, verify, variety.  Results go to
standard output (text, or one JSON document with --json); diagnostics go
to standard error.  Exit codes: 0 success/PASS, 1 input or validation
error, 2 verification failure or unstable-regime refusal, 3 resource
limit exceeded.
"""

from __future__ import annotations

import argparse
import sys

from .errors import GlhomError, ResourceLimit, UnstableRegime, ValidationError
from .profiles import parse_group_spec, profile_of, splitting_field_check

MAX_TABLE_ENTRIES = 2**21  # a rows of s-entry samples: admits cyclic:1448 and dihedral:1400


class _UsageError(GlhomError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through our exit-code contract."""

    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="glhom", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("--group", required=True, help="group spec, e.g. sym:4 or cyclic:6")
    common.add_argument("--json", action="store_true", help="emit one JSON document")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", parents=[common], help="per-residue minimal-tuple table")

    p = sub.add_parser("poly", parents=[common], help="full count polynomial f_n")
    p.add_argument("-n", type=int, required=True, dest="n")
    p.add_argument("--eval", dest="eval_points", default=None, help="comma-separated integers")

    p = sub.add_parser("leading", parents=[common], help="leading term of f_n")
    p.add_argument("-n", type=int, required=True, dest="n")

    sub.add_parser("bound", parents=[common], help="stability bound N = b*a")

    p = sub.add_parser("verify", parents=[common], help="polynomial vs brute force")
    p.add_argument("-n", type=int, required=True, dest="n")
    p.add_argument("-q", type=int, required=True, dest="q")

    p = sub.add_parser("variety", parents=[common], help="representation variety dimension")
    p.add_argument("-n", type=int, required=True, dest="n")
    return parser


def _fraction_str(f) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _tuple_str(t: tuple[int, ...]) -> str:
    return "(" + ",".join(map(str, t)) + ")"


def _emit(payload: dict, as_json: bool, text_lines: list[str]) -> None:
    if as_json:
        import json

        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(text_lines))


def _splits(spec, q: int) -> tuple[bool, str]:
    """``splitting_field_check``, with a q it refuses read as not splitting, for its reason."""
    try:
        return splitting_field_check(spec, q)
    except ValidationError as exc:
        return False, str(exc)


# each _cmd_* imports the layers it runs, so a command loads no other layer
def _cmd_table(profile, spec, args) -> int:
    from .minimize import minimal_tuples, stability_bound

    a, s = profile.order, profile.s
    if a * s > MAX_TABLE_ENTRIES:
        raise ResourceLimit(
            f"table of a={a} rows by s={s} coordinates has {a * s} sample entries,"
            f" more than the cap of {MAX_TABLE_ENTRIES}"
        )
    reports = [minimal_tuples(profile, r) for r in range(a)]
    bound = stability_bound(profile, reports)
    rows = [
        {
            "r": rep.r,
            "m": rep.m_r,
            "sample": list(rep.sample),
            "s": rep.s_r,
            "eps": _fraction_str(rep.eps_r),
        }
        for rep in reports
    ]
    payload = {
        "command": "table",
        "group": str(profile),
        "order": a,
        "degrees": list(profile.degrees),
        "rows": rows,
        "b": bound.b,
        "n_threshold": bound.n_threshold,
        "threshold_ceiling": a * (a - 1),
    }
    sample_w = max(len("sample tuple"), *(len(_tuple_str(rep.sample)) for rep in reports))
    lines = [f"{'r':>4}  {'m_r':>6}  {'sample tuple':<{sample_w}}  {'S_r':>6}  eps_r"]
    for rep in reports:
        lines.append(
            f"{rep.r:>4}  {rep.m_r:>6}  {_tuple_str(rep.sample):<{sample_w}}"
            f"  {rep.s_r:>6}  {_fraction_str(rep.eps_r)}"
        )
    lines += [f"b = {bound.b}", f"N = {bound.n_threshold} (<= a(a-1) = {a * (a - 1)})"]
    _emit(payload, args.json, lines)
    return 0


def _parse_eval_points(text: str | None) -> list[int]:
    if not text:
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise _UsageError(f"--eval expects comma-separated integers, got {text!r}")


def _cmd_poly(profile, spec, args) -> int:
    from .counting import hom_count_poly

    poly = hom_count_poly(profile, args.n)
    evaluations = []
    for x in _parse_eval_points(args.eval_points):
        ok, reason = _splits(spec, x)
        evaluations.append(
            {"q": x, "value": str(poly.evaluate(x)), "splitting_field": ok, "reason": reason}
        )
    payload = {
        "command": "poly",
        "group": str(profile),
        "n": args.n,
        "degree": int(poly.degree) if not poly.is_zero else None,
        "polynomial": poly.to_json_obj(),
        "evaluations": evaluations,
    }
    lines = [poly.to_text()]
    for ev in evaluations:
        line = f"f({ev['q']}) = {ev['value']}"
        if ev["splitting_field"]:
            line += f" = |Hom(A, GL_{args.n}({ev['q']}))|"
        lines.append(line)
    _emit(payload, args.json, lines)
    return 0


def _cmd_leading(profile, spec, args) -> int:
    from .minimize import leading_term

    lt = leading_term(profile, args.n)
    payload = {
        "command": "leading",
        "group": str(profile),
        "n": lt.n,
        "r": lt.r,
        "coefficient": lt.coefficient,
        "exponent": lt.exponent,
        "stable": lt.stable,
        "n_threshold": lt.n_threshold,
    }
    if lt.stable:
        text = f"{lt.coefficient} * q^{lt.exponent} (stable)"
    else:
        text = f"{lt.coefficient} * q^{lt.exponent} (unstable: n={lt.n} < N={lt.n_threshold})"
        print(
            f"warning: n={lt.n} is below the stability threshold N={lt.n_threshold};"
            " the reported term is the formula value and is not certified to match"
            " the true degree",
            file=sys.stderr,
        )
    _emit(payload, args.json, [text])
    return 0


def _cmd_bound(profile, spec, args) -> int:
    from .minimize import stability_bound

    a = profile.order
    bound = stability_bound(profile)
    payload = {
        "command": "bound",
        "group": str(profile),
        "order": a,
        "b": bound.b,
        "n_threshold": bound.n_threshold,
        "threshold_ceiling": a * (a - 1),
    }
    text = f"b={bound.b}, N={bound.n_threshold} (<= a(a-1)={a * (a - 1)})"
    _emit(payload, args.json, [text])
    return 0


def _cmd_variety(profile, spec, args) -> int:
    from .minimize import variety_report

    report = variety_report(profile, args.n)
    payload = {
        "command": "variety",
        "group": str(profile),
        "n": args.n,
        "dimension": report.dimension,
        "components": report.top_components,
        "n_threshold": report.n_threshold,
    }
    text = f"dimension {report.dimension}, {report.top_components} components"
    _emit(payload, args.json, [text])
    return 0


def _cmd_verify(profile, spec, args) -> int:
    import os

    # the oracle's integer products never call BLAS, so numpy need not start OpenBLAS's
    # worker thread, which would spin beside it; a value the user set wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import oracle  # numpy: verify only
    from .counting import hom_count_poly

    ok, reason = _splits(spec, args.q)
    if not ok:
        raise ValidationError(f"F_{args.q} is not a splitting field for {spec}: {reason}")
    # the oracle's refusals on (spec, n, q) alone come first, then f_n and its pre-flight,
    # and only then the m-letter relators of cyclic:m and dihedral:m; n = 0 builds none
    oracle._check_hom_args(args.n, args.q)
    build = oracle._builtin(spec)
    if build is None:
        raise ValidationError(f"no built-in presentation paired with {spec}")
    value = hom_count_poly(profile, args.n).evaluate(args.q)
    brute = oracle.hom_count_bruteforce(build(), args.n, args.q) if args.n else 1
    match = value == brute
    payload = {
        "command": "verify",
        "group": str(profile),
        "n": args.n,
        "q": args.q,
        "poly_value": str(value),
        "bruteforce": str(brute),
        "match": match,
    }
    lines = [
        f"f({args.q}) = {value}",
        f"brute force = {brute}",
        "PASS" if match else "FAIL",
    ]
    _emit(payload, args.json, lines)
    return 0 if match else 2


_COMMANDS = {
    "table": _cmd_table, "poly": _cmd_poly, "leading": _cmd_leading,
    "bound": _cmd_bound, "verify": _cmd_verify, "variety": _cmd_variety,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    # values such as f_60(1000) have more digits than str() allows by default
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        args = parser.parse_args(argv)
        spec = parse_group_spec(args.group)
        profile = profile_of(spec)
        return _COMMANDS[args.command](profile, spec, args)
    except GlhomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ResourceLimit) else 2 if isinstance(exc, UnstableRegime) else 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
