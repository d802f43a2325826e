"""Workload definitions and the expected stdout of every invocation.

The seed changes only properties that do not change the work: the order
of the cases, the ``--eval`` points, and the order in which custom
degrees are written.  Every expected stdout is rendered here from
``reference`` values, in the CLI's documented output format.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import reference as ref

@dataclass(frozen=True)
class Case:
    argv: tuple[str, ...]  # arguments after ``glhom``
    stdout: bytes  # expected standard output; the expected exit code is 0
    eligible_tuples: int = 0  # orbit-sum terms, counted by the reference DP
    matrices: int = 0  # matrices the oracle enumerates: q^(n^2) per generator

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Group:
    family: str
    m: int  # cyclic/dihedral modulus, sym index, abelian exponent
    order: int
    degrees: tuple[int, ...]


_SYM = {4: (1, 1, 2, 3, 3), 5: (1, 1, 4, 4, 5, 5, 6)}


def group(spec: str) -> Group:
    family, _, rest = spec.partition(":")
    if family == "cyclic":
        m = int(rest)
        return Group(family, m, m, (1,) * m)
    if family == "abelian":
        factors = [int(f) for f in rest.split("x")]
        a = math.prod(factors)
        return Group(family, math.lcm(*factors), a, (1,) * a)
    if family == "dihedral":
        m = int(rest)
        ones = 2 if m % 2 else 4
        return Group(family, m, 2 * m, (1,) * ones + (2,) * ((2 * m - ones) // 4))
    if family == "sym":
        m = int(rest)
        return Group(family, m, math.factorial(m), _SYM[m])
    if family == "custom":
        order_part, degree_part = rest.split(",degrees=")
        degrees = tuple(sorted(int(d) for d in degree_part.split(",")))
        return Group(family, 0, int(order_part.removeprefix("order=")), degrees)
    raise ValueError(f"unknown family in {spec!r}")


def _splitting(g: Group, q: int) -> tuple[bool, str]:
    """The CLI's splitting-field verdict and reason for a prime q."""
    if g.family == "cyclic":
        if (q - 1) % g.m == 0:
            return True, f"q == 1 (mod {g.m})"
        return False, f"requires q == 1 (mod {g.m}); got q={q}"
    if g.family == "abelian":
        if (q - 1) % g.m == 0:
            return True, f"q == 1 (mod exponent {g.m})"
        return False, f"requires q == 1 (mod exponent {g.m}); got q={q}"
    if g.family == "dihedral":
        if q % 2 == 0:
            return False, "requires odd q"
        if (q - 1) % g.m:
            return False, f"requires q == 1 (mod {g.m}); got q={q}"
        return True, f"q odd and q == 1 (mod {g.m})"
    if g.family == "sym" and g.m == 4:
        if q in (2, 3):
            return False, f"requires characteristic not in {{2, 3}}; got p={q}"
        return True, f"characteristic {q} not in {{2, 3}}"
    if g.family == "sym":
        if q <= 5:
            return False, f"requires characteristic > 5; got p={q}"
        return True, f"characteristic {q} > 5"
    return True, "caller-asserted"


_PRIMES = [p for p in range(2, 200) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def _eval_candidates(g: Group) -> list[int]:
    # For dihedral groups keep to q = 2 and q == 1 (mod m): there the verdict
    # does not depend on whether the rule is q == 1 or q == +-1 (mod m).
    if g.family == "dihedral":
        return [p for p in _PRIMES if p == 2 or (p - 1) % g.m == 0]
    return _PRIMES


# --- renderers: the CLI's stdout for a reference answer ---------------------


def _poly_text(coeffs: list[int]) -> str:
    pieces = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if not c:
            continue
        mag = abs(c)
        qpart = "" if e == 0 else ("q" if e == 1 else f"q^{e}")
        body = str(mag) if e == 0 else (qpart if mag == 1 else f"{mag}*{qpart}")
        if pieces:
            pieces.append(f" - {body}" if c < 0 else f" + {body}")
        else:
            pieces.append(f"-{body}" if c < 0 else body)
    return "".join(pieces) or "0"


def _lines(lines: list[str]) -> bytes:
    return "".join(line + "\n" for line in lines).encode()


def _fraction(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _tuple(t: tuple[int, ...]) -> str:
    return "(" + ",".join(map(str, t)) + ")"


def poly_case(spec: str, n: int, points: list[int], as_json: bool) -> Case:
    g = group(spec)
    coeffs = ref.count_poly(g.degrees, n)
    evals = []
    for x in points:
        ok, reason = _splitting(g, x)
        evals.append({"q": x, "value": str(ref.evaluate(coeffs, x)), "splitting_field": ok, "reason": reason})
    argv = ["poly", "--group", spec, "-n", str(n)]
    if points:
        argv += ["--eval", ",".join(map(str, points))]
    if as_json:
        argv.append("--json")
        payload = {
            "command": "poly",
            "group": spec,
            "n": n,
            "degree": len(coeffs) - 1 if coeffs else None,
            "polynomial": {str(e): str(coeffs[e]) for e in range(len(coeffs) - 1, -1, -1) if coeffs[e]},
            "evaluations": evals,
        }
        out = (json.dumps(payload, indent=2) + "\n").encode()
    else:
        lines = [_poly_text(coeffs)]
        for ev in evals:
            line = f"f({ev['q']}) = {ev['value']}"
            if ev["splitting_field"]:
                line += f" = |Hom(A, GL_{n}({ev['q']}))|"
            lines.append(line)
        out = _lines(lines)
    return Case(tuple(argv), out, eligible_tuples=ref.count_eligible(g.degrees, n))


def residue_case(command: str, spec: str, n: int | None = None) -> Case:
    g = group(spec)
    a = g.order
    b = ref.stability_b(g.degrees, a)
    argv = [command, "--group", spec] + ([] if n is None else ["-n", str(n)])
    if command == "bound":
        return Case(tuple(argv), _lines([f"b={b}, N={b * a} (<= a(a-1)={a * (a - 1)})"]))
    if command == "table":
        rows = ref.residue_rows(g.degrees, a)
        width = max(len("sample tuple"), *(len(_tuple(row.sample)) for row in rows))
        lines = [f"{'r':>4}  {'m_r':>6}  {'sample tuple':<{width}}  {'S_r':>6}  eps_r"]
        lines += [
            f"{row.r:>4}  {row.m:>6}  {_tuple(row.sample):<{width}}  {row.s:>6}  {_fraction(row.eps)}"
            for row in rows
        ]
        lines += [f"b = {b}", f"N = {b * a} (<= a(a-1) = {a * (a - 1)})"]
        return Case(tuple(argv), _lines(lines))
    row = ref.residue_row(g.degrees, a, n % a)
    exponent = n * n - (n * n - row.r * row.r) // a - row.s
    if command == "variety":
        if n < b * a:
            raise ValueError(f"{spec} n={n} is below the stability threshold")
        return Case(tuple(argv), _lines([f"dimension {exponent}, {row.m} components"]))
    if n >= b * a:
        text = f"{row.m} * q^{exponent} (stable)"
    else:
        text = f"{row.m} * q^{exponent} (unstable: n={n} < N={b * a})"
    return Case(tuple(argv), _lines([text]))


def verify_case(spec: str, n: int, q: int) -> Case:
    g = group(spec)
    value = ref.hom_count_bruteforce(g.family, g.m, n, q)
    generators = 1 if g.family == "cyclic" else 2
    return Case(
        ("verify", "--group", spec, "-n", str(n), "-q", str(q)),
        _lines([f"f({q}) = {value}", f"brute force = {value}", "PASS"]),
        eligible_tuples=ref.count_eligible(g.degrees, n),
        matrices=generators * q ** (n * n),
    )


# --- workloads ----------------------------------------------------------------
#
# Each workload has an odd number K of successful cases, so that neither p50
# nor p75 of the invocations (K/2 and 3K/4 cases in, with every case run
# equally often) falls on the boundary between two cases.

# poly-deep: few coordinates, large n.  A few thousand tuples feed large
# polynomials, so the intpoly kernel works on Kronecker-sized operands.
# Sizes keep one invocation near 0.5 s, so that a 20 s run repeats every
# case about six times; mode is text, eval (two --eval points) or json (two
# --eval points and --json).
POLY_DEEP = [
    ("sym:4", 24, "eval"),
    ("sym:4", 26, "json"),
    ("sym:5", 28, "eval"),
    ("sym:5", 30, "json"),
    ("dihedral:5", 28, "text"),
    ("dihedral:7", 22, "eval"),
    ("dihedral:9", 18, "text"),
]

# poly-wide: many degree-1 coordinates at moderate n.  Thousands of
# eligible tuples each, so enumeration, the per-tuple loop and tiny
# schoolbook multiplies dominate.
POLY_WIDE = [
    ("cyclic:5", 14, "text"),
    ("cyclic:7", 10, "eval"),
    ("cyclic:10", 7, "eval"),
    ("cyclic:12", 6, "text"),
    ("abelian:3x3", 8, "json"),
    ("cyclic:6", 12, "json"),
    ("abelian:2x2x2", 9, "text"),
]

# custom profiles: (order, degrees); the seed picks the written degree order.
_CUSTOM = {
    "A4": (12, (1, 1, 1, 3)),
    "F20": (20, (1, 1, 1, 1, 4)),
    "F21": (21, (1, 1, 1, 3, 3)),
}

# residue-tables: minimal-tuple queries.  Cheap ones are mostly interpreter
# start-up; the four heavy bounds are exact minimal-tuple searches whose
# cost grows exponentially (cyclic:16 -> 18, dihedral:28 -> 32).
# ``bound cyclic:300`` (does not finish) and ``bound dihedral:40`` (~53 s)
# are left out for cost.  ``leading cyclic:1500 -n 5`` is a known defect
# (RecursionError) and counts as a failure until it is fixed.
RESIDUE = [
    ("table", "sym:4", None),
    ("table", "sym:5", None),
    ("bound", "sym:5", None),
    ("leading", "sym:4", 25),
    ("variety", "sym:5", 150),
    ("table", "dihedral:9", None),
    ("bound", "abelian:2x4", None),
    ("leading", "abelian:3x3", 21),
    ("table", "A4", None),
    ("variety", "F20", 40),
    ("leading", "F21", 30),
    ("bound", "cyclic:16", None),
    ("bound", "cyclic:18", None),
    ("bound", "dihedral:28", None),
    ("bound", "dihedral:32", None),
    ("leading", "cyclic:1500", 5),
]

# verify-oracle: brute-force enumeration of GL_n(q) in numpy dominates.
VERIFY = [
    ("dihedral:3", 2, 13),
    ("sym:4", 2, 13),
    ("dihedral:6", 2, 13),
    ("dihedral:5", 2, 11),
    ("sym:4", 2, 7),
    ("cyclic:2", 3, 5),
    ("cyclic:4", 3, 5),
]

WORKLOADS = ("poly-deep", "poly-wide", "residue-tables", "verify-oracle")

WARMUP = ("bound", "sym:4", None)


def _custom_spec(rng: random.Random, name: str) -> str:
    order, degrees = _CUSTOM[name]
    written = list(degrees)
    rng.shuffle(written)
    return f"custom:order={order},degrees=" + ",".join(map(str, written))


def build(workload: str, seed: int) -> list[Case]:
    """The workload's cases, in seeded order, with expected outputs."""
    rng = random.Random(seed)
    if workload in ("poly-deep", "poly-wide"):
        out = []
        for spec, n, mode in POLY_DEEP if workload == "poly-deep" else POLY_WIDE:
            points = [] if mode == "text" else rng.sample(_eval_candidates(group(spec)), 2)
            out.append(poly_case(spec, n, points, mode == "json"))
    elif workload == "residue-tables":
        out = []
        for command, spec, n in RESIDUE:
            if spec in _CUSTOM:
                spec = _custom_spec(rng, spec)
            out.append(residue_case(command, spec, n))
    elif workload == "verify-oracle":
        out = [verify_case(spec, n, q) for spec, n, q in VERIFY]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng.shuffle(out)
    return out


def warmup_case() -> Case:
    return residue_case(*WARMUP)
