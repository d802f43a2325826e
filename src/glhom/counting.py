"""Homomorphism-count polynomials, leading terms, and variety dimensions.

Each eligible tuple t = (n_1, ..., n_s) for dimension n indexes one
conjugation orbit of homomorphisms, of size |GL_n(q)| / prod |GL_{n_i}(q)|
(a polynomial in q).  Summing over all eligible tuples gives the full
count polynomial f_n with f_n(q) = |Hom(A, GL_n(q))| whenever F_q splits
the group; ``hom_count_poly`` builds it by a knapsack DP without listing
the tuples.  The top of f_n is controlled by the minimal tuples alone:
degree n^2(1 - 1/a) - eps_r and leading coefficient m_r, with r = n mod a.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .errors import (
    IneligibleTuple,
    InvariantViolation,
    LengthMismatch,
    RangeError,
    ResourceLimit,
    UnstableRegime,
)
from .intpoly import IntPolynomial, _add_shifted_into, _mul_lists, div_exact, gl_order_poly
from .minimize import minimal_tuples, stability_bound
from .profiles import DegreeProfile, validate_profile

DEFAULT_MAX_TUPLES = 10**6


@dataclass(frozen=True)
class LeadingTerm:
    """Leading term m_r * q^(n^2(1-1/a) - eps_r) of the count polynomial.

    ``stable`` is True when n is at or past the stability bound N, where
    the formula is guaranteed to match the true degree and leading
    coefficient; below N the formula values are still reported but are
    not certified against the full polynomial.
    """

    coefficient: int
    exponent: int
    n: int
    r: int
    stable: bool


@dataclass(frozen=True)
class VarietyReport:
    """Dimension and top-component count of Hom(A, GL_n(K)), K algebraically closed."""

    dimension: int
    top_components: int


def orbit_poly(profile: DegreeProfile, entries: tuple[int, ...]) -> IntPolynomial:
    """Orbit size |GL_n| / prod |GL_{n_i}| as a polynomial in q.

    The quotient is always exact (the denominator is the order polynomial
    of the orbit stabilizer); a nonzero remainder would indicate a logic
    bug and raises NonZeroRemainder.  Degree is n^2 - sum n_i^2, leading
    coefficient 1; a quotient of any other shape raises InvariantViolation.
    """
    validate_profile(profile)
    if len(entries) != profile.s:
        raise LengthMismatch(
            f"tuple has {len(entries)} entries, profile has {profile.s} coordinates"
        )
    if any(e < 0 for e in entries):
        raise IneligibleTuple(f"tuple {entries} has negative entries")
    n = sum(e * d for e, d in zip(entries, profile.degrees))
    den = IntPolynomial.one()
    for e in entries:
        if e:
            den = den * gl_order_poly(e)
    quot = div_exact(gl_order_poly(n), den)
    degree = n * n - sum(e * e for e in entries)
    if quot.degree != degree or quot.leading_coefficient != 1:
        raise InvariantViolation(f"orbit polynomial of {entries} is not monic of degree {degree}")
    return quot


def _count_eligible(degrees: tuple[int, ...], n: int) -> int:
    """Number of non-negative tuples with sum n_i d_i = n (coin-change count, O(s*n))."""
    ways = [1] + [0] * n
    for d in degrees:
        for w in range(d, n + 1):
            ways[w] += ways[w - d]
    return ways[n]


def _gauss_diagonal(diag: dict[int, list[list[int]]], m: int, k: int) -> list[int]:
    """Gaussian binomial [m + k; k]_q, memoised as diag[m] = [[m; 0], [m + 1; 1], ...].

    Each step is [m + j; j] = [m + j - 1; j - 1] (q^(m+j) - 1) / (q^j - 1),
    the exact division done from the top coefficient down.  As
    [m + k; k] = [m + k; m], callers pass m <= k to keep the memo small.
    """
    col = diag.setdefault(m, [[1]])
    for j in range(len(col), k + 1):
        prev = col[-1]
        up = [0] * (m + j) + prev
        up[: len(prev)] = [u - c for u, c in zip(up, prev)]
        quot = up[j:]
        for r in range(j):
            quot[r::j] = list(accumulate(quot[r::j][::-1]))[::-1]
        col.append(quot)
    return col[k]


def hom_count_poly(
    profile: DegreeProfile, n: int, max_tuples: int | None = DEFAULT_MAX_TUPLES
) -> IntPolynomial:
    """Full count polynomial f_n, equal to the sum of ``orbit_poly`` over ``eligible_tuples``.

    Evaluating at any prime power q for which F_q splits the group gives
    |Hom(A, GL_n(q))| exactly.  No tuple is listed: f_n comes from a knapsack
    DP read off sum_n f_n x^n / |GL_n| = prod_i sum_k x^(k d_i) / |GL_k|.
    State (w, M) (weight used, M = sum n_i) holds the non-negative polynomial
    P_{w,M} = sum_t [M; t]_q q^(sum_{i<j} n_i n_j).  Value k on a coordinate
    of degree d moves it to (w + k d, M + k) times [M + k; k]_q q^(M k), and
    f_n = sum_M |GL_n| / |GL_M| * P_{n,M}.  Raises ResourceLimit, before any
    polynomial work, past ``max_tuples`` eligible tuples (counted, not listed).
    """
    validate_profile(profile)
    if n < 0:
        raise RangeError("dimension must be >= 0")
    count = _count_eligible(profile.degrees, n)
    if max_tuples is not None and count > max_tuples:
        raise ResourceLimit(
            f"n={n} has {count} eligible tuples, more than --max-tuples {max_tuples}"
        )
    diag: dict[int, list[list[int]]] = {}
    degrees = profile.degrees[::-1]  # largest first: fewer states; d_1 = 1 last fills to n
    states: dict[tuple[int, int], list[int]] = {(0, 0): [1]}
    for j, d in enumerate(degrees):
        nxt: dict[tuple[int, int], list[int]] = {}
        for (w, m), poly in states.items():
            for k in range((n - w) // d + 1) if j + 1 < len(degrees) else (n - w,):
                factor = _mul_lists(poly, _gauss_diagonal(diag, *sorted((m, k)))) if k else poly
                _add_shifted_into(nxt.setdefault((w + k * d, m + k), []), factor, m * k)
        states = nxt
    # Horner over M, with |GL_M| / |GL_(M-1)| = q^(2M-1) - q^(M-1)
    total: list[int] = []
    for m in range(n + 1):
        if total:
            step = [0] * (2 * m - 1) + total
            step[m - 1 : m - 1 + len(total)] = [u - c for u, c in zip(step[m - 1 :], total)]
            total = step
        _add_shifted_into(total, states.get((n, m), ()), 0)
    return IntPolynomial(total)


def leading_term(profile: DegreeProfile, n: int) -> LeadingTerm:
    """Leading term of f_n from the minimal-tuple data for r = n mod a.

    The exponent n^2 - (n^2 - r^2)/a - S_r is provably integral; this is
    checked rather than trusted.  For n below the stability bound the
    formula values are returned with ``stable=False``.
    """
    validate_profile(profile)
    if n < 0:
        raise RangeError("dimension must be >= 0")
    a = profile.order
    r = n % a
    rep = minimal_tuples(profile, r)
    if (n * n - r * r) % a:
        raise InvariantViolation(f"n^2 - r^2 = {n * n - r * r} is not divisible by a={a}")
    exponent = n * n - (n * n - r * r) // a - rep.s_r
    if exponent < 0:
        raise InvariantViolation(f"leading exponent {exponent} is negative")
    bound = stability_bound(profile)
    return LeadingTerm(
        coefficient=rep.m_r,
        exponent=exponent,
        n=n,
        r=r,
        stable=n >= bound.n_threshold,
    )


def variety_report(profile: DegreeProfile, n: int) -> VarietyReport:
    """Dimension and number of top-dimensional components of the representation variety.

    Only valid in the stable regime n >= N; below it the leading-term
    formula is uncertified and UnstableRegime is raised.
    """
    bound = stability_bound(profile)
    if n < bound.n_threshold:
        raise UnstableRegime(
            f"n={n} is below the stability threshold N={bound.n_threshold}"
        )
    lt = leading_term(profile, n)
    return VarietyReport(dimension=lt.exponent, top_components=lt.coefficient)
