"""Minimal tuples: the s-tuples with sum n_i d_i = w that minimise sum n_i^2.

Over the integers they give the paper's S_r, m_r, eps_r and the bound N: at
n = k*a + r, t -> k*d + t carries the minimal tuples of weight r onto those of
n, so m_n = m_r and S_n = k^2*a + 2*k*r + S_r.  Over the non-negative tuples
they give the top of f_n at every n, which ``leading_term`` reads: f_n sums a
monic orbit polynomial of degree n^2 - sum t_i^2 per non-negative t of weight
n, so nothing cancels there.  The two agree exactly when the integer search at
weight n has b = 0, as at n >= N.  The residue commands never load ``counting``.
The search runs over the distinct degrees: c coordinates of degree d sharing
a total U are best split evenly, into f = U // c and f + 1 (both >= 0 if U
is), at cost c*f^2 + rho*(2f+1) (rho = U % c) in C(c, rho) ways, with lowest
entry f.  A min-plus DP over the weight of the groups taken so far, whose
equal-cost states add their counts and keep the larger b, gives S_w, m_w and
b; backtracking gives the lex-first tuple.
From a state of weight W and cost S, group j's total U and the groups
before it (room = their sum of c*d^2, x = w - W) cost at least
U^2/c + (x - d*U)^2/room, so a feasible cost F bounds |R*U - c*d*x| by
sqrt(c*room*(R*(F - S) - x^2)), R = room + c*d^2; room = 0 pins U = x/d.
Minimal tuples are listed only on demand, up to MAX_LISTED_TUPLES.
"""

from __future__ import annotations

from itertools import accumulate, chain, combinations, product
from math import comb, isqrt
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from .errors import InvariantViolation, RangeError, ResourceLimit
from .profiles import DegreeProfile, _Record

if TYPE_CHECKING:
    from fractions import Fraction

MAX_LISTED_TUPLES = 10**5
MAX_COUNT_BITS = 1 << 18  # admits C(200000, 100000), 0.7 s to build and print


class MinimalReport(_Record):
    """The minimal tuples of one weight w: invariants, the lex-first one, a lazy listing.

    ``s`` is their square-sum S_w; ``eps`` = S_w - w^2/a is >= 0, and 0 exactly
    when a divides w.  ``m`` counts the ordered minimal tuples; ``b`` is the
    least b >= 0 with b*d_i + t_i >= 0 for all of them.  ``==`` ignores ``listing``.
    """

    __slots__ = ("w", "s", "eps", "m", "_sample", "b", "listing")
    _compared = _shown = 6

    def __init__(
        self, w: int, s: int, eps: Fraction, m: int, sample: Iterable[int], b: int,
        listing: Callable[[], Iterable[tuple[int, ...]]],
    ):
        self._set(w=w, s=s, eps=eps, m=m, _sample=sample, b=b, listing=listing)

    @property
    def sample(self) -> tuple[int, ...]:
        """The lex-first minimal tuple; an iterable given for it is read at the first access."""
        if not isinstance(self._sample, tuple):
            self._set(_sample=tuple(self._sample))
        return self._sample

    @property
    def tuples(self) -> tuple[tuple[int, ...], ...]:
        """Every minimal tuple in lex order; ResourceLimit past MAX_LISTED_TUPLES."""
        if self.m > MAX_LISTED_TUPLES:
            raise ResourceLimit(
                f"{self.m} minimal tuples for weight {self.w}, more than the"
                f" listing cap {MAX_LISTED_TUPLES}"
            )
        out = tuple(sorted(self.listing()))
        if len(out) != self.m or out[0] != self.sample:
            raise InvariantViolation(
                f"listed {len(out)} tuples from {out[:1]}, counted {self.m} from {self.sample}"
            )
        return out


class StabilityBound(NamedTuple):
    """Smallest b with b*d_i + r_i >= 0 over all minimal residue tuples; N = b*a."""

    b: int
    n_threshold: int


class LeadingTerm(NamedTuple):
    """Top term coefficient * q^exponent of f_n, r = n mod a.

    The exponent is n^2 - S and the coefficient m, the least square-sum of the
    non-negative tuples of weight n and their number: the representation
    variety's dimension and number of top-dimensional components.
    """

    coefficient: int
    exponent: int
    n: int
    r: int


def _cost(total: int, c: int) -> int:
    """Least square-sum of c integers adding up to ``total``: the even split's."""
    f, rho = divmod(total, c)
    return c * f * f + rho * (2 * f + 1)


def _solve(
    groups: tuple[tuple[int, int], ...], order: int, w: int, counts: bool = True,
    nonnegative: bool = False,
) -> tuple[int, int, int, dict[int, dict[int, tuple[int, int, int]]]]:
    """(S_w, m_w, b, tables) for weight w, by the grouped DP of the module docstring.

    With ``counts=False`` the DP carries no counts and m_w is 0.  With
    ``nonnegative`` every group total, and so every entry, is at least 0.
    """
    # A feasible point, rounding the totals from the largest degree down, each
    # absorbing the weight error a*sum d*(U - c*d*w/a) of those before it; a
    # non-negative one clips each to [0, weight left], and degree 1 takes the rest.
    feasible, error, left = 0, 0, w
    for d, c in groups[:0:-1]:
        u = (2 * (c * d * d * w - error) + order * d) // (2 * order * d)
        u = min(max(u, 0), left // d) if nonnegative else u
        error += d * (order * u - c * d * w)
        left -= d * u
        feasible += _cost(u, c)
    feasible += _cost(left, groups[0][1])
    # tables[j][W] = (cost, count, b) of the optima of groups j.. at weight W.  A state
    # goes once its cost S plus the real minimum x^2 / room of the groups before j
    # exceeds the feasible cost F, so kept ones, like the start, have R*(F - S) >= x^2.
    rooms = list(accumulate((c * d * d for d, c in groups), initial=0))
    tables = {len(groups): {0: (0, 1, 0)}}
    for j in range(len(groups) - 1, -1, -1):
        (d, c), room, grown, table = groups[j], rooms[j], rooms[j + 1], tables.setdefault(j, {})
        for weight_rest, (cost, count, b) in tables[j + 1].items():
            x = w - weight_rest
            reach = isqrt(c * room * (grown * (feasible - cost) - x * x))
            low, high = -((reach - c * d * x) // grown), (c * d * x + reach) // grown
            if nonnegative:
                low, high = max(low, 0), min(high, x // d)
            for u in range(low, high + 1):
                key, cost_k = weight_rest + d * u, cost + _cost(u, c)
                if cost_k * room + (w - key) ** 2 > feasible * room:
                    continue
                old, rho = table.get(key, (cost_k + 1,)), u % c
                if cost_k > old[0]:
                    continue
                # log2 C(c, rho) <= min(c, size): only c > MAX_COUNT_BITS can pass the cap
                size = min(rho, c - rho) * c.bit_length() if counts and c > MAX_COUNT_BITS else 0
                if size > MAX_COUNT_BITS:
                    raise ResourceLimit(
                        f"m_r for weight {w} needs C({c}, {rho}), up to {min(c, size)} bits,"
                        f" more than the cap of {MAX_COUNT_BITS} bits"
                    )
                count_k = count * comb(c, rho) if counts else 0
                b_k = max(b, -(u // c // d))
                if cost_k < old[0]:
                    table[key] = (cost_k, count_k, b_k)
                elif cost_k == old[0]:
                    table[key] = (cost_k, old[1] + count_k, max(old[2], b_k))
    s_min, count, b = tables[0][w]
    if not w * w <= s_min * order <= feasible * order:
        raise InvariantViolation(f"minimum {s_min} for weight {w} is outside [w^2/a, {feasible}]")
    return s_min, count, b, tables


def minimal_tuples(profile: DegreeProfile, w: int) -> MinimalReport:
    """Minimal tuples for any weight w >= 0; the one place a report is built from ``_solve``."""
    from fractions import Fraction

    if w < 0:
        raise RangeError("weight must be >= 0")
    s_w, m_w, b, tables = _solve(profile.groups, profile.order, w)

    def totals() -> Iterator[tuple[int, ...]]:
        """Every optimal vector of group totals, in lex order (an explicit stack)."""
        stack = [((), w)]
        while stack:
            path, left = stack.pop()
            j = len(path)
            if j == len(profile.groups):
                yield path
                continue
            (d, c), after = profile.groups[j], tables[j + 1]
            for key in sorted(after):  # u = (left - key) / d falls, so the least u pops first
                u, off = divmod(left - key, d)
                if not off and after[key][0] == tables[j][left][0] - _cost(u, c):
                    stack.append((path + (u,), key))

    def listing() -> Iterator[tuple[int, ...]]:
        for path in totals():
            splits = [
                [[u // c + (j in up) for j in range(c)] for up in combinations(range(c), u % c)]
                for (_, c), u in zip(profile.groups, path)
            ]
            yield from (tuple(chain.from_iterable(parts)) for parts in product(*splits))

    # the sample is kept as the lex-first group totals, one per distinct degree, until it is read
    pairs = zip(profile.groups, next(totals()))
    sample = chain.from_iterable(
        [u // c] * (c - u % c) + [u // c + 1] * (u % c) for (_, c), u in pairs
    )
    eps = Fraction(s_w) - Fraction(w * w, profile.order)
    return MinimalReport(w, s_w, eps, m_w, sample, b, listing)


def stability_bound(
    profile: DegreeProfile, reports: Iterable[MinimalReport] | None = None
) -> StabilityBound:
    """Smallest b such that b*d_i + r_i >= 0 over all residues' minimal tuples.

    N = b*a; beyond N every minimal tuple is eligible.  N never exceeds
    a*(a-1).  ``reports``, if given, are every residue's ``minimal_tuples``;
    otherwise each residue's DP runs without counts, samples or eps.

    With every degree at most 2, b = 0 without a search.  If a minimal t of
    weight r >= 0 had t_i < 0, it would have some t_j > 0 (j != i).  Adding
    d_j/g to t_i and taking d_i/g from t_j, g = gcd(d_i, d_j), keeps the
    weight and changes sum t^2 by 2(t_i d_j - t_j d_i)/g + (d_i^2 + d_j^2)/g^2,
    at most (d_i^2 + d_j^2)/g^2 - 2(d_i + d_j)/g: -2, -2 and -1 for degrees
    {1, 1}, {2, 2} and {1, 2}.  So t would not be minimal.
    """
    a = profile.order
    if profile.groups[-1][0] <= 2:
        b = 0
    elif reports is None:
        b = max(_solve(profile.groups, a, r, counts=False)[2] for r in range(a))
    else:
        b = max(rep.b for rep in reports)
    n_threshold = b * a
    if n_threshold > a * (a - 1):
        raise InvariantViolation(f"stability bound N={n_threshold} exceeds a(a-1)={a * (a - 1)}")
    return StabilityBound(b=b, n_threshold=n_threshold)


def leading_term(profile: DegreeProfile, n: int) -> LeadingTerm:
    """The top term of f_n at any n >= 0, from one search over the non-negative tuples of weight n.

    It is the paper's m_r * q^(n^2(1-1/a) - eps_r) exactly when
    ``minimal_tuples(profile, n).b == 0``, as at every n >= N.
    """
    if n < 0:
        raise RangeError("dimension must be >= 0")
    s_n, m_n, _, _ = _solve(profile.groups, profile.order, n, nonnegative=True)
    exponent = n * n - s_n
    if exponent < 0:
        raise InvariantViolation(f"leading exponent {exponent} is negative")
    return LeadingTerm(coefficient=m_n, exponent=exponent, n=n, r=n % profile.order)
