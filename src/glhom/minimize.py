"""Minimal-tuple search: integer least squares on a weighted-sum constraint.

For a profile with degrees (d_1, ..., d_s) and a target weight w, the
admissible tuples are the integer s-tuples with sum n_i d_i = w; this
module finds ALL of them minimising sum n_i^2 (branch and bound, exact
arithmetic only), and derives the quantities that control the top of the
homomorphism-count polynomial: S_r, m_r, eps_r and the stability bound N.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InvariantViolation, LengthMismatch, RangeError, ResourceLimit
from .profiles import DegreeProfile, validate_profile


@dataclass(frozen=True)
class MinimalReport:
    """All minimal tuples for one target weight, with their invariants.

    ``eps_r`` is the exact rational defect S_r - r^2/a between the integer
    minimum and the real-relaxation minimum; it is >= 0 and vanishes only
    at weight 0 (for weights below the group order).
    """

    r: int
    tuples: tuple[tuple[int, ...], ...]
    s_r: int
    eps_r: Fraction

    @property
    def m_r(self) -> int:
        """Number of minimal tuples (counts ordered tuples, no symmetry quotient)."""
        return len(self.tuples)


@dataclass(frozen=True)
class LiftedReport:
    """Minimal tuples for a dimension n = k*a + r, obtained by lifting."""

    n: int
    k: int
    r: int
    tuples: tuple[tuple[int, ...], ...]
    square_sum: int
    all_eligible: bool

    @property
    def count(self) -> int:
        return len(self.tuples)


@dataclass(frozen=True)
class StabilityBound:
    """Smallest b with b*d_i + r_i >= 0 over all minimal residue tuples; N = b*a."""

    b: int
    n_threshold: int


def weight(entries: tuple[int, ...], profile: DegreeProfile) -> int:
    """Weighted sum sum(n_i * d_i) of a tuple against the profile degrees."""
    if len(entries) != profile.s:
        raise LengthMismatch(
            f"tuple has {len(entries)} entries, profile has {profile.s} coordinates"
        )
    return sum(e * d for e, d in zip(entries, profile.degrees))


def square_sum(entries: tuple[int, ...]) -> int:
    return sum(e * e for e in entries)


@lru_cache(maxsize=None)
def _search_minimal(degrees: tuple[int, ...], w: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """All integer tuples with sum n_i d_i == w minimising sum n_i^2.

    Depth-first branch and bound.  Coordinates are visited in decreasing
    degree order; at each node the completion is bounded below by the
    Cauchy-Schwarz relaxation ceil(w'^2 / sum of remaining d_i^2).  Values
    for a coordinate are swept outward from the rounded real-relaxation
    optimum, stopping once the exact rational bound strictly exceeds the
    incumbent (strict, so tied optima are never pruned: every optimum is
    required, not one representative).  Returns (min square-sum, tuples
    sorted lexicographically in profile coordinate order).
    """
    s = len(degrees)
    order = sorted(range(s), key=lambda i: (-degrees[i], i))
    dseq = [degrees[i] for i in order]
    sqsuf = [0] * (s + 1)
    for j in range(s - 1, -1, -1):
        sqsuf[j] = sqsuf[j + 1] + dseq[j] * dseq[j]

    best = w * w  # (w, 0, ..., 0) on a degree-1 coordinate is admissible
    sols: list[tuple[int, ...]] = []
    cur = [0] * s

    def visit_leaf(j: int, w_rem: int, cur_sq: int) -> None:
        nonlocal best
        d = dseq[j]
        if w_rem % d:
            return
        v = w_rem // d
        tot = cur_sq + v * v
        if tot > best:
            return
        cur[j] = v
        if tot < best:
            best = tot
            sols.clear()
        sols.append(tuple(cur))

    def rec(j: int, w_rem: int, cur_sq: int) -> None:
        if j == s - 1:
            visit_leaf(j, w_rem, cur_sq)
            return
        d = dseq[j]
        s_all = sqsuf[j]
        s_rest = sqsuf[j + 1]
        center = (2 * w_rem * d + s_all) // (2 * s_all)

        def try_value(v: int) -> bool:
            """Recurse into v if it can still reach the incumbent.

            Returns True when the exact relaxation bound strictly exceeds
            the incumbent, i.e. the sweep may stop once past the real
            optimum (the bound is convex in v).
            """
            budget = best - cur_sq - v * v
            w2 = w_rem - v * d
            if budget < 0 or w2 * w2 > budget * s_rest:
                return True
            lb = (w2 * w2 + s_rest - 1) // s_rest
            if cur_sq + v * v + lb <= best:
                cur[j] = v
                rec(j + 1, w2, cur_sq + v * v)
            return False

        v = center
        while True:
            exceeded = try_value(v)
            if exceeded and v > center:
                break
            v += 1
        v = center - 1
        while not try_value(v):
            v -= 1

    rec(0, w, 0)

    remapped = []
    for sol in sols:
        t = [0] * s
        for pos, i in enumerate(order):
            t[i] = sol[pos]
        remapped.append(tuple(t))
    remapped.sort()
    return best, tuple(remapped)


def _report(profile: DegreeProfile, w: int) -> MinimalReport:
    s_min, tuples = _search_minimal(profile.degrees, w)
    eps = Fraction(s_min) - Fraction(w * w, profile.order)
    return MinimalReport(r=w, tuples=tuples, s_r=s_min, eps_r=eps)


def minimal_tuples(profile: DegreeProfile, r: int) -> MinimalReport:
    """All minimal tuples for a residue 0 <= r < a, lexicographically sorted."""
    validate_profile(profile)
    if not 0 <= r < profile.order:
        raise RangeError(f"residue r={r} outside [0, {profile.order})")
    return _report(profile, r)


def minimal_tuples_direct(profile: DegreeProfile, n: int) -> MinimalReport:
    """Minimal tuples for an arbitrary weight n >= 0 by direct search.

    Same search as ``minimal_tuples`` but without the residue restriction;
    useful to cross-check the lifting correspondence at moderate n.
    """
    validate_profile(profile)
    if n < 0:
        raise RangeError("weight must be >= 0")
    return _report(profile, n)


def epsilon(profile: DegreeProfile, r: int) -> Fraction:
    """Exact rational eps_r = S_r - r^2/a."""
    return minimal_tuples(profile, r).eps_r


def stability_bound(profile: DegreeProfile) -> StabilityBound:
    """Smallest b such that b*d_i + r_i >= 0 over all residues' minimal tuples.

    N = b*a; beyond N every minimal tuple is eligible.  N never exceeds
    a*(a-1).
    """
    validate_profile(profile)
    a = profile.order
    b = 0
    for r in range(a):
        for t in _report(profile, r).tuples:
            for e, d in zip(t, profile.degrees):
                if e < 0:
                    b = max(b, (-e + d - 1) // d)
    n_threshold = b * a
    if n_threshold > a * (a - 1):
        raise InvariantViolation(f"stability bound N={n_threshold} exceeds a(a-1)={a * (a - 1)}")
    return StabilityBound(b=b, n_threshold=n_threshold)


def lift_minimal(
    profile: DegreeProfile, residue_tuple: tuple[int, ...], k: int
) -> tuple[int, ...]:
    """Lift a minimal tuple for r to the minimal tuple (k*d_i + r_i) for k*a + r."""
    if len(residue_tuple) != profile.s:
        raise LengthMismatch(
            f"tuple has {len(residue_tuple)} entries, profile has {profile.s} coordinates"
        )
    if k < 0:
        raise RangeError("lift multiple k must be >= 0")
    return tuple(k * d + e for e, d in zip(residue_tuple, profile.degrees))


def minimal_tuples_for_n(profile: DegreeProfile, n: int) -> LiftedReport:
    """Minimal tuples for dimension n, via the residue lift n = k*a + r.

    The lifted square-sum is k^2*a + 2*k*r + S_r.  ``all_eligible`` flags
    whether every lifted tuple is entrywise non-negative; for n past the
    stability bound it is always True.
    """
    validate_profile(profile)
    if n < 0:
        raise RangeError("dimension must be >= 0")
    a = profile.order
    k, r = divmod(n, a)
    rep = _report(profile, r)
    lifted = tuple(lift_minimal(profile, t, k) for t in rep.tuples)
    sq = k * k * a + 2 * k * r + rep.s_r
    return LiftedReport(
        n=n,
        k=k,
        r=r,
        tuples=lifted,
        square_sum=sq,
        all_eligible=all(min(t) >= 0 for t in lifted),
    )


def eligible_tuples(
    profile: DegreeProfile, n: int, max_tuples: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """All non-negative integer tuples with sum n_i d_i = n, in lex order.

    These index the conjugation orbits of the homomorphism set in
    dimension n.  Raises ResourceLimit if more than ``max_tuples`` exist.
    """
    validate_profile(profile)
    if n < 0:
        raise RangeError("dimension must be >= 0")
    degrees, s = profile.degrees, profile.s
    out: list[tuple[int, ...]] = []
    # lex-order walk over every coordinate but the last, which takes the
    # weight that remains; rem[j] is the weight left for coordinates j..
    t = [0] * s
    rem = [n] * s
    while True:
        if rem[-1] % degrees[-1] == 0:
            t[-1] = rem[-1] // degrees[-1]
            out.append(tuple(t))
            if max_tuples is not None and len(out) > max_tuples:
                raise ResourceLimit(
                    f"more than {max_tuples} eligible tuples for n={n}"
                )
        j = s - 2
        while j >= 0 and (t[j] + 1) * degrees[j] > rem[j]:
            j -= 1
        if j < 0:
            return tuple(out)
        t[j] += 1
        for i in range(j + 1, s):
            t[i] = 0
            rem[i] = rem[j] - t[j] * degrees[j]
