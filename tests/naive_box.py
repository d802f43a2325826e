"""Naive reference for the minimal-tuple search: the full box, unpruned.

Every tuple of the box [-w, w]^s, or of its non-negative part [0, w]^s, is
enumerated and the optima are read off the full sorted list, with no pruning
and no degree grouping, so tests compare it with ``glhom.minimize``.  It
shares only the oracle's digit walk and candidate cap with the package.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from glhom import oracle
from glhom.errors import InvariantViolation, RangeError, ResourceLimit
from glhom.minimize import MinimalReport
from glhom.profiles import DegreeProfile


def _box_optima(profile: DegreeProfile, w: int, low: int) -> tuple[int, list[tuple[int, ...]]]:
    """(least square-sum, sorted tuples reaching it) over the weight-w tuples of [low, w]^s.

    The box holds an optimum for any low <= 0, because (w, 0, ..., 0) already has
    square-sum w^2; capped at ``oracle.MAX_CANDIDATES`` box points.
    """
    if w < 0:
        raise RangeError(f"weight w={w} is negative")
    s = profile.s
    side = w - low + 1
    total = side**s
    if total > oracle.MAX_CANDIDATES:
        raise ResourceLimit(f"box size {total} exceeds the candidate cap {oracle.MAX_CANDIDATES}")
    degrees = np.array(profile.degrees, dtype=np.int64)
    best: int | None = None
    rows: list[tuple[int, ...]] = []
    for digits in oracle._digit_blocks(side, s, np.int64):
        digits = digits.T + low
        hit = digits[(digits @ degrees) == w]
        if not len(hit):
            continue
        sq = (hit * hit).sum(axis=1)
        block_best = int(sq.min())
        if best is None or block_best < best:
            best, rows = block_best, []
        if block_best == best:
            rows.extend(tuple(map(int, row)) for row in hit[sq == best])
    if best is None:
        raise InvariantViolation(f"box [{low}, {w}]^{s} holds no tuple of weight w={w}")
    rows.sort()
    return best, rows


def minimal_tuples_naive(profile: DegreeProfile, w: int) -> MinimalReport:
    """Minimal tuples for any weight w >= 0 by full enumeration of the box [-w, w]^s.

    Same fields as ``minimize.minimal_tuples``, but every one is read off
    the full sorted list of optima (``tuples`` serves that list), with no
    pruning and no degree grouping.  The cross-check of the DP.
    """
    best, rows = _box_optima(profile, w, -w)
    return MinimalReport(
        w=w,
        s=best,
        eps=Fraction(best) - Fraction(w * w, profile.order),
        m=len(rows),
        sample=rows[0],
        b=max(0, max(-(e // d) for row in rows for e, d in zip(row, profile.degrees))),
        listing=lambda: rows,
    )


def top_term_naive(profile: DegreeProfile, n: int) -> tuple[int, int]:
    """(exponent, coefficient) of f_n's top term, n^2 - S and m over the box [0, n]^s.

    S is the least square-sum of the non-negative tuples of weight n and m their
    number: the cross-check of ``minimize.leading_term``.
    """
    best, rows = _box_optima(profile, n, 0)
    return n * n - best, len(rows)
