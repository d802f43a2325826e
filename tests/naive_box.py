"""Naive reference for the minimal-tuple search: the full box, unpruned.

Every tuple of the box [-r, r]^s is enumerated and the optima are read off
the full sorted list, with no pruning and no degree grouping, so tests
compare it with ``glhom.minimize``.  It shares only the oracle's digit walk
and candidate cap with the package.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from glhom import oracle
from glhom.errors import InvariantViolation, RangeError, ResourceLimit
from glhom.minimize import MinimalReport
from glhom.profiles import DegreeProfile


def minimal_tuples_naive(profile: DegreeProfile, r: int) -> MinimalReport:
    """Minimal tuples for r by full enumeration of the box [-r, r]^s.

    Same fields as ``minimize.minimal_tuples``, but every one is read off
    the full sorted list of optima (``tuples`` serves that list), with no
    pruning and no degree grouping; the box holds them all because
    (r, 0, ..., 0) already has square-sum r^2.  The cross-check of the DP,
    capped at ``oracle.MAX_CANDIDATES`` box points.
    """
    if not 0 <= r < profile.order:
        raise RangeError(f"residue r={r} outside [0, {profile.order})")
    s = profile.s
    side = 2 * r + 1
    total = side**s
    if total > oracle.MAX_CANDIDATES:
        raise ResourceLimit(f"box size {total} exceeds the candidate cap {oracle.MAX_CANDIDATES}")
    degrees = np.array(profile.degrees, dtype=np.int64)
    best: int | None = None
    rows: list[tuple[int, ...]] = []
    for digits in oracle._digit_blocks(side, s, np.int64):
        digits = digits.T - r
        hit = digits[(digits @ degrees) == r]
        if not len(hit):
            continue
        sq = (hit * hit).sum(axis=1)
        block_best = int(sq.min())
        if best is None or block_best < best:
            best, rows = block_best, []
        if block_best == best:
            rows.extend(tuple(map(int, row)) for row in hit[sq == best])
    if best is None:
        raise InvariantViolation(f"box [-{r}, {r}]^{s} holds no tuple of weight r={r}")
    rows.sort()
    return MinimalReport(
        r=r,
        s_r=best,
        eps_r=Fraction(best) - Fraction(r * r, profile.order),
        m_r=len(rows),
        sample=rows[0],
        b=max(0, max(-(e // d) for row in rows for e, d in zip(row, profile.degrees))),
        listing=lambda: rows,
    )
