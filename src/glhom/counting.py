"""Homomorphism-count polynomials f_n and the orbit polynomials they sum.

Each eligible tuple t = (n_1, ..., n_s) for dimension n indexes one
conjugation orbit of homomorphisms, of size |GL_n(q)| / prod |GL_{n_i}(q)|
(a polynomial in q).  Summing over all eligible tuples gives the full
count polynomial f_n with f_n(q) = |Hom(A, GL_n(q))| whenever F_q splits
the group; ``hom_count_poly`` builds it by a knapsack DP without listing
the tuples, on plain ints: every polynomial is its value at q = 2^B, with
B fixed by the same DP run at q = 1, after a pre-flight that bounds its
memory and, from its exact step count, its work.  The top of f_n is
controlled by the minimal tuples alone: degree n^2(1 - 1/a) - eps_r and
leading coefficient m_r, with r = n mod a.  ``minimize.leading_term`` reads
it off them, so this module, which only ``poly`` and ``verify`` load, never
imports ``minimize``.
"""

from __future__ import annotations

from .errors import IneligibleTuple, InvariantViolation, RangeError, ResourceLimit
from .intpoly import IntPolynomial, _unpack, div_exact, gl_order_poly
from .profiles import DegreeProfile, weight

MAX_PACKED_BITS = 1 << 31
# At 0.1-2.2 ns a bit, this admits cyclic:2 n=332 and sym:4 n=80, not sym:4 n=120
MAX_WORK_BITS = 1 << 35
STEP_OVERHEAD_BITS = 4096


def orbit_poly(profile: DegreeProfile, entries: tuple[int, ...]) -> IntPolynomial:
    """Orbit size |GL_n| / prod |GL_{n_i}| as a polynomial in q.

    The quotient is always exact (the denominator is the order polynomial
    of the orbit stabilizer); a nonzero remainder would indicate a logic
    bug and raises NonZeroRemainder.  Degree is n^2 - sum n_i^2, leading
    coefficient 1; a quotient of any other shape raises InvariantViolation.
    """
    n = weight(entries, profile)
    if any(e < 0 for e in entries):
        raise IneligibleTuple(f"tuple {entries} has negative entries")
    den = IntPolynomial.one()
    for e in entries:
        if e:
            den = den * gl_order_poly(e)
    quot = div_exact(gl_order_poly(n), den)
    degree = n * n - sum(e * e for e in entries)
    if quot.degree != degree or quot.leading_coefficient != 1:
        raise InvariantViolation(f"orbit polynomial of {entries} is not monic of degree {degree}")
    return quot


def _transitions(groups: tuple[tuple[int, int], ...], n: int) -> int:
    """How many (state, k) steps ``_packed_states`` takes, at any bits, on ``groups``.

    ``groups`` are (d, c) pairs, largest d first.  One coordinate of degree d reaches
    the same states (w, M) as any number of them, so each group is walked once.
    Bit M of masks[w] marks (w, M); the last coordinate takes one step per state.
    """
    *head, (_, ones) = groups
    masks, total = {0: 1}, 0
    for d, c in [*head, (1, ones - 1)]:
        if not c:
            continue
        grown: dict[int, int] = {}
        for w, mask in masks.items():
            total += mask.bit_count() * ((n - w) // d + 1)
            for k in range((n - w) // d + 1):
                grown[w + k * d] = grown.get(w + k * d, 0) | mask << k
        masks = grown
        total += (c - 1) * sum(mask.bit_count() * ((n - w) // d + 1) for w, mask in masks.items())
    return total + sum(mask.bit_count() for mask in masks.values())


def _packed_states(degrees: tuple[int, ...], n: int, bits: int) -> dict[int, int]:
    """P_{n,M}(2^bits) for each M, from the knapsack DP described in ``hom_count_poly``.

    The Gaussian factor [M'; k] at Q = 2^bits is read off one q-Pascal row,
    [M'; k] = [M' - 1; k - 1] + Q^k [M' - 1; k], updated in place; the
    transitions of a coordinate are taken in order of their target M' = M + k.
    [M'; 0] = [M'; M'] = 1 needs no row, so the first coordinate builds none.
    """
    states = {(0, 0): 1}
    for j, d in enumerate(degrees):
        by_target: dict[int, list[tuple[int, int, int]]] = {}
        for (w, m), value in states.items():
            for k in range((n - w) // d + 1) if j + 1 < len(degrees) else (n - w,):
                by_target.setdefault(m + k, []).append((w + k * d, m, value))
        states = {}
        row = [1]  # [len(row) - 1; k] at Q, grown only as far as some 0 < k < M' needs it
        for target in sorted(by_target):
            for w, m, value in by_target.pop(target):
                k = target - m
                if 0 < k < target:
                    while len(row) <= target:
                        row.append(1)
                        for i in range(len(row) - 2, 0, -1):
                            row[i] = row[i - 1] + (row[i] << bits * i)
                    value *= row[k]
                states[w, target] = states.get((w, target), 0) + (value << bits * m * k)
    return {m: value for (w, m), value in states.items() if w == n}


def _preflight(groups: tuple[tuple[int, int], ...], n: int) -> None:
    """ResourceLimit if f_n's DP could pass the memory cap or the work cap.

    Memory is a q-Pascal row, which a single coordinate never builds, plus
    one packed state.  Work is the exact step count times the widest state,
    plus STEP_OVERHEAD_BITS per step.
    """
    # P_{n,M}(1) <= s^M, so sum_M P_{n,M}(1) 2^(n-M) <= (n + 1) max(s, 2)^n
    s = sum(c for _, c in groups)
    max_bits = n * (max(s, 2) - 1).bit_length() + (n + 1).bit_length() + 2
    row = n**3 // 6 if s > 1 else 0
    working = (row + n * n + 1) * max_bits
    if working > MAX_PACKED_BITS:
        held = "a q-Pascal row and one packed state" if row else "one packed state"
        raise ResourceLimit(
            f"n={n} needs about {working} bits for {held},"
            f" more than the cap of {MAX_PACKED_BITS} bits"
        )
    steps = _transitions(groups, n)
    work = steps * ((n * n + 1) * max_bits + STEP_OVERHEAD_BITS)
    if work > MAX_WORK_BITS:
        raise ResourceLimit(
            f"n={n} needs about {work} bits of packed arithmetic ({steps} DP steps),"
            f" more than the cap of {MAX_WORK_BITS} bits"
        )


def hom_count_poly(profile: DegreeProfile, n: int) -> IntPolynomial:
    """Full count polynomial f_n, equal to the sum of ``orbit_poly`` over ``eligible_tuples``.

    Evaluating at any prime power q for which F_q splits the group gives
    |Hom(A, GL_n(q))| exactly.  No tuple is listed: f_n comes from a knapsack
    DP read off sum_n f_n x^n / |GL_n| = prod_i sum_k x^(k d_i) / |GL_k|.
    State (w, M) (weight used, M = sum n_i) holds the non-negative polynomial
    P_{w,M} = sum_t [M; t]_q q^(sum_{i<j} n_i n_j).  Value k on a coordinate
    of degree d moves it to (w + k d, M + k) times [M + k; k]_q q^(M k), and
    f_n = sum_M |GL_n| / |GL_M| * P_{n,M}.  Each polynomial is one int, its
    value at q = 2^B, and f_n is unpacked once.  B comes from the same DP at
    q = 1: |GL_n| / |GL_M| has |coefficients| summing to at most 2^(n-M), so
    sum_M P_{n,M}(1) 2^(n-M) bounds every coefficient of f_n.  ``_preflight``
    raises ResourceLimit first, past MAX_PACKED_BITS or MAX_WORK_BITS.
    """
    if n < 0:
        raise RangeError("dimension must be >= 0")
    if n == 0:
        return IntPolynomial.one()  # GL_0 is trivial, whatever the number of coordinates
    _preflight(profile.groups[::-1], n)
    degrees = profile.degrees[::-1]  # largest first: fewer states; d_1 = 1 last fills to n
    l1 = sum(value << (n - m) for m, value in _packed_states(degrees, n, 0).items())
    bits = l1.bit_length() + 2
    final = _packed_states(degrees, n, bits)
    # Horner over M, with |GL_M| / |GL_(M-1)| = Q^(2M-1) - Q^(M-1)
    total = final.get(0, 0)
    for m in range(1, n + 1):
        total = (total << bits * (2 * m - 1)) - (total << bits * (m - 1)) + final.get(m, 0)
    return IntPolynomial(_unpack(total, bits))
