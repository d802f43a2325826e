"""Homomorphism-count polynomials f_n, built without listing the orbits they sum.

Each eligible tuple t = (n_1, ..., n_s) for dimension n indexes one
conjugation orbit of homomorphisms, of size |GL_n(q)| / prod |GL_{n_i}(q)|
(a polynomial in q).  Summing over all eligible tuples gives the full
count polynomial f_n with f_n(q) = |Hom(A, GL_n(q))| whenever F_q splits
the group; ``hom_count_poly`` builds it by a knapsack DP without listing
the tuples, on plain ints: every polynomial is its value at q = 2^B, with B
worked out by a pre-flight that also bounds the DP's memory and, from its
exact step count, its work; f_n is read back into an ``IntPolynomial``.  Each
orbit polynomial is monic of degree n^2 - sum n_i^2, so the top of f_n is
n^2 - S and m, the least such sum and its count, which ``minimize.leading_term``
finds without listing tuples; this module, which only ``poly`` and ``verify``
load, never imports ``minimize``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import RangeError, ResourceLimit
from .profiles import DegreeProfile

#: Degree of the zero polynomial.  Compares below every integer degree.
NEG_INFINITY = float("-inf")

MAX_PACKED_BITS = 1 << 31
# Admits sym:4 up to n=90 (33 s, 0.97 ns a bit) and dihedral:20 up to n=62 (58 s, 1.7 ns a bit)
MAX_WORK_BITS = 1 << 35
STEP_OVERHEAD_BITS = 4096


class IntPolynomial:
    """Dense polynomial in q with arbitrary-precision integer coefficients, lowest first.

    Canonical form: the highest stored coefficient is nonzero except for the zero
    polynomial, which stores nothing.  Instances are immutable and hashable.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[int] = ()):
        coeffs = [int(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs = tuple(coeffs)

    @property
    def coefficients(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> int | float:
        """Degree, or NEG_INFINITY for the zero polynomial."""
        return len(self._coeffs) - 1 if self._coeffs else NEG_INFINITY

    @property
    def leading_coefficient(self) -> int:
        return self._coeffs[-1] if self._coeffs else 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPolynomial) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({self.to_text()!r})"

    def evaluate(self, x: int) -> int:
        """Horner evaluation at an integer point; exact."""
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def terms(self) -> Iterator[tuple[int, int]]:
        """Nonzero (exponent, coefficient) pairs, descending exponent."""
        for e in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[e]
            if c:
                yield e, c

    def to_text(self) -> str:
        """Render in descending exponent order, e.g. ``q^4 - q^3 - q^2 + q``."""
        if not self:
            return "0"
        pieces: list[str] = []
        for e, c in self.terms():
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                qpart = "q" if e == 1 else f"q^{e}"
                body = qpart if mag == 1 else f"{mag}*{qpart}"
            if not pieces:
                pieces.append(f"-{body}" if c < 0 else body)
            else:
                pieces.append(f" - {body}" if c < 0 else f" + {body}")
        return "".join(pieces)

    def to_json_obj(self) -> dict[str, str]:
        """Exponent -> coefficient map, both as decimal strings."""
        return {str(e): str(c) for e, c in self.terms()}


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


def _preflight(groups: tuple[tuple[int, int], ...], n: int) -> int:
    """Width B = H_n.bit_length() + 2 of f_n's DP; ResourceLimit if it passes either cap.

    H_0 = 1, H_w = sum_(d,c) c 2^(d-1) H_(w-d) bounds f_n's |coefficients| below 2^(B-2),
    so ``_unpack`` is exact.  Memory, a q-Pascal row (one coordinate builds none) and one
    packed state, is checked at B = 3 before this O(n) loop.
    Work is the exact step count times the widest state, plus STEP_OVERHEAD_BITS per step.
    """
    row = n**3 // 6 if sum(c for _, c in groups) > 1 else 0
    h = [1]
    for w in range(1, n + 1 if (row + n * n + 1) * 3 <= MAX_PACKED_BITS else 1):
        h.append(sum((c * h[w - d]) << (d - 1) for d, c in groups if d <= w))
    bits = h[-1].bit_length() + 2
    working = (row + n * n + 1) * bits
    if working > MAX_PACKED_BITS:
        held = "a q-Pascal row and one packed state" if row else "one packed state"
        raise ResourceLimit(
            f"n={n} needs about {working} bits for {held},"
            f" more than the cap of {MAX_PACKED_BITS} bits"
        )
    steps = _transitions(groups, n)
    work = steps * ((n * n + 1) * bits + STEP_OVERHEAD_BITS)
    if work > MAX_WORK_BITS:
        raise ResourceLimit(
            f"n={n} needs about {work} bits of packed arithmetic ({steps} DP steps),"
            f" more than the cap of {MAX_WORK_BITS} bits"
        )
    return bits


def _unpack(value: int, bits: int) -> list[int]:
    """Balanced base-2^bits digits of ``value``, lowest first: the coefficients at q = 2^bits.

    Exact when every coefficient has |c| < 2^(bits-1), as the width ``_preflight``
    returns makes sure: a block of h digits is then the residue of ``value`` mod
    2^(h*bits) nearest to zero.  Blocks are halved top down, in ceil(log2(length)) passes.
    """
    levels = (abs(value).bit_length() // bits).bit_length()
    vals = [value]
    for level in range(levels - 1, -1, -1):
        width = bits << level
        mask = (1 << width) - 1
        half = 1 << (width - 1)
        split: list[int] = []
        for v in vals:
            lo = ((v + half) & mask) - half
            split += (lo, (v - lo) >> width)
        vals = split
    return vals


def hom_count_poly(profile: DegreeProfile, n: int) -> IntPolynomial:
    """Full count polynomial f_n: the sum over eligible tuples of their orbit sizes.

    Evaluating at any prime power q for which F_q splits the group gives
    |Hom(A, GL_n(q))| exactly.  No tuple is listed: f_n comes from a knapsack
    DP read off sum_n f_n x^n / |GL_n| = prod_i sum_k x^(k d_i) / |GL_k|.
    State (w, M) (weight used, M = sum n_i) holds the non-negative polynomial
    P_{w,M} = sum_t [M; t]_q q^(sum_{i<j} n_i n_j).  Value k on a coordinate
    of degree d moves it to (w + k d, M + k) times [M + k; k]_q q^(M k), and
    f_n = sum_M |GL_n| / |GL_M| * P_{n,M}.  Each polynomial is one int, its
    value at q = 2^B, and f_n is unpacked once.  |GL_n| / |GL_M| has |coefficients| summing
    to at most 2^(n-M), so sum_M P_{n,M}(1) 2^(n-M), a sum of multinomials equal to the x^n
    coefficient H_n of 1 / (1 - sum_i 2^(d_i-1) x^(d_i)), bounds every coefficient of f_n.
    ``_preflight`` returns B from H_n, or raises past MAX_PACKED_BITS or MAX_WORK_BITS.
    """
    if n < 0:
        raise RangeError("dimension must be >= 0")
    if n == 0:
        return IntPolynomial((1,))  # GL_0 is trivial, whatever the number of coordinates
    bits = _preflight(profile.groups[::-1], n)
    final = _packed_states(profile.degrees[::-1], n, bits)  # largest first; d_1 = 1 fills to n
    # Horner over M, with |GL_M| / |GL_(M-1)| = Q^(2M-1) - Q^(M-1)
    total = final.get(0, 0)
    for m in range(1, n + 1):
        total = (total << bits * (2 * m - 1)) - (total << bits * (m - 1)) + final.get(m, 0)
    return IntPolynomial(_unpack(total, bits))
