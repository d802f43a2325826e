"""Reference answers computed without the program under test.

Nothing here imports glhom.  Each quantity comes from a route that shares
no code with the program:

* ``count_poly`` evaluates the generating-function identity
  ``sum_n f_n x^n / |GL_n(q)| = prod_i sum_k x^(k d_i) / |GL_k(q)|`` exactly
  at ``q = 2^B``, with ``B`` large enough that the base-``2^B`` balanced
  digits of ``f_n(2^B)`` are the coefficients of ``f_n``;
* ``residue_rows`` and ``stability_b`` solve the minimal-tuple problem by
  grouping equal degrees: ``c`` coordinates that share a total ``U`` are
  best split evenly, which costs ``c*f^2 + rho*(2f+1)`` (``f = U // c``,
  ``rho = U % c``) in ``C(c, rho)`` optimal ways.  For abelian groups this
  is the closed form ``m_r = C(a, r)``, ``S_r = r``, ``b = 0``;
* ``hom_count_bruteforce`` counts generator tuples of matrices over
  ``F_q`` that satisfy a presentation, by enumerating every matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product


def count_eligible(degrees: tuple[int, ...], n: int) -> int:
    """Number of non-negative tuples with ``sum t_i d_i = n`` (coin-change DP)."""
    ways = [1] + [0] * n
    for d in degrees:
        for w in range(d, n + 1):
            ways[w] += ways[w - d]
    return ways[n]


def _coefficient_l1_bound(degrees: tuple[int, ...], n: int) -> int:
    """Upper bound on the sum of |coefficients| of f_n.

    An orbit polynomial is ``q^alpha [M; t]_q prod_{i=M+1}^{n} (q^i - 1)``
    with ``M = sum t_i``; the q-multinomial has non-negative coefficients
    summing to ``M!/prod t_i!`` and the product has L1 norm at most
    ``2^(n-M)``.  Summing ``M!/prod t_i!`` over tuples of weight ``n`` and
    size ``M`` gives ``[x^n] (sum_i x^(d_i))^M``.
    """
    power = [1] + [0] * n  # (sum_i x^d_i)^M truncated at x^n
    total = 0
    for m in range(n + 1):
        total += power[n] << (n - m)
        nxt = [0] * (n + 1)
        for w, c in enumerate(power):
            if c:
                for d in degrees:
                    if w + d <= n:
                        nxt[w + d] += c
        power = nxt
    return total


def count_poly(degrees: tuple[int, ...], n: int) -> list[int]:
    """Coefficients of f_n (index = exponent), trailing zeros removed."""
    bits = _coefficient_l1_bound(degrees, n).bit_length() + 2
    value = _identity_value(degrees, n, bits)
    coeffs = []
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    while value:
        digit = value & mask
        value >>= bits
        if digit >= half:
            digit -= 1 << bits
            value += 1
        coeffs.append(digit)
    return coeffs


def _identity_value(degrees: tuple[int, ...], n: int, bits: int) -> int:
    """f_n(Q) for Q = 2^bits, from the generating-function identity.

    With ``g_m = |GL_m(Q)|`` the running product is kept as integers
    ``c_m = g_m [x^m] F``.  Multiplying by ``sum_k x^(kd)/g_k`` maps ``c`` to
    ``c'_m = sum_k c_(m-kd) g_m / (g_(m-kd) g_k)``, and
    ``g_m/(g_(m-j) g_k) = Q^(j(m-j)) [m; j]_Q * Q^e prod_{i=k+1}^{j} (Q^i - 1)``
    with ``j = kd`` and ``e = (j(j-1) - k(k-1))/2`` -- integers, so no
    division is needed.  Powers of Q are shifts.
    """
    gauss = [[1]]  # gauss[m][j] = [m; j] at Q
    for m in range(1, n + 1):
        prev = gauss[-1]
        row = [1] * (m + 1)
        for j in range(1, m):
            row[j] = prev[j - 1] + (prev[j] << (bits * j))
        gauss.append(row)

    def index_factor(d: int, k: int) -> tuple[int, int]:
        # g_(kd) / g_k as (odd part, power of Q)
        j = k * d
        prod = 1
        for i in range(k + 1, j + 1):
            prod *= (1 << (bits * i)) - 1
        return prod, (j * (j - 1) - k * (k - 1)) // 2

    factors: dict[int, list[tuple[int, int]]] = {}
    c = [1] + [0] * n
    for d in degrees:
        if d not in factors:
            factors[d] = [index_factor(d, k) for k in range(n // d + 1)]
        fac = factors[d]
        nxt = [0] * (n + 1)
        for m in range(n + 1):
            acc = 0
            for k in range(m // d + 1):
                j = k * d
                prev = c[m - j]
                if prev:
                    odd, e = fac[k]
                    acc += (prev * gauss[m][j] * odd) << (bits * (j * (m - j) + e))
            nxt[m] = acc
        c = nxt
    return c[n]


def evaluate(coeffs: list[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class ResidueRow:
    r: int
    m: int
    sample: tuple[int, ...]
    s: int
    eps: Fraction
    b: int  # smallest b with b*d_i + t_i >= 0 over this residue's minimal tuples


def _groups(degrees: tuple[int, ...]) -> list[tuple[int, int]]:
    """(degree, multiplicity) for each distinct degree, in coordinate order."""
    out: list[tuple[int, int]] = []
    for d in degrees:
        if out and out[-1][0] == d:
            out[-1] = (d, out[-1][1] + 1)
        else:
            out.append((d, 1))
    return out


def _split_cost(total: int, c: int) -> int:
    f, rho = divmod(total, c)
    return c * f * f + rho * (2 * f + 1)


def _total_range(center: Fraction, radius_sq: Fraction) -> range:
    """Integers U with (U - center)^2 <= radius_sq."""
    lo = math.floor(center - math.isqrt(math.ceil(radius_sq)) - 1)
    hi = math.ceil(center + math.isqrt(math.ceil(radius_sq)) + 1)
    ok = [u for u in range(lo, hi + 1) if (u - center) ** 2 <= radius_sq]
    return range(ok[0], ok[-1] + 1) if ok else range(0)


def residue_row(degrees: tuple[int, ...], order: int, r: int) -> ResidueRow:
    """Minimal tuples of weight r: S_r, m_r, the lex-first tuple and b."""
    groups = _groups(degrees)
    if groups[0][0] != 1:
        raise ValueError("profile needs a degree-1 coordinate first")
    rest = groups[1:]
    # A feasible point bounds the optimum: sum (t_i - r d_i/a)^2 = S - r^2/a.
    guess = [round(Fraction(c * r * d, order)) for d, c in rest]
    first = r - sum(d * u for (d, _), u in zip(rest, guess))
    feasible = _split_cost(first, groups[0][1]) + sum(
        _split_cost(u, c) for (_, c), u in zip(rest, guess)
    )
    slack = feasible - Fraction(r * r, order)
    ranges = [_total_range(Fraction(c * r * d, order), slack * c) for d, c in rest]

    best = None
    optima: list[tuple[int, ...]] = []
    for totals in product(*ranges):
        first = r - sum(d * u for (d, _), u in zip(rest, totals))
        cost = _split_cost(first, groups[0][1]) + sum(
            _split_cost(u, c) for (_, c), u in zip(rest, totals)
        )
        if best is None or cost < best:
            best, optima = cost, []
        if cost == best:
            optima.append((first,) + totals)

    m = 0
    b = 0
    for totals in optima:
        ways = 1
        for (d, c), u in zip(groups, totals):
            ways *= math.comb(c, u % c)
            low = u // c
            if low < 0:
                b = max(b, -(low // d))  # ceil(-low / d)
        m += ways
    sample: list[int] = []
    for (_, c), u in zip(groups, min(optima)):
        f, rho = divmod(u, c)
        sample += [f] * (c - rho) + [f + 1] * rho
    return ResidueRow(
        r=r, m=m, sample=tuple(sample), s=best, eps=best - Fraction(r * r, order), b=b
    )


def residue_rows(degrees: tuple[int, ...], order: int) -> list[ResidueRow]:
    return [residue_row(degrees, order, r) for r in range(order)]


def stability_b(degrees: tuple[int, ...], order: int) -> int:
    return max(row.b for row in residue_rows(degrees, order))


# --- brute force over matrices -------------------------------------------
#
# A batch of n x n matrices is kept as an n x n grid of equal-length numpy
# columns, so a product is n^3 vector multiplies.


def _all_matrices(n: int, q: int):
    """Every n x n matrix over F_q, as a grid of int32 columns."""
    import numpy as np

    flat = np.indices((q,) * (n * n), dtype=np.int32).reshape(n * n, -1)
    return [[flat[i * n + j] for j in range(n)] for i in range(n)]


def _mul(a, b, q: int):
    n = len(a)
    return [
        [sum(a[i][j] * b[j][k] for j in range(n)) % q for k in range(n)]
        for i in range(n)
    ]


def _power(mats, e: int, q: int):
    out = None
    base = mats
    while e:
        if e & 1:
            out = base if out is None else _mul(out, base, q)
        e >>= 1
        if e:
            base = _mul(base, base, q)
    return out


def _is_identity(mats):
    import numpy as np

    n = len(mats)
    ok = np.ones(len(mats[0][0]), dtype=bool)
    for i in range(n):
        for j in range(n):
            ok &= mats[i][j] == (1 if i == j else 0)
    return ok


def _select(mats, mask):
    return [[col[mask] for col in row] for row in mats]


def _roots_of_unity(n: int, q: int, e: int):
    """All matrices g over F_q with g^e = 1."""
    mats = _all_matrices(n, q)
    return _select(mats, _is_identity(_power(mats, e, q)))


def hom_count_bruteforce(family: str, m: int, n: int, q: int) -> int:
    """|Hom(A, GL_n(q))| for cyclic:m, dihedral:m or sym:4 (m = 4).

    Presentations: cyclic <x | x^m>, dihedral <x, y | x^m, y^2, (xy)^2>,
    S4 <x, y | x^2, y^3, (xy)^4>.  Each generator ranges over the matrices
    of order dividing its power relator; pairs are checked on the last
    relator.
    """
    if family == "cyclic":
        return len(_roots_of_unity(n, q, m)[0][0])
    if family == "dihedral":
        xs, ys, mixed = _roots_of_unity(n, q, m), _roots_of_unity(n, q, 2), 2
    elif family == "sym" and m == 4:
        xs, ys, mixed = _roots_of_unity(n, q, 2), _roots_of_unity(n, q, 3), 4
    else:
        raise ValueError(f"no presentation for {family}:{m}")
    count = 0
    for idx in range(len(ys[0][0])):
        y = [[int(col[idx]) for col in row] for row in ys]
        count += int(_is_identity(_power(_mul(xs, y, q), mixed, q)).sum())
    return count
