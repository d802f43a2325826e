"""Pure-Python reference for the brute-force oracle's matrix enumeration.

A matrix type over F_q with entries in tuples, an enumerator of GL_n(q)
that tests every candidate's determinant one at a time, and an order
filter built on them.  They share no arithmetic with the numpy path in
``glhom.oracle`` (only its argument guards), so tests compare the two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from glhom.errors import RangeError, ValidationError
from glhom.oracle import _check_args


@dataclass(frozen=True)
class PrimeFieldMatrix:
    """Square matrix over the prime field F_q, entries reduced mod q."""

    n: int
    q: int
    entries: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows, q: int) -> "PrimeFieldMatrix":
        ent = tuple(tuple(int(x) % q for x in row) for row in rows)
        return cls(n=len(ent), q=q, entries=ent)

    @classmethod
    def identity(cls, n: int, q: int) -> "PrimeFieldMatrix":
        return cls(n=n, q=q, entries=tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        ))

    def __mul__(self, other: "PrimeFieldMatrix") -> "PrimeFieldMatrix":
        n, q = self.n, self.q
        a, b = self.entries, other.entries
        rows = tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(n)) % q for j in range(n))
            for i in range(n)
        )
        return PrimeFieldMatrix(n=n, q=q, entries=rows)

    def det(self) -> int:
        n, q, e = self.n, self.q, self.entries
        if n == 0:
            return 1  # the empty product
        if n == 1:
            return e[0][0] % q
        if n == 2:
            return (e[0][0] * e[1][1] - e[0][1] * e[1][0]) % q
        if n == 3:
            return (
                e[0][0] * (e[1][1] * e[2][2] - e[1][2] * e[2][1])
                - e[0][1] * (e[1][0] * e[2][2] - e[1][2] * e[2][0])
                + e[0][2] * (e[1][0] * e[2][1] - e[1][1] * e[2][0])
            ) % q
        raise RangeError("determinant implemented for n <= 3 only")

    def inverse(self) -> "PrimeFieldMatrix":
        """Inverse via the adjugate; supports n <= 3."""
        n, q, e = self.n, self.q, self.entries
        if n == 0:
            return self  # GL_0's one matrix
        d = self.det()
        if d == 0:
            raise ValidationError("matrix is singular")
        dinv = pow(d, -1, q)
        if n == 1:
            adj = ((1,),)
        elif n == 2:
            adj = ((e[1][1], -e[0][1]), (-e[1][0], e[0][0]))
        else:
            adj = tuple(
                tuple(
                    (-1) ** (i + j) * _minor3(e, j, i) for j in range(3)
                )
                for i in range(3)
            )
        rows = tuple(tuple((x * dinv) % q for x in row) for row in adj)
        return PrimeFieldMatrix(n=n, q=q, entries=rows)

    def power(self, exponent: int) -> "PrimeFieldMatrix":
        base = self if exponent >= 0 else self.inverse()
        result = PrimeFieldMatrix.identity(self.n, self.q)
        for _ in range(abs(exponent)):
            result = result * base
        return result

    @property
    def is_identity(self) -> bool:
        return self == PrimeFieldMatrix.identity(self.n, self.q)


def _minor3(e, i: int, j: int) -> int:
    rows = [r for r in range(3) if r != i]
    cols = [c for c in range(3) if c != j]
    return (
        e[rows[0]][cols[0]] * e[rows[1]][cols[1]]
        - e[rows[0]][cols[1]] * e[rows[1]][cols[0]]
    )


def gl_enumerate(n: int, q: int) -> Iterator[PrimeFieldMatrix]:
    """Every invertible n x n matrix over F_q exactly once, as a lazy stream.

    Argument problems, q^(n^2) past MAX_CANDIDATES too, are reported
    immediately; the companion count lives in ``gl_count``.  GL_0 is the one 0 x 0 matrix.
    """
    _check_args(n, q)

    def stream() -> Iterator[PrimeFieldMatrix]:
        for flat in itertools.product(range(q), repeat=n * n):
            m = PrimeFieldMatrix(
                n=n, q=q, entries=tuple(flat[i * n : (i + 1) * n] for i in range(n))
            )
            if m.det() != 0:
                yield m

    return stream()


def count_units_of_order_dividing(n: int, q: int, *exponents: int) -> list[int]:
    """For each exponent m >= 0, the units g with g^m = 1 (pure Python, no numpy).

    One pass over the matrix stream, each unit's powers by repeated
    multiplication: a slow reference path kept separate from the vectorised
    enumeration so the two can be checked against each other.  g^0 = 1 for every unit.
    """
    counts = dict.fromkeys(exponents, 0)
    identity = PrimeFieldMatrix.identity(n, q)
    for g in gl_enumerate(n, q):
        power = identity
        for m in range(max(exponents) + 1):
            if m in counts and power == identity:
                counts[m] += 1
            power = power * g
    return [counts[m] for m in exponents]
