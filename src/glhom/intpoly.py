"""Univariate polynomials over the integers: ``IntPolynomial``, the type of f_n.

Polynomials live in Z[q] and are stored densely (coefficient index =
exponent).  Coefficients are arbitrary-precision Python ints; inner
coefficients of f_n grow combinatorially even when the leading ones
stay small.  ``hom_count_poly`` runs its whole DP
on plain ints, each polynomial packed as its value at q = 2^B (Kronecker
substitution), and ``_unpack`` reads the balanced base-2^B digits back.
"""

from __future__ import annotations

from typing import Iterable, Iterator

#: Degree of the zero polynomial.  Compares below every integer degree.
NEG_INFINITY = float("-inf")


def _trimmed(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _unpack(value: int, bits: int) -> list[int]:
    """Balanced base-2^bits digits of ``value``, lowest first: the coefficients at q = 2^bits.

    Exact when every coefficient has |c| < 2^(bits-1): a block of h digits is
    then the residue of ``value`` mod 2^(h*bits) nearest to zero.  Blocks are
    halved top down, so there are ceil(log2(length)) passes.
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
    return _trimmed(vals)


class IntPolynomial:
    """Dense univariate polynomial with integer coefficients.

    Canonical form: the highest stored coefficient is nonzero except for
    the zero polynomial, which stores nothing.  Instances are immutable
    and hashable.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[int] = ()):
        coeffs = [int(c) for c in coefficients]
        self._coeffs = tuple(_trimmed(coeffs))

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @property
    def coefficients(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def degree(self) -> int | float:
        """Degree, or NEG_INFINITY for the zero polynomial."""
        return len(self._coeffs) - 1 if self._coeffs else NEG_INFINITY

    @property
    def leading_coefficient(self) -> int:
        return self._coeffs[-1] if self._coeffs else 0

    def coefficient(self, exponent: int) -> int:
        if 0 <= exponent < len(self._coeffs):
            return self._coeffs[exponent]
        return 0

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
        if self.is_zero:
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
