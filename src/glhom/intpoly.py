"""Exact arithmetic for univariate polynomials over the integers.

Polynomials live in Z[q] and are stored densely (coefficient index =
exponent).  Coefficients are arbitrary-precision Python ints; inner
coefficients of the polynomials built here grow combinatorially even
when the leading ones stay small.  Products use Kronecker substitution:
``_pack`` evaluates each factor at q = 2^B, one big-int multiply follows,
and ``_unpack`` reads the balanced base-2^B digits back; ``hom_count_poly``
runs its whole DP on the same packed form.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

from .errors import DivisionByZero, NonZeroRemainder, RangeError

#: Degree of the zero polynomial.  Compares below every integer degree.
NEG_INFINITY = float("-inf")


def _trimmed(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _add_lists(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trimmed(out)


def _pack(coeffs: Iterable[int], bits: int) -> int:
    """Value at q = 2^bits of the polynomial with these (signed) coefficients.

    Neighbours are merged pairwise: ceil(log2(length)) passes, not one per term.
    """
    vals = list(coeffs) or [0]
    while len(vals) > 1:
        if len(vals) % 2:
            vals.append(0)
        vals = [lo + (hi << bits) for lo, hi in zip(vals[::2], vals[1::2])]
        bits *= 2
    return vals[0]


def _unpack(value: int, bits: int) -> list[int]:
    """Balanced base-2^bits digits of ``value``, lowest first: ``_pack`` inverted.

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
    and hashable; all operations return new polynomials.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[int] = ()):
        coeffs = [int(c) for c in coefficients]
        self._coeffs = tuple(_trimmed(coeffs))

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def monomial(cls, coefficient: int, exponent: int) -> "IntPolynomial":
        if exponent < 0:
            raise RangeError("monomial exponent must be >= 0")
        return cls([0] * exponent + [coefficient])

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

    def shifted(self, k: int) -> "IntPolynomial":
        """Multiply by q^k."""
        if self.is_zero:
            return self
        if k < 0:
            raise RangeError("shift must be >= 0")
        return IntPolynomial((0,) * k + self._coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(_add_lists(list(self._coeffs), list(other._coeffs)))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(-c for c in self._coeffs)

    def __mul__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial(c * other for c in self._coeffs)
        a, b = self._coeffs, other._coeffs
        bound = min(len(a), len(b)) * max(map(abs, a), default=0) * max(map(abs, b), default=0)
        bits = bound.bit_length() + 1
        return IntPolynomial(_unpack(_pack(a, bits) * _pack(b, bits), bits))

    __rmul__ = __mul__

    def __floordiv__(self, other: "IntPolynomial") -> "IntPolynomial":
        return div_exact(self, other)

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

    __call__ = evaluate

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

    @classmethod
    def from_json_obj(cls, obj: dict[str, str]) -> "IntPolynomial":
        coeffs: list[int] = []
        for e_str, c_str in obj.items():
            e = int(e_str)
            if e < 0:
                raise RangeError("negative exponent in polynomial JSON")
            if e >= len(coeffs):
                coeffs.extend([0] * (e + 1 - len(coeffs)))
            coeffs[e] = int(c_str)
        return cls(coeffs)


def div_exact(num: IntPolynomial, den: IntPolynomial) -> IntPolynomial:
    """Exact quotient num / den, asserting the division leaves no remainder.

    Integer long division: each quotient coefficient is a step's top
    remainder over the leading coefficient of ``den``, so an integral
    quotient never needs a fraction.  A step that does not divide leaves
    its residue in a slot no later step touches, so any nonzero remainder,
    fractional quotient included, raises NonZeroRemainder.
    """
    if den.is_zero:
        raise DivisionByZero("division by the zero polynomial")
    if num.is_zero:
        return IntPolynomial.zero()
    dn = len(num.coefficients) - 1
    dd = len(den.coefficients) - 1
    if dn < dd:
        raise NonZeroRemainder("dividend degree below divisor degree")
    d = den.coefficients
    rem = list(num.coefficients)
    quot = [0] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        c = rem[k + dd] // d[-1]
        if c:
            quot[k] = c
            for j in range(dd + 1):
                rem[k + j] -= c * d[j]
    if any(rem):
        raise NonZeroRemainder("polynomial division left a remainder")
    return IntPolynomial(quot)


@lru_cache(maxsize=128)
def gl_order_poly(n: int) -> IntPolynomial:
    """Order of GL_n as a polynomial in q: prod_{i=0}^{n-1} (q^n - q^i).

    Degree is exactly n^2 and the leading coefficient is 1.
    """
    if n < 0:
        raise RangeError("matrix dimension must be >= 0")
    coeffs = [1]
    for i in range(n):
        coeffs = _add_lists([0] * n + coeffs, [0] * i + [-c for c in coeffs])
    return IntPolynomial(coeffs)
