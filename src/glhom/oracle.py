"""Independent brute-force ground truth over small finite matrix groups.

Everything here recomputes, by direct enumeration, quantities the rest of
the package derives through polynomial identities: the order of GL_n(q)
for prime q and n <= 3, and the number of homomorphisms from a finitely
presented group into GL_n(q).  The implementations deliberately share no
logic with the modules they check.  Matrices are indices read as
mixed-radix digits off one reused low-digit table (``_digit_blocks``), in
integer arithmetic only, so numpy never calls BLAS here.  Matrices
are raised to powers only by squaring (``_power``), inverses g^-1 = g^(2m-1)
included, m a power relator's exponent or else that of GL_n(q); g^e = 1 with
e >= 1 needs no determinant, and its last product, like a relator's, is tested
entry by entry.
The pure-Python matrix reference and the naive minimal-tuple box search, which
reuses ``_digit_blocks``, live with the tests.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Iterator

import numpy as np

from .errors import ParseError, RangeError, ResourceLimit, ValidationError
from .profiles import GroupSpec, _Record, prime_base

MAX_CANDIDATES = 10**8  # caps q^(n^2), the candidate tuples and the tests' naive box alike

_BLOCK_ROWS = 1 << 16
_JOIN_ENTRIES = 1 << 20


def _require_prime(q: int) -> None:
    if prime_base(q) != q:
        raise ValidationError(f"q={q} must be prime for brute-force enumeration")


def _check_enum_args(n: int, q: int) -> None:
    if not 1 <= n <= 3:
        raise RangeError("matrix enumeration supports 1 <= n <= 3")
    _require_prime(q)
    total = q ** (n * n)
    if total > MAX_CANDIDATES:
        raise ResourceLimit(f"q^(n^2) = {total} exceeds the candidate cap {MAX_CANDIDATES}")


def _check_hom_args(n: int, q: int) -> None:
    """The refusals of ``hom_count_bruteforce`` that need only n and q."""
    _require_prime(q)
    if n < 0:
        raise RangeError("dimension must be >= 0")
    if n:
        _check_enum_args(n, q)


def _digit_blocks(base: int, width: int, dtype: type) -> Iterator[np.ndarray]:
    """Indices 0 .. base**width - 1 as rows of ``width`` >= 1 digits in ``base``, low first.

    Each block, of at most _BLOCK_ROWS rows, is one table of the ``low`` lowest digits under a
    run of digit ``low`` and fixed higher digits, in a reused ``dtype`` buffer that consumers
    copy from.
    """
    low = next((k for k in range(width - 1) if base ** (k + 1) > _BLOCK_ROWS), width - 1)
    table = (np.arange(base**low)[:, None] // base ** np.arange(low)) % base
    run = min(base, _BLOCK_ROWS // len(table))
    buf = np.empty((run, len(table), width), dtype=dtype)
    buf[:, :, :low] = table
    for high in np.ndindex((base,) * (width - low - 1)):
        buf[:, :, low + 1 :] = high[::-1]
        for start in range(0, base, run):
            stop = min(start + run, base)
            buf[: stop - start, :, low] = np.arange(start, stop)[:, None]
            yield buf[: stop - start].reshape(-1, width)


def _matrix_type(n: int, q: int) -> type:
    """The integer type of n x n matrix stacks mod q: int32 wherever every intermediate fits.

    Entries are < q, an entry of a product is < n*q^2, and the 3 x 3 determinant of
    ``_det_mod`` is < 3*q^3 in absolute value.  Under MAX_CANDIDATES, n = 2 means q <= 97 and
    n = 3 means q <= 7, so only n = 1 (q up to 10^8) can need int64.
    """
    return np.int32 if (3 * q**3 if n == 3 else n * q * q) < 2**31 else np.int64


def _reduce(x: np.ndarray, q: int) -> np.ndarray:
    """x mod q, in place: numpy divides by a scalar in SIMD, but its ``%`` does not."""
    quotient = x // q
    quotient *= q
    x -= quotient
    return x


def _mul_mod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """The products a[i] @ b[i] mod q of two stacks; 1 x 1 stacks multiply elementwise."""
    return _reduce((np.multiply if a.shape[-1] == 1 else np.matmul)(a, b), q)


def _det_mod(mats: np.ndarray, q: int) -> np.ndarray:
    n = mats.shape[-1]
    if n == 1:
        return mats[:, 0, 0]  # entries are already below q
    if n == 2:
        return _reduce(mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0], q)
    a, b, c = mats[:, 0, 0], mats[:, 0, 1], mats[:, 0, 2]
    d, e, f = mats[:, 1, 0], mats[:, 1, 1], mats[:, 1, 2]
    g, h, i = mats[:, 2, 0], mats[:, 2, 1], mats[:, 2, 2]
    return _reduce(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g), q)


def _power(mats: np.ndarray, e: int, q: int) -> np.ndarray:
    """Each matrix of the stack to the power e >= 0, mod q, in O(log e) products."""
    power = mats if e else np.broadcast_to(np.eye(mats.shape[-1], dtype=mats.dtype), mats.shape)
    for bit in bin(e)[3:]:  # the bits of e after its leading 1
        power = _mul_mod(power, power, q)
        if bit == "1":
            power = _mul_mod(power, mats, q)
    return power


def _identity_rows(left: np.ndarray, right: np.ndarray, q: int) -> np.ndarray:
    """The indices i with left[i] @ right[i] = 1 mod q; i leaves at its first wrong entry."""
    rows = np.flatnonzero(_reduce(np.einsum("ij,ij->i", left[:, 0], right[:, :, 0]), q) == 1)
    for a, b in list(np.ndindex(left.shape[1:]))[1:]:
        entry = _reduce(np.einsum("ij,ij->i", left[rows, a], right[rows, :, b]), q)
        rows = rows[entry == (a == b)]
    return rows


def _eval_word(
    word: tuple[int, ...],
    rows: np.ndarray,
    mats: list[np.ndarray | None],
    invs: list[np.ndarray | None],
    q: int,
) -> np.ndarray:
    """Whether ``word``, of two or more letters, is the identity on each row of generator indices.

    Row ``i`` assigns candidate ``rows[i, g]`` of ``mats[g]`` (its inverse
    from ``invs[g]``) to generator ``g + 1``; the result is a bool per row.
    """
    factors = {
        letter: (mats if letter > 0 else invs)[abs(letter) - 1][rows[:, abs(letter) - 1]]
        for letter in set(word)
    }
    cur = factors[word[0]]
    for letter in word[1:-1]:
        cur = _mul_mod(cur, factors[letter], q)
    return np.bincount(_identity_rows(cur, factors[word[-1]], q), minlength=len(rows)) > 0


def _unit_blocks(n: int, q: int, e: int) -> Iterator[np.ndarray]:
    """The n x n matrices g with g^e = 1, block by block; for e = 0 every invertible one.

    g^e = 1 with e >= 1 makes g invertible; g^e is tested as g^(e - e//2) g^(e//2).
    """
    _check_enum_args(n, q)
    for digits in _digit_blocks(q, n * n, _matrix_type(n, q)):
        mats = digits.reshape(-1, n, n)
        right = _power(mats, e // 2, q)
        left = _mul_mod(right, mats, q) if e % 2 else right
        yield mats[_identity_rows(left, right, q) if e else _det_mod(mats, q) != 0]


def _gl_exponent(n: int, q: int) -> int:
    """The least m with g^m = 1 on GL_n(q), q prime: the order q^ceil(log_q n) of an n x n
    Jordan block times lcm(q^i - 1 : i <= n), which the orders of semisimple elements divide.
    """
    unipotent = next(q**k for k in range(n) if q**k >= n)
    return unipotent * math.lcm(*(q**i - 1 for i in range(1, n + 1)))


def gl_count(n: int, q: int) -> int:
    """|GL_n(q)| by direct enumeration (vectorised)."""
    return sum(map(len, _unit_blocks(n, q, 0)))


class Presentation(_Record):
    """Finitely presented group: generator count plus relator words; checked when built.

    A word is a sequence of signed 1-based generator indices; negative
    means the inverse of that generator.
    """

    __slots__ = ("generator_count", "relators", "label")

    def __init__(
        self, generator_count: int, relators: tuple[tuple[int, ...], ...], label: str = ""
    ):
        self._set(generator_count=generator_count, relators=relators, label=label)
        if self.generator_count < 1:
            raise ValidationError("presentation needs at least one generator")
        if not self.relators:
            raise ValidationError("presentation needs at least one relator")
        for word in self.relators:
            if not word:
                raise ValidationError("empty relator word")
            for letter in word:
                if letter == 0 or abs(letter) > self.generator_count:
                    raise ValidationError(f"relator letter {letter} out of range")


_GEN_RE = re.compile(r"x(\d+)")
_INT_RE = re.compile(r"-?\d+")


class _WordParser:
    """Recursive-descent parser for relator words: x1, *, ^int, parentheses."""

    def __init__(self, text: str, offset: int):
        self.text = text
        self.pos = 0
        self.offset = offset  # for error positions in the enclosing string

    def fail(self, message: str):
        raise ParseError(message, self.offset + self.pos)

    def parse(self) -> tuple[int, ...]:
        word = self.word()
        if self.pos != len(self.text):
            self.fail("trailing characters in relator word")
        return tuple(word)

    def word(self) -> list[int]:
        letters = self.factor()
        while self.text.startswith("*", self.pos):
            self.pos += 1
            letters += self.factor()
        return letters

    def factor(self) -> list[int]:
        base = self.atom()
        if self.text.startswith("^", self.pos):
            self.pos += 1
            m = _INT_RE.match(self.text, self.pos)
            if not m:
                self.fail("expected integer exponent after '^'")
            self.pos = m.end()
            e = int(m.group())
            return base * e if e >= 0 else [-g for g in reversed(base)] * -e
        return base

    def atom(self) -> list[int]:
        if self.text.startswith("(", self.pos):
            self.pos += 1
            inner = self.word()
            if not self.text.startswith(")", self.pos):
                self.fail("expected ')'")
            self.pos += 1
            return inner
        m = _GEN_RE.match(self.text, self.pos)
        if not m:
            self.fail("expected generator 'x<k>' or '('")
        self.pos = m.end()
        return [int(m.group(1))]


def parse_presentation(text: str) -> Presentation:
    """Parse presentation text: ``gens=2; rel=x1^3; rel=(x1*x2)^2``."""
    segments = [seg.strip() for seg in text.split(";")]
    segments = [seg for seg in segments if seg]
    if not segments or not segments[0].startswith("gens="):
        raise ParseError("presentation must start with 'gens=<k>'", 0)
    try:
        k = int(segments[0][len("gens=") :])
    except ValueError:
        raise ParseError("expected integer after 'gens='", len("gens="))
    relators = []
    for seg in segments[1:]:
        if not seg.startswith("rel="):
            raise ParseError(f"expected 'rel=' segment, got {seg!r}", text.find(seg))
        body = seg[len("rel=") :]
        word = _WordParser(body, text.find(body)).parse()
        if not word:
            raise ValidationError("relator word reduces to the empty word")
        relators.append(word)
    return Presentation(generator_count=k, relators=tuple(relators), label=text)


def _builtin(spec: GroupSpec) -> Callable[[], Presentation] | None:
    """A call that builds ``builtin_presentation(spec)``, or None; it writes out no relator."""
    m = spec.m
    if spec.family == "cyclic":
        return lambda: Presentation(1, ((1,) * m,), label=f"cyclic:{m}")
    if spec.family == "dihedral":
        return lambda: Presentation(2, ((1,) * m, (2, 2), (1, 2, 1, 2)), label=f"dihedral:{m}")
    if spec.family == "sym" and m == 4:
        return lambda: Presentation(2, ((1, 1), (2, 2, 2), (1, 2) * 4), label="sym:4")
    return None


def builtin_presentation(spec: GroupSpec) -> Presentation | None:
    """Presentation paired with a built-in group spec, or None.

    The pairing with a degree profile is a fixture-level claim, validated
    end to end by the agreement between polynomial evaluation and brute
    force counting.
    """
    build = _builtin(spec)
    return build() if build else None


def hom_count_bruteforce(presentation: Presentation, n: int, q: int) -> int:
    """Count homomorphisms from the presented group into GL_n(q) directly.

    Counts generator tuples (g_1, ..., g_k) of invertible matrices under
    which every relator evaluates to the identity.  Each generator's
    candidates are first cut down by the relators that mention only that
    generator: such a word equals g^e, with e its signed letter count, so
    together they leave the matrices with g^gcd = 1.  Tuples are then
    joined one generator at a time, and each other relator is checked as
    soon as its highest generator is assigned.
    Both q^(n^2) and the product of the candidate counts are capped at MAX_CANDIDATES.
    """
    _check_hom_args(n, q)
    if n == 0:
        return 1  # GL_0 is trivial: exactly the empty representation
    k = presentation.generator_count

    ends_at: list[list[tuple[int, ...]]] = [[] for _ in range(k)]
    exponents = [0] * k  # generator g keeps the matrices with g^exponents[g] = 1
    for word in presentation.relators:
        gens = set(map(abs, word))
        if len(gens) == 1:
            g = gens.pop()
            exponents[g - 1] = math.gcd(exponents[g - 1], word.count(g) - word.count(-g))
        else:
            ends_at[max(gens) - 1].append(word)

    # once the first ``free`` generators are assigned every relator has been
    # checked, so a row extends by any candidates of the generators after them:
    # only the exponents of generators before ``free`` keep their matrices
    free = max((g + 1 for g in range(k) if ends_at[g]), default=0)
    kept: dict[int, list[np.ndarray]] = {e: [] for e in exponents[:free]}
    order = math.prod(q**n - q**i for i in range(n))  # |GL_n(q)|
    # candidates per exponent, a lower bound until its stream ends, so the cap refuses early:
    # any stream keeps the identity, and exponent 0 keeps all of GL_n(q), so it goes last
    # and, unless kept, streams nothing: its one empty block only checks the cap
    counts = dict.fromkeys(exponents, 1) | {0: order}
    for e in sorted(set(exponents), key=lambda e: e == 0):
        seen = 0
        for block in _unit_blocks(n, q, e) if e or 0 in kept else [()]:
            seen += len(block)
            kept.get(e, []).append(block)
            counts[e] = seen if e else order
            if (tuples := math.prod(counts[x] for x in exponents)) > MAX_CANDIDATES:
                raise ResourceLimit(
                    f"at least {tuples} candidate tuples exceed the cap {MAX_CANDIDATES}"
                )
    streamed = {e: np.concatenate(blocks) for e, blocks in kept.items()}
    mats = [streamed.get(e) for e in exponents]
    sizes = [counts[e] for e in exponents]
    # each kept g has g^m = 1, m its exponent or that of GL_n(q), so g^-1 = g^(2m-1) even at m = 1
    inverted = {exponents[-x - 1] for words in ends_at for word in words for x in word if x < 0}
    inverses = {e: _power(streamed[e], 2 * (e or _gl_exponent(n, q)) - 1, q) for e in inverted}
    invs = [inverses.get(e) for e in exponents]

    count = 0
    stack = [(np.zeros((1, 0), dtype=np.int64), 0)]
    while stack:
        rows, g = stack.pop()
        if g == free:
            count += len(rows) * math.prod(sizes[g:])
            continue
        # extend ``step`` rows at a time: an extended block holds at most
        # _JOIN_ENTRIES index entries plus matrix entries per gathered factor
        step = max(1, _JOIN_ENTRIES // (sizes[g] * (g + 1 + n * n)))
        if len(rows) > step:
            stack.append((rows[step:], g))
            rows = rows[:step]
        ext = np.concatenate(
            [np.repeat(rows, sizes[g], axis=0), np.tile(np.arange(sizes[g]), len(rows))[:, None]],
            axis=1,
        )
        for word in ends_at[g]:
            ext = ext[_eval_word(word, ext, mats, invs, q)]
        stack.append((ext, g + 1))
    return count

