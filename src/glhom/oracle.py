"""Independent brute-force ground truth over small finite matrix groups.

Everything here recomputes, by direct enumeration, quantities the rest of
the package derives through polynomial identities: the order of GL_n(q)
for prime q and n <= 3, the number of homomorphisms from a finitely
presented group into GL_n(q), and minimal tuples by unpruned box
enumeration.  The implementations deliberately share no logic with the
modules they check.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import InvariantViolation, ParseError, RangeError, ResourceLimit, ValidationError
from .minimize import MinimalReport
from .profiles import DegreeProfile, GroupSpec, prime_base

MAX_CANDIDATES = 10**8  # caps q^(n^2), the candidate tuples and the naive box alike

_BLOCK_ROWS = 1 << 16
_JOIN_ENTRIES = 1 << 20


def _require_prime(q: int) -> None:
    if prime_base(q) != q:
        raise ValidationError(f"q={q} must be prime for brute-force enumeration")


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


def _check_enum_args(n: int, q: int) -> int:
    if not 1 <= n <= 3:
        raise RangeError("matrix enumeration supports 1 <= n <= 3")
    _require_prime(q)
    total = q ** (n * n)
    if total > MAX_CANDIDATES:
        raise ResourceLimit(
            f"q^(n^2) = {total} exceeds the candidate cap {MAX_CANDIDATES}"
        )
    return total


def gl_enumerate(n: int, q: int) -> Iterator[PrimeFieldMatrix]:
    """Every invertible n x n matrix over F_q exactly once, as a lazy stream.

    Argument problems, q^(n^2) past MAX_CANDIDATES too, are reported
    immediately; the companion count lives in ``gl_count``.
    """
    _check_enum_args(n, q)

    def stream() -> Iterator[PrimeFieldMatrix]:
        for flat in itertools.product(range(q), repeat=n * n):
            m = PrimeFieldMatrix(
                n=n, q=q, entries=tuple(flat[i * n : (i + 1) * n] for i in range(n))
            )
            if m.det() != 0:
                yield m

    return stream()


def _matrix_blocks(n: int, q: int, total: int) -> Iterator[np.ndarray]:
    """All n x n matrices over F_q as int64 arrays, in index order, in blocks."""
    powers = q ** np.arange(n * n, dtype=np.int64)
    for start in range(0, total, _BLOCK_ROWS):
        idx = np.arange(start, min(start + _BLOCK_ROWS, total), dtype=np.int64)
        digits = (idx[:, None] // powers) % q
        yield digits.reshape(-1, n, n)


def _det_mod(mats: np.ndarray, q: int) -> np.ndarray:
    n = mats.shape[-1]
    if n == 1:
        return mats[:, 0, 0] % q
    if n == 2:
        return (mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]) % q
    a, b, c = mats[:, 0, 0], mats[:, 0, 1], mats[:, 0, 2]
    d, e, f = mats[:, 1, 0], mats[:, 1, 1], mats[:, 1, 2]
    g, h, i = mats[:, 2, 0], mats[:, 2, 1], mats[:, 2, 2]
    return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % q


def _batch_inverse(mats: np.ndarray, q: int) -> np.ndarray:
    """Inverses of a batch of invertible matrices via the adjugate (n <= 3)."""
    n = mats.shape[-1]
    dets, where = np.unique(_det_mod(mats, q), return_inverse=True)
    dinv = np.array([pow(int(d), -1, q) for d in dets], dtype=np.int64)[where][:, None, None]
    if n == 1:
        return dinv
    if n == 2:
        adj = np.empty_like(mats)
        adj[:, 0, 0] = mats[:, 1, 1]
        adj[:, 0, 1] = -mats[:, 0, 1]
        adj[:, 1, 0] = -mats[:, 1, 0]
        adj[:, 1, 1] = mats[:, 0, 0]
    else:
        # column j of the adjugate is the cross product of rows j+1 and j+2
        r0, r1, r2 = mats[:, 0], mats[:, 1], mats[:, 2]
        adj = np.stack([np.cross(r1, r2), np.cross(r2, r0), np.cross(r0, r1)], axis=-1)
    return adj * dinv % q


def _eval_word(
    word: tuple[int, ...],
    rows: np.ndarray,
    mats: list[np.ndarray],
    invs: list[np.ndarray | None],
    q: int,
) -> np.ndarray:
    """Whether ``word`` is the identity on each row of generator indices.

    Row ``i`` assigns candidate ``rows[i, g]`` of ``mats[g]`` (its inverse
    from ``invs[g]``) to generator ``g + 1``; the result is a bool per row.
    """
    factors = {
        letter: (mats if letter > 0 else invs)[abs(letter) - 1][rows[:, abs(letter) - 1]]
        for letter in set(word)
    }
    cur = factors[word[0]]
    for letter in word[1:]:
        cur = np.matmul(cur, factors[letter])
        cur %= q
    n = cur.shape[-1]
    return (cur == np.eye(n, dtype=np.int64)).all(axis=(1, 2))


def _unit_blocks(
    n: int,
    q: int,
    words: list[tuple[int, ...]],
    with_inverses: bool,
) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
    """The invertible matrices of each ``_matrix_blocks`` block, with inverses.

    ``words`` are one-generator relators written in the letters +-1; only
    matrices on which every one of them is the identity are kept.  The
    inverses are ``None`` unless ``with_inverses`` is set.
    """
    total = _check_enum_args(n, q)
    for mats in _matrix_blocks(n, q, total):
        mats = mats[_det_mod(mats, q) != 0]
        invs = _batch_inverse(mats, q) if with_inverses else None
        for word in words:
            keep = _eval_word(word, np.arange(len(mats))[:, None], [mats], [invs], q)
            mats = mats[keep]
            invs = invs[keep] if with_inverses else None
        yield mats, invs


def gl_count(n: int, q: int) -> int:
    """|GL_n(q)| by direct enumeration (vectorised); the stream's companion count."""
    return sum(len(mats) for mats, _ in _unit_blocks(n, q, [], False))


def count_units_of_order_dividing(n: int, q: int, m: int) -> int:
    """One-pass order filter over the matrix stream (pure Python, no numpy).

    Slow reference path kept separate from the vectorised enumeration so
    the two can be checked against each other.
    """
    count = 0
    for g in gl_enumerate(n, q):
        if g.power(m).is_identity:
            count += 1
    return count


@dataclass(frozen=True)
class Presentation:
    """Finitely presented group: generator count plus relator words.

    A word is a sequence of signed 1-based generator indices; negative
    means the inverse of that generator.
    """

    generator_count: int
    relators: tuple[tuple[int, ...], ...]
    label: str = ""

    def __post_init__(self):
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
            if e >= 0:
                return base * e
            return [-g for g in reversed(base)] * (-e)
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


def builtin_presentation(spec: GroupSpec) -> Presentation | None:
    """Presentation paired with a built-in group spec, or None.

    The pairing with a degree profile is a fixture-level claim, validated
    end to end by the agreement between polynomial evaluation and brute
    force counting.
    """
    if spec.family == "cyclic":
        return Presentation(1, ((1,) * spec.m,), label=f"cyclic:{spec.m}")
    if spec.family == "dihedral":
        return Presentation(
            2, ((1,) * spec.m, (2, 2), (1, 2, 1, 2)), label=f"dihedral:{spec.m}"
        )
    if spec.family == "sym" and spec.m == 4:
        return Presentation(2, ((1, 1), (2, 2, 2), (1, 2) * 4), label="sym:4")
    return None


def hom_count_bruteforce(presentation: Presentation, n: int, q: int) -> int:
    """Count homomorphisms from the presented group into GL_n(q) directly.

    Counts generator tuples (g_1, ..., g_k) of invertible matrices under
    which every relator evaluates to the identity.  Each generator's
    candidates are first cut down by the relators that mention only that
    generator (a power relator g^m leaves the matrices of order dividing
    m).  Tuples are then joined one generator at a time, and each other
    relator is checked as soon as its highest generator is assigned.
    Both q^(n^2) and the product of the candidate counts are capped at MAX_CANDIDATES.
    """
    _require_prime(q)
    if n < 0:
        raise RangeError("dimension must be >= 0")
    if n == 0:
        return 1  # GL_0 is trivial: exactly the empty representation
    k = presentation.generator_count
    with_inverses = any(letter < 0 for word in presentation.relators for letter in word)

    ends_at: list[list[tuple[int, ...]]] = [[] for _ in range(k)]
    own: list[list[tuple[int, ...]]] = [[] for _ in range(k)]
    for word in presentation.relators:
        gens = {abs(letter) for letter in word}
        if len(gens) == 1:
            own[gens.pop() - 1].append(tuple(1 if g > 0 else -1 for g in word))
        else:
            ends_at[max(gens) - 1].append(word)

    keys = [tuple(sorted(words)) for words in own]
    streamed: dict[tuple, tuple[np.ndarray, np.ndarray | None]] = {}
    for key in dict.fromkeys(keys):  # one stream per distinct list of one-generator relators
        blocks = list(_unit_blocks(n, q, list(key), with_inverses))
        streamed[key] = (
            np.concatenate([m for m, _ in blocks]),
            np.concatenate([i for _, i in blocks]) if with_inverses else None,
        )
    mats = [streamed[key][0] for key in keys]
    invs = [streamed[key][1] for key in keys]

    sizes = [len(m) for m in mats]
    total_tuples = math.prod(sizes)
    if total_tuples > MAX_CANDIDATES:
        raise ResourceLimit(
            f"{total_tuples} candidate tuples exceed the cap {MAX_CANDIDATES}"
        )
    if total_tuples == 0:
        return 0

    # once the first ``free`` generators are assigned every relator has been
    # checked, so a row extends by any candidates of the generators after them
    free = max((g + 1 for g in range(k) if ends_at[g]), default=0)
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


def minimal_tuples_naive(profile: DegreeProfile, r: int) -> MinimalReport:
    """Minimal tuples for r by full enumeration of the box [-r, r]^s.

    Same fields as ``minimize.minimal_tuples``, but every one is read off
    the full sorted list of optima (``tuples`` serves that list), with no
    pruning and no degree grouping; the box holds them all because
    (r, 0, ..., 0) already has square-sum r^2.  The cross-check of the DP,
    capped at MAX_CANDIDATES box points.
    """
    if not 0 <= r < profile.order:
        raise RangeError(f"residue r={r} outside [0, {profile.order})")
    s = profile.s
    side = 2 * r + 1
    total = side**s
    if total > MAX_CANDIDATES:
        raise ResourceLimit(
            f"box size {total} exceeds the candidate cap {MAX_CANDIDATES}"
        )
    degrees = np.array(profile.degrees, dtype=np.int64)
    powers = side ** np.arange(s, dtype=np.int64)
    best: int | None = None
    rows: list[tuple[int, ...]] = []
    for start in range(0, total, _BLOCK_ROWS):
        idx = np.arange(start, min(start + _BLOCK_ROWS, total), dtype=np.int64)
        digits = (idx[:, None] // powers) % side - r
        hit = digits[(digits @ degrees) == r]
        if not len(hit):
            continue
        sq = (hit * hit).sum(axis=1)
        block_best = int(sq.min())
        if best is None or block_best < best:
            best = block_best
            rows = [tuple(map(int, row)) for row in hit[sq == block_best]]
        elif block_best == best:
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
