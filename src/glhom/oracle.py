"""Independent brute-force ground truth over small finite matrix groups.

Everything here recomputes, by direct enumeration, quantities the rest of the package derives
through polynomial identities: the order of GL_n(q) for prime q and n up to the cap on q^(n^2),
and the number of homomorphisms from a finitely presented group (a ``Presentation`` of relator
tuples) into GL_n(q), sharing no logic with the modules it checks.  A stack of N matrices is an
(n, n, N) array of entry planes, read as mixed-radix digits off one reused low-digit table
(``_digit_blocks``), in the narrowest integer type that holds every intermediate (int8 where
n*q^2 <= 127); a product is n^3 elementwise multiply-adds on planes, so numpy never calls BLAS here,
and the block loop reuses buffers it allocates once.  The one membership test is g^e = 1, e >= 1,
which no singular matrix passes: e divides the exponent m of GL_n(q), where g^m = 1, and is m
where no power relator constrains g.  Powers are taken only by squaring (``_power``), inverses
g^-1 = g^(2e-1) too; a relator u^k is tested through its root u, and each last product is computed
whole only where its first entry is 1.  The join broadcasts a block of rows against every
candidate of the next generator.  Conjugating a homomorphism by an h with h e1 = e1 gives one, and
takes the first generator's column 0, v = g1 e1, to h v: h fixes each c*e1, and some h takes any
other nonzero v to e2.  So |Hom| = sum_c N(g1 e1 = c*e1) + (q^n - q) N(g1 e1 = e2), and that
generator, like each one only counted, is walked in this normal form, q^(n^2 - n + 1) matrices,
not q^(n^2), and the cap on candidate tuples counts its normal-form candidates.  The pure-Python
matrix reference and the naive minimal-tuple box search, which reuses ``_digit_blocks``, live with
the tests.  At n = 0 every count is 1, as GL_0 is trivial.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import RangeError, ResourceLimit, ValidationError
from .profiles import GroupSpec, _Record, prime_base

MAX_CANDIDATES = 10**8  # caps q^(n^2), the candidate tuples and the tests' naive box alike

_BLOCK_ROWS = 1 << 16
_JOIN_ENTRIES = 1 << 20


def _check_args(n: int, q: int) -> None:
    """The oracle's refusals on n and q alone; n = 0 is trivial, as GL_0 has one element."""
    if prime_base(q) != q:
        raise ValidationError(f"q={q} must be prime for brute-force enumeration")
    if n < 0:
        raise RangeError("dimension must be >= 0")
    if n * n >= MAX_CANDIDATES.bit_length():  # 2^(n^2) > MAX_CANDIDATES, told before q^(n^2)
        raise ResourceLimit(
            f"q^(n^2) >= 2^(n^2) at n={n} exceeds the candidate cap {MAX_CANDIDATES}"
        )
    total = q ** (n * n)
    if total > MAX_CANDIDATES:
        raise ResourceLimit(f"q^(n^2) = {total} exceeds the candidate cap {MAX_CANDIDATES}")


def _digit_blocks(base: int, width: int, dtype: type) -> Iterator[np.ndarray]:
    """Indices 0 .. base**width - 1 as ``width`` >= 1 planes of digits in ``base``, low first.

    Each block, of at most _BLOCK_ROWS indices, is one table of the ``low`` lowest digits under a
    run of digit ``low`` and fixed higher digits, in a reused ``dtype`` buffer that consumers
    copy from.
    """
    low = next((k for k in range(width - 1) if base ** (k + 1) > _BLOCK_ROWS), width - 1)
    table = (np.arange(base**low) // base ** np.arange(low)[:, None]) % base
    run = min(base, _BLOCK_ROWS // table.shape[1])
    buf = np.empty((width, run, table.shape[1]), dtype=dtype)
    buf[:low] = table[:, None]
    for high in np.ndindex((base,) * (width - low - 1)):
        buf[low + 1 :] = np.reshape(high[::-1], (-1, 1, 1))
        for start in range(0, base, run):
            stop = min(start + run, base)
            buf[low, : stop - start] = np.arange(start, stop)[:, None]
            yield buf[:, : stop - start].reshape(width, -1)


def _matrix_type(n: int, q: int) -> type:
    """The narrowest integer type of n x n matrix stacks mod q that holds every intermediate.

    Entries are < q and an entry of a product is < n*q^2: int8 where n*q^2 <= 127 (every n = 4, 5
    that MAX_CANDIDATES admits, n = 3 up to q = 5, n = 2 up to q = 7, n = 1 up to q = 11), int16
    for every other n = 2, 3 it admits (q <= 97 and q <= 7), and for n = 1 up to q = 181.
    """
    bound = n * q * q
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max)


def _reduce(x: np.ndarray, q: int, quotient: np.ndarray | None = None) -> np.ndarray:
    """x mod q in place, x // q in ``quotient``: numpy divides by a scalar in SIMD, not in ``%``."""
    quotient = np.floor_divide(x, q, out=quotient)
    quotient *= q
    x -= quotient
    return x


def _dot(row: np.ndarray, col: np.ndarray, out=None, term=None) -> np.ndarray:
    """The sum of row[k] * col[k] over k, elementwise on entry planes, unreduced, into ``out``,
    each later term built in ``term``.
    """
    total = np.multiply(row[0], col[0], out=out)
    for x, y in zip(row[1:], col[1:]):
        total += np.multiply(x, y, out=term)
    return total


def _mul_mod(a: np.ndarray, b: np.ndarray, q: int, out=None, scratch=None) -> np.ndarray:
    """The products a @ b mod q of two (n, n, ...) stacks whose batch axes broadcast together,
    into ``out``: n elementwise multiply-adds per entry, each entry reduced as it is done, its
    terms and quotient in the plane ``scratch``.
    """
    n = len(a)
    if out is None:
        out = np.empty((n, n, *np.broadcast(a[0, 0], b[0, 0]).shape), a.dtype)
    for i in range(n):
        for j in range(n):
            _reduce(_dot(a[i], b[:, j], out[i, j], scratch), q, scratch)
    return out


def _power(mats: np.ndarray, e: int, q: int, out=(None, None), scratch=None) -> np.ndarray:
    """Each matrix of the stack to the power e >= 0, mod q, in O(log e) products, made by turns
    in the two stacks of ``out``, so never in the one that holds a factor.
    """
    n = len(mats)
    identity = np.eye(n, dtype=mats.dtype).reshape(n, n, *[1] * (mats.ndim - 2))
    power = mats if e else np.broadcast_to(identity, mats.shape)
    for bit in bin(e)[3:]:  # the bits of e after its leading 1
        power = _mul_mod(power, power, q, out[0], scratch)
        if bit == "1":
            power = _mul_mod(power, mats, q, out[1], scratch)
        else:
            out = out[::-1]
    return power


def _identity_rows(left: np.ndarray, right: np.ndarray, q: int, scratch=(None, None)) -> np.ndarray:
    """The flat batch indices i with left[..., i] @ right[..., i] = 1 mod q, the two stacks'
    equally many batch axes broadcast together.  Entry (0, 0) is built in the first plane of
    ``scratch``, its terms in the second, and the whole product only where that entry is 1.
    """
    n, shape = len(left), np.broadcast_shapes(left.shape[2:], right.shape[2:])
    rows = np.flatnonzero(_reduce(_dot(left[0], right[:, 0], *scratch), q, scratch[1]) == 1)
    if n == 1:
        return rows
    # each side's own flat batch index of the remaining rows: its length-1 axes read at 0
    li, ri = (
        rows if x.shape[2:] == shape
        else np.ravel_multi_index(np.unravel_index(rows, shape), x.shape[2:], mode="clip")
        for x in (left, right)
    )
    same, left = right is left, left.reshape(n, n, -1).take(li, 2)
    right = left if same else right.reshape(n, n, -1).take(ri, 2)  # g^e with e even: one gather
    product = _mul_mod(left, right, q).reshape(n * n, -1)
    product[:: n + 1] -= 1  # row-major, the identity's 1s are every (n+1)-th entry
    return rows[~product.any(0)]


def _eval_word(word: tuple[int, ...], at: Sequence, mats: list, invs: list, q: int) -> np.ndarray:
    """The flat batch indices at which ``word``, of two or more generators, is the identity.

    Generator ``g + 1`` takes the candidates ``at[g]`` of the (n, n, N) stack ``mats[g]`` (its
    inverses from ``invs[g]``), the index arrays ``at`` broadcasting together into the batch.
    A word u^k with k >= 2 is tested through its root u as u^(k - k//2) u^(k//2), like g^e in
    ``_unit_blocks``; any other word as its letters but the last times its last.
    """
    stacks = {x: (mats if x > 0 else invs)[abs(x) - 1][..., at[abs(x) - 1]] for x in set(word)}
    size = len(word)  # word = u^k only where k divides its length
    k = max(j for j in range(1, size + 1) if size % j == 0 and word == word[: size // j] * j)
    *head, last = word[: size // k]
    cur = stacks[head[0]]
    for letter in head[1:]:
        cur = _mul_mod(cur, stacks[letter], q)
    if k == 1:
        return _identity_rows(cur, stacks[last], q)
    root = _mul_mod(cur, stacks[last], q)
    right = _power(root, k // 2, q)
    return _identity_rows(_mul_mod(right, root, q) if k % 2 else right, right, q)


def _unit_blocks(n: int, q: int, e: int, normal: bool = False) -> Iterator[np.ndarray]:
    """The n x n matrices g with g^e = 1, e >= 1, as (n, n, N) stacks, block by block: all of
    GL_n(q) for e = ``_gl_exponent(n, q)``.  g^e = 1 is tested as g^(e - e//2) g^(e//2).
    In ``normal`` form only the q^(n^2 - n + 1) matrices whose column 0 is c*e1, or e2 for c = 0,
    are walked: digit 0 is c and the others are columns 1 .. n-1.
    """
    work = None  # product stacks, a normal-form stack and two scratch planes, sized once
    for digits in _digit_blocks(q, n * n - (n - 1) * normal, _matrix_type(n, q)):
        size = digits.shape[1]
        work = np.empty(((3 + normal) * n * n + 2, size), digits.dtype) if work is None else work
        products = work[: 3 * n * n, :size].reshape(3, n, n, size)
        mats = (work[3 * n * n : -2, :size] if normal else digits).reshape(n, n, size)
        if normal:  # column 0 is c*e1, c = digit 0, or e2 for c = 0
            mats[:, 0], mats[:, 1:] = 0, digits[1:].reshape(n, n - 1, size)
            mats[0, 0], mats[1:2, 0] = digits[0], digits[0] == 0
        right = _power(mats, e // 2, q, products[:2], work[-1, :size])
        left = _mul_mod(right, mats, q, products[2], work[-1, :size]) if e % 2 else right
        yield mats[..., _identity_rows(left, right, q, work[-2:, :size])]


def _orbit_weights(mats: np.ndarray, q: int) -> np.ndarray:
    """1 where column 0 is c*e1 (c != 0), q^n - q where it is e2, for all of its orbit, else 0."""
    n, lead = len(mats), mats[0, 0]
    off = (mats[1:, 0] - np.eye(n - 1, 1, dtype=lead.dtype) * (lead == 0)).any(0)  # e2 below 0
    return np.where(off, 0, np.where(lead, 1, q**n - q))


def _gl_exponent(n: int, q: int) -> int:
    """The least m with g^m = 1 on GL_n(q), q prime: the order q^ceil(log_q n) of an n x n
    Jordan block times lcm(q^i - 1 : i <= n), which the orders of semisimple elements divide.
    """
    unipotent = next(q**k for k in range(n + 1) if q**k >= n)
    return unipotent * math.lcm(*(q**i - 1 for i in range(1, n + 1)))


def gl_count(n: int, q: int) -> int:
    """|GL_n(q)| by direct enumeration, the roots of x^m in normal form weighted; GL_0 is 1."""
    _check_args(n, q)
    blocks = _unit_blocks(n, q, _gl_exponent(n, q), True)  # lazy: never started at n = 0
    return sum(int(_orbit_weights(block, q).sum()) for block in blocks) if n else 1


def _check_tuples(counts: Iterator[int]) -> None:
    if (tuples := math.prod(counts)) > MAX_CANDIDATES:  # counts: a lower bound per generator
        raise ResourceLimit(f"at least {tuples} candidate tuples exceed the cap {MAX_CANDIDATES}")


def _integers(values: Sequence, what: str) -> tuple[int, ...]:
    if bad := [x for x in values if not hasattr(x, "__index__")]:
        raise ValidationError(f"{what} {bad[0]!r} is not an integer")
    return tuple(map(operator.index, values))


class Presentation(_Record):
    """Finitely presented group: generator count plus relator words; checked when built.

    A word is a tuple of signed 1-based generator indices, -g the inverse of
    generator g: (x1·x2)^4 is ``(1, 2) * 4`` and x1·x2·x1^-1·x2^-1 is ``(1, 2, -1, -2)``.
    """

    __slots__ = ("generator_count", "relators", "label")

    def __init__(self, generator_count: int, relators: Sequence[Sequence[int]], label: str = ""):
        (k,) = _integers((generator_count,), "generator count")
        words = tuple(_integers(word, "relator letter") for word in relators)
        words = relators if words == relators else words  # a tuple of int tuples is kept as given
        self._set(generator_count=k, relators=words, label=label)
        if k < 1:
            raise ValidationError("presentation needs at least one generator")
        if not words:
            raise ValidationError("presentation needs at least one relator")
        for word in words:
            if not word:
                raise ValidationError("empty relator word")
            if bad := [x for x in word if not 0 < abs(x) <= k]:
                raise ValidationError(f"relator letter {bad[0]} out of range")


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
    together with g^m = 1, m the exponent of GL_n(q), they leave the
    matrices with g^gcd = 1; a generator no such word constrains keeps
    the roots of x^m, all of GL_n(q).  Tuples are then joined one
    generator at a time, and each other relator is checked as soon as its
    highest generator is assigned; the first generator takes only
    normal-form candidates, each weighted by its orbit.  Both q^(n^2) and
    the product of the generators' candidate counts, of normal-form
    candidates where those are taken, are capped at MAX_CANDIDATES.
    """
    _check_args(n, q)
    if n == 0:
        return 1  # GL_0 is trivial: exactly the empty representation
    k = presentation.generator_count
    # the generators that multi-generator relators read are renumbered 1 .. free, in order:
    # once they are assigned every relator has been checked, so a row extends by any
    # candidates of the generators after them, and only the first ``free`` keep their matrices
    multi = [word for word in presentation.relators if len(set(map(abs, word))) > 1]
    read = {abs(x) for word in multi for x in word}
    new = {g: i for i, g in enumerate(sorted(range(1, k + 1), key=lambda g: g not in read), 1)}
    free = len(read)
    ends_at: list[list[tuple[int, ...]]] = [[] for _ in range(k)]
    m = _gl_exponent(n, q)  # every g in GL_n(q) has g^m = 1, and no singular matrix does
    exponents = [m] * k  # generator g keeps the matrices with g^exponents[g] = 1
    for word in presentation.relators:
        word = tuple(new[x] if x > 0 else -new[-x] for x in word)
        gens = set(map(abs, word))
        if len(gens) == 1:
            g = gens.pop()
            exponents[g - 1] = math.gcd(exponents[g - 1], word.count(g) - word.count(-g))
        else:
            ends_at[max(gens) - 1].append(word)

    # generator g reads the roots of x^e, e its exponent, as key (e, False), but the first join
    # generator only those in normal form, as (e, True): x^e streams whole only for a later one
    keys = [(e, g == 0 < free) for g, e in enumerate(exponents)]
    whole = set(exponents[1:free])
    kept: dict[tuple[int, bool], list[np.ndarray]] = {key: [] for key in keys[:free]}
    order = math.prod(q**n - q**i for i in range(n))  # |GL_n(q)|
    # candidates per key, a lower bound until its stream ends, so the cap refuses early: any
    # stream keeps the identity, and x^m all of GL_n(q): it streams last, and only for the join
    counts = {(e, form): 1 for e in exponents for form in (False, True)} | {(m, False): order}
    totals = {m: order}  # the roots of x^e, a stream's weights summed
    _check_tuples(counts[key] for key in keys)
    for e in sorted(set(exponents[:free]) | set(exponents[free:]) - {m}):
        seen = picked = totals[e] = 0
        for block in _unit_blocks(n, q, e, e not in whole):
            weight = _orbit_weights(block, q)
            seen, picked = seen + block.shape[-1], picked + np.count_nonzero(weight)
            totals[e] += int(weight.sum())
            counts[e, False], counts[e, True] = max(counts[e, False], seen), picked
            kept.get((e, False), []).append(block)
            if (e, True) in kept:
                kept[e, True].append(block[..., weight > 0])
            _check_tuples(counts[key] for key in keys)
    streamed = {key: np.concatenate(blocks, axis=-1) for key, blocks in kept.items()}
    mats = [streamed.get(key) for key in keys]
    sizes = [stack.shape[-1] for stack in mats[:free]] + [totals[e] for e in exponents[free:]]
    # each kept g has g^e = 1, e its exponent, so g^-1 = g^(2e-1) even at e = 1
    inverted = {keys[-x - 1] for words in ends_at for word in words for x in word if x < 0}
    inverses = {key: _power(streamed[key], 2 * key[0] - 1, q) for key in inverted}
    invs = [inverses.get(key) for key in keys]
    weights = _orbit_weights(mats[0], q) if free else None  # of the first join generator's

    count = 0
    stack = [(np.zeros((1, 0), dtype=np.int64), 0)]
    while stack:
        rows, g = stack.pop()
        if g == free:
            # a row's weight is that of its first generator's candidate
            count += int(weights[rows[:, 0]].sum() if g else len(rows)) * math.prod(sizes[g:])
            continue
        # extend ``step`` rows at a time: their grid of (row, candidate) pairs holds at
        # most _JOIN_ENTRIES index entries plus matrix entries per product
        words, size = ends_at[g], sizes[g]
        step = max(1, _JOIN_ENTRIES // (size * (g + 1 + n * n)))
        if len(rows) > step:
            stack.append((rows[step:], g))
            rows = rows[:step]
        # the first word reads the whole grid by broadcasting, its factors (n, n, rows, 1)
        # against (n, n, 1, candidates); only the pairs it keeps become rows
        grid = [*rows.T[:, :, None], np.arange(size)[None]]
        hits = _eval_word(words[0], grid, mats, invs, q) if words else np.arange(len(rows) * size)
        ext = np.column_stack([rows[hits // size], hits % size])
        for word in words[1:]:
            ext = ext[_eval_word(word, ext.T, mats, invs, q)]
        stack.append((ext, g + 1))
    return count

