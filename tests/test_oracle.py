"""Brute-force oracle: matrix enumeration, presentations, naive box search."""

from __future__ import annotations

import itertools
import math
import re
import time

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from glhom import (
    Presentation,
    RangeError,
    ResourceLimit,
    ValidationError,
    builtin_presentation,
    gl_count,
    hom_count_bruteforce,
    hom_count_poly,
    leading_term,
    minimal_tuples,
    parse_group_spec,
)
import glhom.oracle as oracle
from glhom.oracle import (
    _BLOCK_ROWS,
    MAX_CANDIDATES,
    _digit_blocks,
    _eval_word,
    _gl_exponent,
    _identity_rows,
    _matrix_type,
    _power,
    _unit_blocks,
)
from conftest import make_profile, run_guarded
from naive_box import minimal_tuples_naive, top_term_naive
from prime_field import PrimeFieldMatrix, count_units_of_order_dividing, gl_enumerate


def test_gl_count_examples():
    assert gl_count(0, 5) == 1  # GL_0 is trivial, as in hom_count_bruteforce
    assert gl_count(1, 5) == 4
    assert gl_count(2, 3) == 48
    assert gl_count(3, 2) == 168


def test_gl_enumerate_stream_matches_count():
    for n, q in ((1, 5), (2, 2), (2, 3), (3, 2)):
        mats = list(gl_enumerate(n, q))
        assert len(mats) == gl_count(n, q)
        assert len(set(mats)) == len(mats)  # each matrix exactly once
        for m in mats[:10]:
            assert m.det() != 0


@pytest.mark.parametrize(
    "q, n", [*itertools.product((2, 3, 5), (1, 2, 3)), (2, 4), (3, 4), (2, 5)]
)
def test_gl_count_matches_order_polynomial(n, q):
    assert gl_count(n, q) == math.prod(q**n - q**i for i in range(n))


def test_gl_enumerate_guards(monkeypatch):
    # n is bounded by the cap alone: 2^(5^2) fits 10^8, 2^(6^2) does not
    assert gl_count(4, 2) == 20160
    with pytest.raises(ResourceLimit, match=r"^q\^\(n\^2\) >= 2\^\(n\^2\) at n=6 exceeds"):
        gl_count(6, 2)
    for q in (2, 3):
        assert len(list(gl_enumerate(0, q))) == gl_count(0, q) == 1
        assert [m.det() for m in gl_enumerate(0, q)] == [1]
    with pytest.raises(ValidationError):
        gl_count(2, 4)
    with pytest.raises(ValidationError):  # q is checked first, then the range of n
        gl_count(6, 4)
    with pytest.raises(RangeError, match="dimension must be >= 0"):
        gl_count(-1, 2)
    monkeypatch.setattr(oracle, "MAX_CANDIDATES", 10**5)
    with pytest.raises(ResourceLimit):
        gl_count(3, 5)


@pytest.mark.parametrize(
    "base, width",
    [(2, 17), (5, 9), (7, 9), (13, 4), (256, 3), (257, 2), (65536, 1), (65537, 1), (160001, 1)],
)
def test_digit_walk_lists_every_index_in_order(base, width):
    # the blocks' columns concatenate to
    # (arange(base**width) // base**arange(width)[:, None]) % base, checked block by block:
    # digits in [0, base) that spell each index in turn are its digits; bases below 128 also in
    # int8, the type of the oracle's smallest fields
    total = base**width
    powers = base ** np.arange(width, dtype=np.int64)
    for dtype in (np.int32, np.int8) if base < 128 else (np.int32,):
        start = blocks = 0
        for block in _digit_blocks(base, width, dtype):
            assert block.dtype == dtype
            size = block.shape[1]
            assert block.shape[0] == width and 0 < size <= _BLOCK_ROWS
            assert 0 <= block.min() and block.max() < base
            assert (powers @ block == np.arange(start, start + size)).all()
            start, blocks = start + size, blocks + 1
        assert start == total
        # about _BLOCK_ROWS rows per block, also where one digit is wider than a block
        assert blocks <= -(-4 * total // _BLOCK_ROWS)


def test_prime_field_matrix_ops():
    m = PrimeFieldMatrix.from_rows([[1, 2], [3, 4]], 5)
    assert m.det() == (4 - 6) % 5
    inv = m.inverse()
    assert (m * inv).is_identity
    assert m.power(0).is_identity
    assert m.power(-1) == inv
    singular = PrimeFieldMatrix.from_rows([[1, 2], [2, 4]], 5)
    with pytest.raises(ValidationError):
        singular.inverse()
    m3 = PrimeFieldMatrix.from_rows([[1, 2, 0], [0, 1, 1], [1, 0, 1]], 7)
    assert (m3 * m3.inverse()).is_identity


def test_hom_count_cyclic2_anchor(c2):
    pres = builtin_presentation(parse_group_spec("cyclic:2"))
    assert hom_count_bruteforce(pres, 2, 3) == 14


def test_hom_count_trivial_group():
    pres = Presentation(1, ((1,),), label="trivial")
    assert hom_count_bruteforce(pres, 2, 3) == 1


def test_hom_count_s3_dimension_one():
    pres = Presentation(2, ((1,) * 3, (2,) * 2, (1, 2) * 2))
    assert hom_count_bruteforce(pres, 1, 5) == 2


def test_hom_count_dimension_zero():
    pres = builtin_presentation(parse_group_spec("cyclic:2"))
    assert hom_count_bruteforce(pres, 0, 5) == 1


def test_order_filter_agreement():
    # one-pass Python order filter vs the vectorised candidate enumeration, which
    # tests no determinant and splits an odd e as g^((e+1)/2) g^((e-1)/2)
    assert count_units_of_order_dividing(2, 3, 2) == [14]
    for n, q, exponents in (
        (0, 5, (1, 2, 3)),  # GL_0 is the identity alone, a root of every x^e
        (1, 5, (2,)),
        (2, 3, (2, 3)),
        (2, 5, (3,)),
        (2, 7, range(1, 7)),
        (3, 3, range(1, 7)),
        # g^(e//2) squares a square at e//2 = 4, 8 and 12, so its products take turns in two buffers
        (2, 5, (8, 9, 16, 17, 24)),
    ):
        for e, expected in zip(exponents, count_units_of_order_dividing(n, q, *exponents)):
            pres = Presentation(1, ((1,) * e,), label=f"x^{e}")
            assert hom_count_bruteforce(pres, n, q) == expected


@pytest.mark.parametrize("n, q", [(n, q) for n in (1, 2, 3) for q in (2, 3, 5)])
def test_normal_form_weights_count_every_root(n, q, monkeypatch):
    # conjugation by an h with h e1 = e1 keeps g^e = 1 and takes g's column 0 to h times it:
    # c*e1 is fixed and the other q^n - q columns form e2's orbit, so the normal-form roots of
    # x^e, those weighted q^n - q, are all of them; the pure-Python reference walks q^(n^2)
    # matrices, too slowly past GL_3(3), so GL_3(5) is checked against the full stream alone;
    # the roots of x^m, m the exponent of GL_n(q), are every unit, as those of x^0 there
    reference = (0, 1, 2, 3, 4, 6)
    exponents = (_gl_exponent(n, q), *reference[1:])
    expected = count_units_of_order_dividing(n, q, *reference) if q ** (n * n) < 10**5 else None
    walked = []

    def spied(*args):
        for block in _digit_blocks(*args):
            walked.append(block.shape[1])
            yield block

    monkeypatch.setattr(oracle, "_digit_blocks", spied)
    for i, e in enumerate(exponents):
        walked.clear()
        normal = list(_unit_blocks(n, q, e, True))
        assert sum(walked) == q ** (n * n - n + 1)
        weights = [oracle._orbit_weights(block, q) for block in normal]
        assert all(w.all() for w in weights)  # each root walked is in normal form
        weighted = sum(int(w.sum()) for w in weights)
        assert weighted == sum(block.shape[-1] for block in _unit_blocks(n, q, e))
        if expected:
            assert weighted == expected[i], e
    # each nonzero column 0 starts |GL_n(q)| / (q^n - 1) units, and q - 1 columns c*e1 and,
    # past n = 1, e2 are in normal form
    units = sum(block.shape[-1] for block in _unit_blocks(n, q, exponents[0], True))
    assert units == (q - 1 + (n > 1)) * gl_count(n, q) // (q**n - 1)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3),
    q=st.sampled_from([2, 3, 5, 7, 11, 13]),
    size=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_identity_rows_match_the_full_product(n, q, size, seed):
    rng = np.random.default_rng(seed)
    left, right = rng.integers(0, q, (2, size, n, n))
    # plant rows whose product is the identity, or the identity but for one entry
    for i in rng.choice(size, size=rng.integers(size + 1), replace=False):
        g = PrimeFieldMatrix.from_rows(left[i], q)
        if g.det():
            bump = np.eye(n, dtype=np.int64)
            bump[rng.integers(n), rng.integers(n)] += rng.integers(2) * rng.integers(1, q)
            right[i] = np.array(g.inverse().entries) @ bump % q
    identity = np.eye(n, dtype=np.int64)
    expected = np.flatnonzero(((left @ right) % q == identity).all(axis=(1, 2)))
    planes = left.transpose(1, 2, 0), right.transpose(1, 2, 0)  # (n, n, size) entry planes
    assert np.array_equal(_identity_rows(*planes, q), expected)
    # every (i, j) pair, as the join's broadcast grid reads it: left[i] against right[j]
    expected = np.flatnonzero(((left[:, None] @ right[None]) % q == identity).all(axis=(2, 3)))
    grid = _identity_rows(planes[0][:, :, :, None], planes[1][:, :, None], q)
    assert np.array_equal(grid, expected)


@pytest.mark.parametrize(
    "n, q, m", [(1, 2, 1), (1, 7, 6), (2, 2, 6), (2, 3, 24), (2, 5, 120), (3, 2, 84), (3, 3, 312)]
)
def test_inverses_by_the_exponent_of_gl(n, q, m):
    # g^m = 1 on all of GL_n(q), so g^-1 = g^(2m-1); no m / p with p | m prime does
    assert _gl_exponent(n, q) == m
    units = np.concatenate(list(_unit_blocks(n, q, m)), axis=-1)
    assert units.shape[-1] == math.prod(q**n - q**i for i in range(n))  # the roots of x^m
    identity = np.eye(n, dtype=np.int64)[:, :, None]
    assert (_power(units, m, q) == identity).all()
    for p in sympy.primefactors(m):
        assert not (_power(units, m // p, q) == identity).all()
    # far below the order: 3720 for GL_3(5), of order 1488000
    assert _gl_exponent(3, 5) == 3720


def test_matrices_take_the_narrowest_type_that_holds_every_intermediate():
    # a product entry is below n*q^2: int8 up to 127, so up to q = 5, 7 and 11 at n = 3, 2 and 1
    assert 3 * 5**2 <= 127 < 3 * 7**2 and 2 * 7**2 <= 127 < 2 * 11**2 and 11**2 <= 127 < 13**2
    assert _matrix_type(3, 5) == _matrix_type(2, 7) == _matrix_type(1, 11) == np.int8
    assert _matrix_type(2, 2) == np.int8
    assert _matrix_type(3, 7) == _matrix_type(2, 11) == _matrix_type(1, 13) == np.int16
    # the largest q the cap admits at n = 2 and n = 3, read off without enumerating: a product
    # entry below 2*97^2 and 3*7^2 fits int16
    assert 97**4 <= MAX_CANDIDATES < 101**4 and 7**9 <= MAX_CANDIDATES < 11**9
    assert 2 * 97**2 < 2**15 and 3 * 7**2 < 2**15
    assert _matrix_type(2, 97) == np.int16
    # at n = 1 a product of two entries passes 2^15 - 1 from the prime 191 on, 2^31 - 1 from 46349
    assert 181**2 < 2**15 - 1 < 191**2 and 46337**2 < 2**31 - 1 < 46349**2
    assert _matrix_type(1, 181) == np.int16
    assert _matrix_type(1, 191) == _matrix_type(1, 46337) == np.int32
    assert _matrix_type(1, 46349) == _matrix_type(1, 65537) == np.int64
    assert next(_unit_blocks(3, 5, 4)).dtype == np.int8
    assert next(_unit_blocks(3, 7, 2)).dtype == np.int16
    assert next(_unit_blocks(1, 191, 2)).dtype == np.int32
    assert next(_unit_blocks(1, 65537, 4)).dtype == np.int64


@pytest.mark.parametrize(
    "spec, n, q",
    [
        ("cyclic:4", 1, 46349),  # int64: q^2 passes 2^31
        ("dihedral:4", 1, 46349),  # int64
        ("cyclic:65536", 1, 65537),  # int64
        ("dihedral:4", 1, 65537),  # int64
        ("cyclic:4", 2, 5),  # int8: 2*5^2 = 50
        ("dihedral:3", 2, 7),  # int8: 2*7^2 = 98
        ("cyclic:4", 2, 13),  # int16: 2*13^2 = 338
        ("cyclic:2", 3, 3),  # int8: 3*3^2 = 27
        ("cyclic:4", 3, 5),  # int8: 3*5^2 = 75
        ("cyclic:2", 3, 7),  # int16: 3*7^2 = 147
    ],
)
def test_bruteforce_matches_polynomial_in_either_matrix_type(spec, n, q):
    # the order-filter and nested-loop tests check int8, and int16 at (n, q) = (1, 13), against
    # the pure-Python reference too
    count = hom_count_bruteforce(builtin_presentation(parse_group_spec(spec)), n, q)
    assert count == hom_count_poly(make_profile(spec), n).evaluate(q)


def test_int8_stacks_keep_every_unit_as_a_root_of_the_group_exponent():
    # GL_3(5) is streamed in int8 (3*5^2 = 75) and kept by g^m = 1, m = 5 * 744: each product
    # entry is reduced as it is built, so no power passes the stacks' type
    assert _matrix_type(3, 5) == _matrix_type(3, 3) == np.int8
    assert _gl_exponent(3, 5) == 3720
    assert gl_count(3, 5) == 1_488_000
    assert gl_count(3, 3) == 11_232
    # x2 has no power relator, so it streams the roots of x^3720, all of GL_3(5), beside x1,
    # which the power filter cuts to the identity; then x2^2 = 1, as in cyclic:2
    assert hom_count_bruteforce(Presentation(2, ((1,), (1, 2) * 2)), 3, 5) == 1552


def test_inverse_letters_at_n1_in_int64():
    # x2 has no power relator, so its inverse is x2^(2(q-1)-1), squared in int64
    pres = Presentation(2, ((1,) * 4, (1, 2, -1, -2)))
    q = 46349
    assert hom_count_bruteforce(pres, 1, q) == 4 * (q - 1)


def test_long_relator_root_is_found_in_near_linear_time():
    # (x1 x2)^50000: only the divisors of the word's length can be its power, so the root
    # search builds a few 10^5-letter tuples, not one per candidate power
    pres = Presentation(2, ((1, 2) * 50000,))
    start = time.perf_counter()
    assert hom_count_bruteforce(pres, 1, 3) == 4
    assert time.perf_counter() - start < 5


def test_negative_exponent_relators():
    for_pos = Presentation(1, ((1,) * 4,))
    for_neg = Presentation(1, ((-1,) * 4,))
    assert hom_count_bruteforce(for_pos, 2, 5) == hom_count_bruteforce(for_neg, 2, 5)
    conj = Presentation(2, ((1,) * 3, (2,) * 2, (2, 1, -2, 1)))
    # x y x^-1 = y^-1 with x^2... this presents S3 with swapped roles
    plain = Presentation(2, ((1,) * 3, (2,) * 2, (1, 2) * 2))
    assert hom_count_bruteforce(conj, 2, 7) == hom_count_bruteforce(plain, 2, 7)


def test_hom_count_resource_limit(monkeypatch):
    pres = builtin_presentation(parse_group_spec("cyclic:2"))
    monkeypatch.setattr(oracle, "MAX_CANDIDATES", 10**4)
    with pytest.raises(ResourceLimit):
        hom_count_bruteforce(pres, 3, 5)
    # each generator's q^(n^2) fits, but the candidate tuples do not: x1's 235 roots of x^5 in
    # normal form (of 1325 in all) times x2's 134 involutions
    pres = builtin_presentation(parse_group_spec("dihedral:5"))
    monkeypatch.setattr(oracle, "MAX_CANDIDATES", 20000)
    with pytest.raises(ResourceLimit, match="31490 candidate tuples exceed the cap 20000"):
        hom_count_bruteforce(pres, 2, 11)


def test_hom_count_rejects_composite_field():
    pres = builtin_presentation(parse_group_spec("cyclic:2"))
    with pytest.raises(ValidationError):
        hom_count_bruteforce(pres, 2, 9)


def test_presentation_validation():
    with pytest.raises(ValidationError):
        Presentation(1, ((2,),))  # index out of range
    with pytest.raises(ValidationError):
        Presentation(0, ((1,),))
    with pytest.raises(ValidationError):
        Presentation(1, ())
    with pytest.raises(ValidationError, match="empty relator word"):
        Presentation(1, ((),))


def test_presentation_reads_integers_and_stores_tuples():
    # a count or letter that is no integer is refused when built, not deep in the count
    with pytest.raises(ValidationError, match="generator count 1.0 is not an integer"):
        Presentation(1.0, ((1,),))
    with pytest.raises(ValidationError, match="relator letter '1' is not an integer"):
        Presentation(1, ("11",))
    pres = Presentation(2, [[1, 1]])
    assert pres.relators == ((1, 1),)
    assert hash(pres) == hash(Presentation(2, ((1, 1),)))


def test_builtin_presentations():
    assert builtin_presentation(parse_group_spec("cyclic:6")).relators == ((1,) * 6,)
    dih = builtin_presentation(parse_group_spec("dihedral:4"))
    assert dih.relators == ((1, 1, 1, 1), (2, 2), (1, 2, 1, 2))
    s4 = builtin_presentation(parse_group_spec("sym:4"))
    assert s4.relators == ((1, 1), (2, 2, 2), (1, 2, 1, 2, 1, 2, 1, 2))
    assert builtin_presentation(parse_group_spec("sym:5")) is None
    assert builtin_presentation(parse_group_spec("abelian:2x2")) is None
    assert builtin_presentation(parse_group_spec("custom:order=2,degrees=1,1")) is None


def test_shuffled_candidate_order_is_invariant():
    # counting over any fixed reordering of the candidate lists gives the
    # same total
    q = 7

    def candidates(m):
        return np.concatenate(list(_unit_blocks(2, q, m)), axis=-1)

    xs, ys = candidates(3), candidates(2)

    def count(xs_order, ys_order):
        # every (x, y) pair: x along one batch axis, y along the other
        at = [np.arange(xs.shape[-1])[:, None], np.arange(ys.shape[-1])[None]]
        return len(_eval_word((1, 2, 1, 2), at, [xs_order, ys_order], [None, None], q))

    base = count(xs, ys)
    rng = np.random.default_rng(7)
    shuffled = count(xs[..., rng.permutation(xs.shape[-1])], ys[..., rng.permutation(ys.shape[-1])])
    assert base == shuffled
    pres = builtin_presentation(parse_group_spec("dihedral:3"))
    assert base == hom_count_bruteforce(pres, 2, q)


def _count_by_nested_loops(pres, n, q):
    """Reference count: every generator tuple from ``gl_enumerate``, words
    multiplied out with ``PrimeFieldMatrix``."""

    def value(word, combo):
        cur = PrimeFieldMatrix.identity(n, q)
        for letter in word:
            g = combo[abs(letter) - 1]
            cur = cur * (g if letter > 0 else g.inverse())
        return cur

    units = list(gl_enumerate(n, q))
    return sum(
        all(value(word, combo).is_identity for word in pres.relators)
        for combo in itertools.product(units, repeat=pres.generator_count)
    )


# labelled in the usual relator notation; the labels name the nested-loop test cases
_S4_COXETER = Presentation(
    3, ((1,) * 2, (2,) * 2, (3,) * 2, (1, 2) * 3, (2, 3) * 3, (1, 3) * 2),
    label="gens=3; rel=x1^2; rel=x2^2; rel=x3^2; rel=(x1*x2)^3; rel=(x2*x3)^3; rel=(x1*x3)^2",
)
# x2 shares no relator with x1 or x3, so the join renumbers it past them and counts it
_X1_X3_COMMUTE = Presentation(
    3, ((1, 3, -1, -3), (2,) * 3), label="gens=3; rel=x1*x3*x1^-1*x3^-1; rel=x2^3"
)
_MIXED_SIGN_POWERS = Presentation(
    2, ((1,) * 3 + (-1,) * 5, (1,) * 4, (2,) * 3, (1, 2, -1, -2)),
    label="gens=2; rel=x1^3*x1^-5; rel=x1^4; rel=x2^3; rel=x1*x2*x1^-1*x2^-1",
)
_COMMUTE = Presentation(2, ((1, 2, -1, -2),), label="gens=2; rel=x1*x2*x1^-1*x2^-1")


@pytest.mark.parametrize(
    "pres, n, q",
    [
        (
            Presentation(
                2, ((1,) * 3, (2,) * 2, (2, 1, -2, 1)),
                label="gens=2; rel=x1^3; rel=x2^2; rel=x2*x1*x2^-1*x1",
            ),
            2, 3,
        ),
        (_COMMUTE, 2, 3),
        (
            Presentation(
                2, ((-1,) * 4, (-2, 1, 2, 1)), label="gens=2; rel=x1^-4; rel=x2^-1*x1*x2*x1"
            ),
            2, 3,
        ),
        (Presentation(2, ((1,) * 2 + (-2,) * 3,), label="gens=2; rel=x1^2*x2^-3"), 1, 7),
        (_S4_COXETER, 2, 2),
        (_S4_COXETER, 1, 7),
        (_X1_X3_COMMUTE, 2, 2),
        (_X1_X3_COMMUTE, 1, 7),
        # x1's one-generator words say x1^-2 = x1^4 = 1, together x1^2 = 1
        (_MIXED_SIGN_POWERS, 2, 3),
        (_MIXED_SIGN_POWERS, 1, 7),
        # x1*x1^-1 has exponent 0 and leaves every x1
        (
            Presentation(
                2, ((1, -1), (2,) * 2, (1, 2, -1, -2)),
                label="gens=2; rel=x1*x1^-1; rel=x2^2; rel=x1*x2*x1^-1*x2^-1",
            ),
            2, 3,
        ),
        # |GL_1(2)| = 1: the inverse of a free generator is g^(2*1 - 1) = g
        (_COMMUTE, 1, 2),
        # GL_0 is one empty matrix, so every presentation has one homomorphism into it
        (_COMMUTE, 0, 2),
    ],
    ids=lambda value: value.label if isinstance(value, Presentation) else None,
)
def test_bruteforce_matches_nested_loops(pres, n, q):
    assert hom_count_bruteforce(pres, n, q) == _count_by_nested_loops(pres, n, q)


# fields whose |GL_n(q)|^k generator tuples, at most 10^4, the nested loops walk quickly
_SMALL_FIELDS = ((1, 5), (1, 7), (1, 13), (2, 2), (2, 3))


@st.composite
def _random_presentations(draw):
    """2-3 generators; words of up to 6 letters and powers u^2..u^4, inverse letters included;
    two or more relators that read the last generator and an earlier one, so all end at it."""
    k = draw(st.integers(min_value=2, max_value=3))
    letter = st.integers(min_value=1, max_value=k).flatmap(lambda g: st.sampled_from((g, -g)))
    word = st.lists(letter, min_size=1, max_size=6).map(tuple)
    power = st.builds(
        lambda root, e: tuple(root) * e,
        st.lists(letter, min_size=1, max_size=3), st.integers(min_value=2, max_value=4),
    )
    relators = draw(st.lists(st.one_of(word, power), max_size=3))
    for _ in range(draw(st.integers(min_value=2, max_value=3))):
        earlier = draw(st.integers(min_value=1, max_value=k - 1)) * draw(st.sampled_from((1, -1)))
        extra = draw(st.lists(letter, max_size=1))
        root = draw(st.permutations([earlier, draw(st.sampled_from((k, -k))), *extra]))
        relators.append(tuple(root) * draw(st.integers(min_value=1, max_value=3)))
    fields = [(n, q) for n, q in _SMALL_FIELDS if gl_count(n, q) ** k <= 10**4]
    return Presentation(k, tuple(relators)), *draw(st.sampled_from(fields))


@settings(max_examples=100, deadline=None)
@given(drawn=_random_presentations())
def test_bruteforce_matches_nested_loops_on_random_presentations(drawn):
    pres, n, q = drawn
    expected = _count_by_nested_loops(pres, n, q)
    assert hom_count_bruteforce(pres, n, q) == expected
    # one row per join chunk: every row is extended and tested on its own
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_JOIN_ENTRIES", 1)
        assert hom_count_bruteforce(pres, n, q) == expected


@st.composite
def _count_only_presentations(draw):
    """1-3 generators and 1-4 words of up to 6 letters in one generator each, inverses included:
    no relator reads two generators, so every generator is counted, as in cyclic:m."""
    k = draw(st.integers(min_value=1, max_value=3))
    word = st.integers(min_value=1, max_value=k).flatmap(
        lambda g: st.lists(st.sampled_from((g, -g)), min_size=1, max_size=6).map(tuple)
    )
    relators = draw(st.lists(word, min_size=1, max_size=4))
    fields = [(n, q) for n, q in (*_SMALL_FIELDS, (3, 2)) if gl_count(n, q) ** k <= 10**4]
    return Presentation(k, tuple(relators)), *draw(st.sampled_from(fields))


@settings(max_examples=100, deadline=None)
@given(drawn=_count_only_presentations())
def test_bruteforce_matches_nested_loops_on_count_only_presentations(drawn):
    # each count is a sum of normal-form roots' weights, or |GL_n(q)| for a generator that no
    # word constrains
    pres, n, q = drawn
    assert hom_count_bruteforce(pres, n, q) == _count_by_nested_loops(pres, n, q)


@pytest.mark.parametrize("n, q, expected", [(2, 7, 96768), (2, 11, 1584000)])
def test_commuting_pairs_by_the_class_equation(n, q, expected):
    # the pairs that commute number sum_g |C(g)| = |G| k(G), and k(GL_2(q)) = q^2 - 1
    assert hom_count_bruteforce(_COMMUTE, n, q) == gl_count(n, q) * (q * q - 1) == expected


_COMMUTE_GL3_PROBE = """
from glhom import Presentation, hom_count_bruteforce
print(hom_count_bruteforce(Presentation(2, ((1, 2, -1, -2),)), 3, 3))
"""


def test_commuting_pairs_in_gl3_by_the_class_equation():
    # |GL_3(3)| k(GL_3(3)) = 11232 * (3^3 - 3): 1296 normal-form x1 against 11232 x2, where all
    # 11232^2 pairs passed the cap
    assert 11232**2 > MAX_CANDIDATES > 1296 * 11232
    assert gl_count(3, 3) * (3**3 - 3) == 269568
    result, wall = run_guarded("-c", _COMMUTE_GL3_PROBE)
    assert (result.returncode, result.stdout, result.stderr) == (0, "269568\n", "")
    assert wall < 5.0


# abelian:2x2x2: three involutions that commute pairwise
_ELEMENTARY_ABELIAN_8 = Presentation(
    3, ((1,) * 2, (2,) * 2, (3,) * 2, (1, 2, -1, -2), (1, 3, -1, -3), (2, 3, -2, -3))
)


@pytest.mark.parametrize("q, expected", [(3, 344), (5, 848)])
def test_abelian_commutator_presentation_matches_polynomial(q, expected):
    assert hom_count_bruteforce(_ELEMENTARY_ABELIAN_8, 2, q) == expected
    assert hom_count_poly(make_profile("abelian:2x2x2"), 2).evaluate(q) == expected


def test_commutator_inverses_at_dimension_three():
    # inverses are powers at every n: g^3 for the involutions of GL_3(3)
    pres = Presentation(2, ((1,) * 2, (2,) * 2, (1, 2, -1, -2)))
    expected = hom_count_poly(make_profile("abelian:2x2"), 3).evaluate(3)
    assert expected == 7024
    assert hom_count_bruteforce(pres, 3, 3) == expected


_FREE_GENERATOR_PROBE = """
from glhom import Presentation, ResourceLimit, hom_count_bruteforce
try:
    hom_count_bruteforce(Presentation(2, ((1,) * 3, (-2, 1, 2, 1))), 3, 7)
except ResourceLimit as exc:
    print(exc)
"""


def test_free_generator_is_refused_before_it_is_streamed():
    # x2 has no power relator, so it would keep all 33784128 units of GL_3(7),
    # 2.4 GB, and x1's full stream takes seconds: the cap refuses as soon as
    # |GL_3(7)| times the x1 kept so far passes it.  Run only under the guard.
    result, wall = run_guarded("-c", _FREE_GENERATOR_PROBE)
    assert (result.returncode, result.stderr) == (0, "")
    assert re.fullmatch(r"at least \d+ candidate tuples exceed the cap 100000000\n", result.stdout)
    assert wall < 1.0


_UNREAD_GENERATOR_PROBE = """
from glhom import Presentation, hom_count_bruteforce
print(hom_count_bruteforce(Presentation(1, ((1, -1),)), 3, 7))
"""


def test_generator_no_relator_reads_is_counted_not_kept():
    # x1*x1^-1 leaves x1 all 33784128 units of GL_3(7), 2.4 GB as matrices, but
    # no multi-generator relator reads x1, so the join only needs |GL_3(7)|
    result, wall = run_guarded("-c", _UNREAD_GENERATOR_PROBE)
    assert (result.returncode, result.stdout, result.stderr) == (0, "33784128\n", "")
    assert wall < 1.0


def test_counted_generators_alone_are_capped_before_any_stream(monkeypatch):
    # two generators that no relator constrains or reads stream nothing, but their
    # |GL_3(7)|^2 tuples still pass the cap, and are refused up front
    streams = []
    monkeypatch.setattr(oracle, "_unit_blocks", lambda *args: streams.append(args) or iter(()))
    with pytest.raises(ResourceLimit, match=f"^at least {33784128**2} candidate tuples exceed"):
        hom_count_bruteforce(Presentation(2, ((1, -1), (2, -2))), 3, 7)
    assert streams == []


def test_generator_between_read_ones_is_only_a_factor(monkeypatch):
    # x2 comes before x3, but only x2^3 reads it: every grid holds x1's rows and x3's
    # candidates, two index arrays, and x2's 21 candidates in GL_2(5) are a factor
    seen = []

    def spied(word, at, *args):
        seen.append(len(at))
        return _eval_word(word, at, *args)

    monkeypatch.setattr(oracle, "_eval_word", spied)
    assert hom_count_bruteforce(_X1_X3_COMMUTE, 2, 5) == 11520 * 21
    assert seen and set(seen) == {2}


def test_shared_one_generator_relators_stream_once(monkeypatch):
    # x1, x2, x3 all carry the relator x^2: GL_2(5) is streamed once, not three times
    calls = []

    def counted(*args):
        calls.append(args)
        return _unit_blocks(*args)

    monkeypatch.setattr(oracle, "_unit_blocks", counted)
    assert hom_count_bruteforce(_ELEMENTARY_ABELIAN_8, 2, 5) == 848
    assert len(calls) == 1


def test_minimal_tuples_naive_examples(s4, d3):
    assert minimal_tuples_naive(s4, 4) == minimal_tuples(s4, 4)
    assert minimal_tuples_naive(s4, 4).tuples == minimal_tuples(s4, 4).tuples
    rep = minimal_tuples_naive(s4, 0)
    assert rep.tuples == ((0, 0, 0, 0, 0),)
    rep = minimal_tuples_naive(d3, 4)
    assert rep.tuples == ((1, 1, 1),) and rep.s == 3


def test_minimal_tuples_naive_guards(s4, monkeypatch):
    # any weight w >= 0 is answered while its box [-w, w]^5 stays under the candidate cap
    with pytest.raises(RangeError):
        minimal_tuples_naive(s4, -1)
    with pytest.raises(ResourceLimit, match="^box size 282475249 exceeds"):
        minimal_tuples_naive(s4, 24)
    monkeypatch.setattr(oracle, "MAX_CANDIDATES", 9**5)
    assert minimal_tuples_naive(s4, 4) == minimal_tuples(s4, 4)
    with pytest.raises(ResourceLimit, match=f"^box size {11**5} exceeds"):
        minimal_tuples_naive(s4, 5)


def test_naive_matches_search_on_small_profiles(d3):
    # past the order too; leading_term against the non-negative part [0, w]^s of the same box
    for text in (
        "cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4", "dihedral:3", "dihedral:4", "dihedral:5",
        "custom:order=12,degrees=1,1,1,3",
    ):
        profile = make_profile(text)
        for w in range(4 * profile.order + 3):
            if (2 * w + 1) ** profile.s > 10**6:
                break
            naive, searched = minimal_tuples_naive(profile, w), minimal_tuples(profile, w)
            assert naive == searched and naive.tuples == searched.tuples
            lt = leading_term(profile, w)
            assert (lt.exponent, lt.coefficient) == top_term_naive(profile, w)


def test_sym4_dimension_two_against_polynomial(s4):
    # f_2 = q^3 + q^2 + 2 (constant term 2: two one-dimensional-only types);
    # the brute force count is the authority for the evaluated value
    pres = builtin_presentation(parse_group_spec("sym:4"))
    value = hom_count_bruteforce(pres, 2, 5)
    assert value == 152
    assert hom_count_poly(s4, 2).evaluate(5) == value


def test_dihedral_extended_matrix():
    # even-m dihedral profiles take the four-character branch; nothing else
    # brute-checks it.  Values frozen after confirming poly == brute force.
    cases = (
        ("dihedral:4", 1, 5, 4),
        ("dihedral:4", 2, 5, 304),
        ("dihedral:5", 1, 11, 2),
        ("dihedral:5", 2, 11, 2774),
    )
    for text, n, q, expected in cases:
        spec = parse_group_spec(text)
        pres = builtin_presentation(spec)
        brute = hom_count_bruteforce(pres, n, q)
        assert brute == expected, (text, n, q, brute)
        assert hom_count_poly(make_profile(text), n).evaluate(q) == expected
