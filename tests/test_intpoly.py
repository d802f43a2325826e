"""Polynomial ring arithmetic, exact division, and rendering."""

from __future__ import annotations

import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from glhom import (
    NEG_INFINITY,
    DivisionByZero,
    IntPolynomial,
    NonZeroRemainder,
    div_exact,
    gl_order_poly,
)

P = IntPolynomial
_Q = sympy.Symbol("q")


def test_canonical_form_trims_trailing_zeros():
    assert P([1, 2, 0, 0]).coefficients == (1, 2)
    assert P([0, 0, 0]).is_zero
    assert P([]).is_zero


def test_zero_degree_is_minus_infinity_marker():
    assert P.zero().degree == NEG_INFINITY
    assert P.zero().degree < 0
    assert P([5]).degree == 0


def test_add():
    q_plus_1 = P([1, 1])
    q_minus_1 = P([-1, 1])
    assert q_plus_1 + q_minus_1 == P([0, 2])  # 2q
    p = P([3, 0, 7])
    assert p + P.zero() == p
    assert P([0, 0, 1]) + P([0, 0, -1]) == P.zero()


def test_mul():
    assert P([-1, 1]) * P([1, 1]) == P([-1, 0, 1])  # q^2 - 1
    p = P([2, -5, 1])
    assert p * P.one() == p
    # (q^2 - 1)(q^2 - q) = q^4 - q^3 - q^2 + q = |GL_2(q)|
    assert P([-1, 0, 1]) * P([0, -1, 1]) == P([0, 1, -1, -1, 1])


def test_mul_scalar():
    assert P([1, 2]) * 3 == P([3, 6])
    assert 0 * P([1, 2]) == P.zero()


def test_div_exact():
    gl2 = P([0, 1, -1, -1, 1])
    assert div_exact(gl2, P([1, -2, 1])) == P([0, 1, 1])  # (q-1)^2 -> q^2 + q
    p = P([4, 7, -2])
    assert div_exact(p, P.one()) == p
    assert div_exact(P([-1, 0, 1]), P([1, 1])) == P([-1, 1])
    assert gl2 // P([1, -2, 1]) == P([0, 1, 1])


def test_div_exact_errors():
    with pytest.raises(DivisionByZero):
        div_exact(P([1]), P.zero())
    with pytest.raises(NonZeroRemainder):
        div_exact(P([1, 0, 1]), P([1, 1]))  # q^2 + 1 is not divisible by q + 1
    with pytest.raises(NonZeroRemainder):
        div_exact(P([1, 1]), P([1, 0, 1]))  # degree too small
    with pytest.raises(NonZeroRemainder):
        div_exact(P([1, 1]), P([2]))  # quotient not integral


def test_div_exact_nonmonic():
    a = P([3, 6])  # 3(2q + 1)... actually 6q + 3
    b = P([1, 2])
    assert div_exact(a, b) == P([3])
    assert div_exact(P([2, 4, 2]), P([2])) == P([1, 2, 1])


def test_evaluate():
    assert P([2, 1, 1]).evaluate(3) == 14
    assert P([7, -3, 5]).evaluate(0) == 7
    assert P([0, 1, -1, -1, 1]).evaluate(3) == 48
    assert P.zero().evaluate(100) == 0
    assert P([2, 1, 1])(3) == 14


def test_gl_order_poly_small():
    assert gl_order_poly(0) == P.one()
    assert gl_order_poly(1) == P([-1, 1])
    assert gl_order_poly(2) == P([0, 1, -1, -1, 1])


@pytest.mark.parametrize("n", range(0, 31))
def test_gl_order_poly_degree_and_monic(n):
    p = gl_order_poly(n)
    assert p.degree == n * n
    assert p.leading_coefficient == 1


def _random_poly(rng, max_deg, max_coeff=50):
    deg = rng.randrange(max_deg + 1)
    return P([rng.randint(-max_coeff, max_coeff) for _ in range(deg + 1)])


def test_mul_then_div_roundtrip():
    rng = random.Random(1)
    for _ in range(300):
        p = _random_poly(rng, 12)
        d = _random_poly(rng, 8)
        if d.is_zero:
            continue
        assert div_exact(p * d, d) == p


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(2)
    for _ in range(300):
        p = _random_poly(rng, 10)
        r = _random_poly(rng, 10)
        x = rng.randint(-9, 9)
        assert (p * r).evaluate(x) == p.evaluate(x) * r.evaluate(x)
        assert (p + r).evaluate(x) == p.evaluate(x) + r.evaluate(x)


_signed_polys = st.lists(
    st.integers(min_value=-(2**80), max_value=2**80) | st.integers(min_value=-9, max_value=9),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(_signed_polys, _signed_polys)
def test_ring_operations_match_sympy(a, b):
    pa, pb = P(a), P(b)
    sa, sb = (sympy.Poly(c[::-1] or [0], _Q, domain=sympy.QQ) for c in (a, b))
    assert (pa * pb).coefficients == _sympy_coeffs(sa * sb)
    assert (pa + pb).coefficients == _sympy_coeffs(sa + sb)
    if pb.is_zero:
        return
    assert div_exact(pa * pb, pb) == pa
    quot, rem = sa.div(sb)
    if rem.is_zero and all(c.q == 1 for c in quot.all_coeffs()):
        assert div_exact(pa, pb).coefficients == _sympy_coeffs(quot)
    else:
        with pytest.raises(NonZeroRemainder):
            div_exact(pa, pb)


def _sympy_coeffs(poly) -> tuple[int, ...]:
    """Coefficients lowest first, as IntPolynomial stores them."""
    return () if poly.is_zero else tuple(int(c) for c in reversed(poly.all_coeffs()))


def test_big_coefficients_survive():
    big = 10**40
    p = P([big, -big]) * P([big, big])
    assert p == P([big * big, 0, -big * big])


def test_shifted():
    assert P([1, 2]).shifted(3) == P([0, 0, 0, 1, 2])
    assert P.zero().shifted(5) == P.zero()


def test_to_text():
    assert P.zero().to_text() == "0"
    assert P.one().to_text() == "1"
    assert P([2, 1, 1]).to_text() == "q^2 + q + 2"
    assert gl_order_poly(2).to_text() == "q^4 - q^3 - q^2 + q"
    assert P([1, 0, -1]).to_text() == "-q^2 + 1"
    assert P([0, -3]).to_text() == "-3*q"
    assert (P.monomial(2, 598) + P.one()).to_text() == "2*q^598 + 1"
    assert P([0, 1]).to_text() == "q"


def test_json_round_trip():
    p = P([2, 1, 1])
    obj = p.to_json_obj()
    assert obj == {"2": "1", "1": "1", "0": "2"}
    assert P.from_json_obj(obj) == p
    huge = P.monomial(10**5, 3) * P([10**30])
    assert P.from_json_obj(huge.to_json_obj()) == huge
    assert P.from_json_obj({}) == P.zero()


def test_hash_and_equality():
    assert hash(P([1, 2])) == hash(P([1, 2, 0]))
    assert P([1, 2]) != P([1, 2, 3])
    assert P([1]) != 1


def test_div_exact_negative_unit_lead():
    num = P([-1, 0, 1])  # q^2 - 1
    den = P([-1, -1])  # -q - 1
    assert div_exact(num, den) == P([1, -1])  # 1 - q
    assert P([1, -1]) * den == num


def test_monomial_rejects_negative_exponent():
    from glhom import RangeError

    with pytest.raises(RangeError):
        P.monomial(1, -1)
