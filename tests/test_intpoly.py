"""The polynomial type f_n is returned in, and the orbit-sum reference's product and division."""

from __future__ import annotations

import math
import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from glhom import NEG_INFINITY, IntPolynomial
from orbit_sum import div_exact, gl_order, mul

P = IntPolynomial
_Q = sympy.Symbol("q")


def test_canonical_form_trims_trailing_zeros():
    assert P([1, 2, 0, 0]).coefficients == (1, 2)
    assert not P([0, 0, 0]) and P([0, 0, 0]) == P([])
    assert not P([]) and P([]).coefficients == ()
    assert P([0, 0, 1])


def test_zero_degree_is_minus_infinity_marker():
    assert P().degree == NEG_INFINITY
    assert P().degree < 0
    assert P([5]).degree == 0


def test_mul():
    assert mul([-1, 1], [1, 1]) == [-1, 0, 1]  # q^2 - 1
    assert mul([2, -5, 1], [1]) == [2, -5, 1]
    # (q^2 - 1)(q^2 - q) = q^4 - q^3 - q^2 + q = |GL_2(q)|
    assert mul([-1, 0, 1], [0, -1, 1]) == [0, 1, -1, -1, 1]


def test_mul_scalar():
    assert mul([1, 2], [3]) == [3, 6]
    assert mul([], [1, 2]) == mul([1, 2], []) == []


def test_div_exact():
    gl2 = [0, 1, -1, -1, 1]
    assert div_exact(gl2, [1, -2, 1]) == [0, 1, 1]  # (q-1)^2 -> q^2 + q
    assert div_exact([4, 7, -2], [1]) == [4, 7, -2]
    assert div_exact([-1, 0, 1], [1, 1]) == [-1, 1]
    assert div_exact([], [1, 1]) == []


def test_div_exact_errors():
    with pytest.raises(ZeroDivisionError):
        div_exact([1], [])
    with pytest.raises(ArithmeticError, match="remainder"):
        div_exact([1, 0, 1], [1, 1])  # q^2 + 1 is not divisible by q + 1
    with pytest.raises(ArithmeticError, match="remainder"):
        div_exact([1, 1], [1, 0, 1])  # degree too small
    with pytest.raises(ArithmeticError, match="remainder"):
        div_exact([1, 1], [2])  # quotient not integral


def test_div_exact_nonmonic():
    assert div_exact([3, 6], [1, 2]) == [3]  # 6q + 3 = 3(2q + 1)
    assert div_exact([2, 4, 2], [2]) == [1, 2, 1]


def test_evaluate():
    assert P([2, 1, 1]).evaluate(3) == 14
    assert P([7, -3, 5]).evaluate(0) == 7
    assert P([0, 1, -1, -1, 1]).evaluate(3) == 48
    assert P().evaluate(100) == 0


def test_gl_order_poly_small():
    assert gl_order(0) == (1,)
    assert gl_order(1) == (-1, 1)
    assert gl_order(2) == (0, 1, -1, -1, 1)


@pytest.mark.parametrize("n", range(0, 31))
def test_gl_order_poly_degree_and_monic(n):
    p = P(gl_order(n))
    assert p.degree == n * n
    assert p.leading_coefficient == 1
    assert p.evaluate(3) == math.prod(3**n - 3**i for i in range(n))


def _random_poly(rng, max_deg, max_coeff=50):
    deg = rng.randrange(max_deg + 1)
    return P([rng.randint(-max_coeff, max_coeff) for _ in range(deg + 1)]).coefficients


def test_mul_then_div_roundtrip():
    rng = random.Random(1)
    for _ in range(300):
        p = _random_poly(rng, 12)
        d = _random_poly(rng, 8)
        if not d:
            continue
        assert div_exact(mul(p, d), d) == list(p)


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(2)
    for _ in range(300):
        p = _random_poly(rng, 10)
        r = _random_poly(rng, 10)
        x = rng.randint(-9, 9)
        assert P(mul(p, r)).evaluate(x) == P(p).evaluate(x) * P(r).evaluate(x)


_signed_polys = st.lists(
    st.integers(min_value=-(2**80), max_value=2**80) | st.integers(min_value=-9, max_value=9),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(_signed_polys, _signed_polys)
def test_ring_operations_match_sympy(a, b):
    pa, pb = P(a).coefficients, P(b).coefficients
    sa, sb = (sympy.Poly(c[::-1] or [0], _Q, domain=sympy.QQ) for c in (a, b))
    assert tuple(mul(pa, pb)) == _sympy_coeffs(sa * sb)
    if not pb:
        with pytest.raises(ZeroDivisionError):
            div_exact(pa, pb)
        return
    assert div_exact(mul(pa, pb), pb) == list(pa)
    quot, rem = sa.div(sb)
    if rem.is_zero and all(c.q == 1 for c in quot.all_coeffs()):
        assert tuple(div_exact(pa, pb)) == _sympy_coeffs(quot)
    else:
        with pytest.raises(ArithmeticError, match="remainder"):
            div_exact(pa, pb)


def _sympy_coeffs(poly) -> tuple[int, ...]:
    """Coefficients lowest first, as IntPolynomial stores them."""
    return () if poly.is_zero else tuple(int(c) for c in reversed(poly.all_coeffs()))


def test_big_coefficients_survive():
    big = 10**40
    assert mul([big, -big], [big, big]) == [big * big, 0, -big * big]


def test_to_text():
    assert P().to_text() == "0"
    assert P((1,)).to_text() == "1"
    assert P([2, 1, 1]).to_text() == "q^2 + q + 2"
    assert P(gl_order(2)).to_text() == "q^4 - q^3 - q^2 + q"
    assert P([1, 0, -1]).to_text() == "-q^2 + 1"
    assert P([0, -3]).to_text() == "-3*q"
    assert P([1] + [0] * 597 + [2]).to_text() == "2*q^598 + 1"
    assert P([0, 1]).to_text() == "q"
    assert repr(P(gl_order(2))) == "IntPolynomial('q^4 - q^3 - q^2 + q')"
    assert repr(P()) == "IntPolynomial('0')"


def test_json_round_trip():
    # exponent -> coefficient, both as decimal strings, nonzero terms only
    assert P([2, 1, 1]).to_json_obj() == {"2": "1", "1": "1", "0": "2"}
    assert P([0, 0, 0, 10**35]).to_json_obj() == {"3": str(10**35)}
    assert P().to_json_obj() == {}


def test_hash_and_equality():
    assert hash(P([1, 2])) == hash(P([1, 2, 0]))
    assert P([1, 2]) != P([1, 2, 3])
    assert P([1]) != 1


def test_div_exact_negative_unit_lead():
    num = [-1, 0, 1]  # q^2 - 1
    den = [-1, -1]  # -q - 1
    assert div_exact(num, den) == [1, -1]  # 1 - q
    assert mul([1, -1], den) == num
