"""Orbit polynomials, full count polynomials, leading terms and the variety data they give."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import glhom
import glhom.counting as counting
from glhom import (
    IntPolynomial,
    RangeError,
    ResourceLimit,
    hom_count_poly,
    leading_term,
    minimal_tuples,
    parse_group_spec,
    profile_of,
    splitting_field_check,
)
from conftest import custom_profile, make_profile
from orbit_sum import eligible_tuples, gl_order, mul, orbit_poly, orbit_sum


def test_orbit_poly_examples(c2, s4):
    assert orbit_poly(c2, (1, 1)) == IntPolynomial([0, 1, 1])  # q^2 + q
    assert orbit_poly(c2, (2, 0)) == IntPolynomial((1,))
    assert orbit_poly(s4, (1, 0, 0, 0, 0)) == IntPolynomial((1,))


def test_orbit_poly_single_irreducible_block(d3):
    # V = the 2-dimensional irreducible: stabilizer GL_1, orbit q^3 - q.
    # Such orbits are where negative coefficients genuinely appear.
    assert orbit_poly(d3, (0, 0, 1)) == IntPolynomial([0, -1, 0, 1])


def test_orbit_poly_degree_and_monic(s4, d3):
    for profile in (s4, d3):
        for n in range(0, 7):
            for t in eligible_tuples(profile, n):
                p = orbit_poly(profile, t)
                assert p.degree == n * n - sum(e * e for e in t)
                assert p.leading_coefficient == 1


def test_hom_count_poly_examples(c2, s4):
    assert hom_count_poly(c2, 2) == IntPolynomial([2, 1, 1])
    assert hom_count_poly(c2, 2).evaluate(3) == 14
    assert hom_count_poly(s4, 0) == IntPolynomial((1,))
    assert hom_count_poly(c2, 1) == IntPolynomial([2])


def test_hom_count_poly_s4_n2(s4):
    # eligible: (2,0,0,0,0), (1,1,0,0,0), (0,2,0,0,0), (0,0,1,0,0)
    f2 = hom_count_poly(s4, 2)
    assert f2 == IntPolynomial([2, 0, 1, 1])  # q^3 + q^2 + 2
    assert f2.evaluate(5) == 152


def test_hom_count_poly_matches_orbit_sum():
    cases = [
        ("cyclic:2", range(0, 13)),
        ("cyclic:3", range(0, 10)),
        ("dihedral:3", range(0, 9)),
        ("dihedral:4", range(0, 8)),
        ("sym:4", range(0, 9)),
        ("custom:order=10,degrees=1,3", range(0, 10)),
        ("sym:5", range(0, 8)),
        ("dihedral:5", range(0, 9)),
        ("abelian:2x2x2", range(0, 7)),
        ("cyclic:12", range(0, 5)),
    ]
    for text, ns in cases:
        profile = make_profile(text)
        for n in ns:
            assert hom_count_poly(profile, n) == orbit_sum(profile, n), (text, n)


@settings(max_examples=100, deadline=None)
@given(
    groups=st.lists(
        st.tuples(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=12)),
        max_size=4,
    ),
    n=st.integers(min_value=0, max_value=8),
)
def test_hom_count_poly_matches_orbit_sum_random_profiles(groups, n):
    # (d, c) groups of up to 12 equal degrees; a draw with over 2,000 eligible tuples is
    # skipped, and ways[w] counts the tuples of weight w over the coordinates so far
    profile = custom_profile((1, *(d for d, c in groups for _ in range(c))))
    ways = [1] + [0] * n
    for d in profile.degrees:
        for w in range(d, n + 1):
            ways[w] += ways[w - d]
    assume(ways[n] <= 2000)
    assert hom_count_poly(profile, n) == orbit_sum(profile, n)


def _walked_steps(degrees: tuple[int, ...], n: int) -> int:
    """(state, k) steps of the f_n DP, by walking every coordinate's state set."""
    states, steps = {(0, 0)}, 0
    for j, d in enumerate(degrees):
        ks = [range((n - w) // d + 1) if j + 1 < len(degrees) else (n - w,) for w, _ in states]
        steps += sum(map(len, ks))
        states = {(w + k * d, m + k) for (w, m), kk in zip(states, ks) for k in kk}
    return steps


@settings(max_examples=200, deadline=None)
@given(
    extra=st.lists(st.integers(min_value=1, max_value=6), max_size=6),
    n=st.integers(min_value=0, max_value=30),
)
def test_preflight_step_count_matches_a_full_walk(extra, n):
    profile = custom_profile((1, *extra))
    # largest degree first, the order hom_count_poly walks them in
    steps = counting._transitions(profile.groups[::-1], n)
    assert steps == _walked_steps(profile.degrees[::-1], n)


@settings(max_examples=200, deadline=None)
@given(
    extra=st.lists(st.integers(min_value=1, max_value=6), max_size=6),
    n=st.integers(min_value=0, max_value=30),
)
def test_preflight_width_is_the_bound_of_the_dp_at_q_1(extra, n):
    # the H_n recurrence against sum_M P_{n,M}(1) 2^(n-M), read off the DP itself at bits = 0
    profile = custom_profile((1, *extra))
    states = counting._packed_states(profile.degrees[::-1], n, 0)
    bound = sum(value << (n - m) for m, value in states.items())
    assert counting._preflight(profile.groups[::-1], n) == bound.bit_length() + 2


def test_hom_count_poly_partition_identity(s4, d3):
    for profile, n in ((s4, 6), (d3, 5)):
        f = hom_count_poly(profile, n)
        gl_n = IntPolynomial(gl_order(n))
        for q in (2, 3, 5, 7):
            parts = [orbit_poly(profile, t).evaluate(q) for t in eligible_tuples(profile, n)]
            assert sum(parts) == f.evaluate(q)
            for part in parts:
                assert part > 0
                assert gl_n.evaluate(q) % part == 0  # orbit-stabilizer


def test_hom_count_poly_resource_limit(c2, monkeypatch):
    # n=50 on cyclic:2: 102 DP steps, each up to (50^2 + 1) * 53 bits wide plus the overhead;
    # H_50 = 2^50 has 51 bits, and B = 51 + 2
    estimate = 102 * (2501 * 53 + counting.STEP_OVERHEAD_BITS)
    monkeypatch.setattr(counting, "MAX_WORK_BITS", estimate)
    assert hom_count_poly(c2, 50).degree == 50 * 50 // 2
    monkeypatch.setattr(counting, "MAX_WORK_BITS", estimate - 1)
    with pytest.raises(ResourceLimit, match=f"about {estimate} bits .* cap of {estimate - 1} bits"):
        hom_count_poly(c2, 50)


def test_hom_count_poly_range(c2):
    with pytest.raises(RangeError):
        hom_count_poly(c2, -1)


def test_leading_term_examples(s4, c2):
    lt = leading_term(s4, 25)
    assert (lt.coefficient, lt.exponent) == (2, 598)
    assert (lt.n, lt.r) == (25, 1)
    lt = leading_term(s4, 24)
    assert (lt.coefficient, lt.exponent) == (1, 552)
    lt = leading_term(c2, 2)
    assert (lt.coefficient, lt.exponent) == (1, 2)
    assert hom_count_poly(c2, 2).degree == 2


def test_leading_term_unstable_flag(s5):
    # b > 0 at weight n flags that the paper's formula, read from minimal_tuples, misses f_n's
    # top: at n = 3 it gives 4 * q^7, and f_3 starts 2 * q^4
    rep, lt = minimal_tuples(s5, 3), leading_term(s5, 3)
    assert rep.b > 0 and (9 - rep.s, rep.m) == (7, 4)
    assert (lt.exponent, lt.coefficient) == (4, 2)
    f = hom_count_poly(s5, 3)
    assert (f.degree, f.leading_coefficient) == (4, 2)
    rep, lt = minimal_tuples(s5, 120), leading_term(s5, 120)
    assert rep.b == 0 and lt.exponent == 120 * 120 - rep.s == 14280


def test_leading_term_degree_window(s4, s5):
    for profile in (s4, s5):
        a = profile.order
        for n in range(0, 2 * a + 1, 7):
            lt = leading_term(profile, n)
            r = n % a
            upper = Fraction(n * n) * Fraction(a - 1, a)
            lower = Fraction(n * n - r * r) * Fraction(a - 1, a)
            assert lower <= lt.exponent <= upper


def test_variety_report(s4, c2, s5):
    # the variety's dimension and top-component count are the leading term's exponent and
    # coefficient
    assert leading_term(s4, 25) == leading_term(s4, 25)
    for profile, n, dimension, top in ((s4, 25, 598, 2), (c2, 4, 8, 1), (s5, 120, 14280, 1)):
        lt = leading_term(profile, n)
        assert (lt.exponent, lt.coefficient) == (dimension, top)


def test_variety_report_unstable(s5):
    # below N = 120 the library answers f_n's true top, which the paper's 2 * q^523 misses
    lt, rep = leading_term(s5, 23), minimal_tuples(s5, 23)
    assert (lt.exponent, lt.coefficient) == (522, 8)
    assert rep.b > 0 and (23 * 23 - rep.s, rep.m) == (523, 2)


def test_division_route_equals_assembly_on_random_tuples(rng):
    profile = make_profile("sym:4")
    for n in range(1, 11):
        tuples = eligible_tuples(profile, n)
        for t in rng.sample(tuples, min(4, len(tuples))):
            num = list(gl_order(n))
            den = [1]
            for e in t:
                den = mul(den, gl_order(e))
            assert mul(den, orbit_poly(profile, t).coefficients) == num


def test_leading_term_law_small_profiles():
    for text in ("cyclic:1", "cyclic:4", "abelian:2x2", "dihedral:3", "dihedral:4"):
        profile = make_profile(text)
        for n in range(0, 13):
            f = hom_count_poly(profile, n)
            lt = leading_term(profile, n)
            rep = minimal_tuples(profile, n % profile.order)
            assert f.degree == lt.exponent
            assert f.leading_coefficient == lt.coefficient == rep.m


def test_s5_leading_term_via_eligibility(s5):
    # the full polynomial is out of reach at order 120, so the law is
    # checked through the lifting data: past the threshold every minimal
    # tuple is eligible, and the formula exponent equals n^2 minus their
    # square-sum, k^2 a + 2 k r + S_r at n = k a + r
    for n in (120, 123, 127, 240, 360, 120 * 10**6 + 59, 120 * 10**12 + 3):
        k, r = divmod(n, s5.order)
        rep = minimal_tuples(s5, r)
        assert k >= rep.b
        lt = leading_term(s5, n)
        assert lt.exponent == n * n - (k * k * s5.order + 2 * k * r + rep.s)
        assert lt.coefficient == rep.m
    # below the threshold some residues still carry negative entries
    assert minimal_tuples(s5, 3).b > 0


def test_counting_layer_is_the_packages_lazy_attribute():
    # the package's module hook, which the import statement above bypasses
    assert glhom.__getattr__("counting") is counting


@settings(max_examples=300, deadline=None)
@given(
    extra=st.lists(st.integers(min_value=1, max_value=7), max_size=4),
    ones=st.integers(min_value=1, max_value=3),
    n=st.integers(min_value=0, max_value=30),
)
def test_leading_term_is_the_top_of_f_n(extra, ones, n):
    # f_n sums monic orbit polynomials over the non-negative tuples of weight n, so its top is
    # leading_term's at every n; the paper's (n^2 - S_n, m_n) equals it exactly when b_n = 0.
    # A draw with over 3,000 eligible tuples is skipped; ways[w] counts those of weight w
    profile = custom_profile((1,) * ones + tuple(extra))
    ways = [1] + [0] * n
    for d in profile.degrees:
        for w in range(d, n + 1):
            ways[w] += ways[w - d]
    assume(ways[n] <= 3000)
    f, lt, rep = hom_count_poly(profile, n), leading_term(profile, n), minimal_tuples(profile, n)
    top = (f.degree, f.leading_coefficient)
    assert (lt.exponent, lt.coefficient) == top
    assert (rep.b == 0) == ((n * n - rep.s, rep.m) == top)


def _prime_powers(limit: int) -> list[tuple[int, int]]:
    """Every (q, p) with q = p^k <= limit, k >= 1, in order of q: a sieve, not prime_base."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (limit - 1)
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    powers = []
    for p in itertools.compress(range(limit + 1), sieve):
        q = p
        while q <= limit:
            powers.append((q, p))
            q *= p
    return sorted(powers)


PRIME_POWERS = _prime_powers(10**6)  # most are large, so q is also drawn from those below 200
SMALL_PRIME_POWERS = [point for point in PRIME_POWERS if point[0] < 200]
# the built-in families, each with the largest n <= 40 at which hom_count_poly took under 50 ms
# on a 2-core x86-64 VM (Python 3.11.7); the DP's work grows fastest with the degree-1 entries
IDENTITY_N_MAX = {
    "cyclic:1": 40, "cyclic:2": 40, "cyclic:3": 40, "cyclic:4": 36, "cyclic:6": 27,
    "abelian:2x2": 36, "abelian:2x4": 25, "dihedral:3": 40, "dihedral:4": 25, "dihedral:5": 38,
    "dihedral:6": 24, "dihedral:7": 39, "sym:4": 39, "sym:5": 40,
}


@settings(max_examples=100, deadline=None)
@given(text=st.sampled_from(sorted(IDENTITY_N_MAX)), data=st.data())
def test_identities_that_need_no_orbit_sum(text, data):
    # three facts about |Hom(A, GL_n(q))| that do not rest on the orbit identity the DP sums,
    # with c_1 = |A/A'| the number of degree-1 entries, at split prime powers q <= 10^6:
    # - torus fixed points: f_n(1) = c_1^n, the Euler characteristic of the representation
    #   variety (Katz's appendix to Hausel and Rodriguez-Villegas, Invent. Math. 2008);
    # - Sylow: the unitriangular group acts in orbits of p-power size, and its fixed points map
    #   A into F_q^x * Z(U), so f_n(q) = c_1 (mod p) for n >= 2 when p does not divide a;
    # - Yoshida (J. Algebra 156, 1993): f_n(q) = 0 (mod gcd(c_1, |GL_n(q)|)).
    spec = parse_group_spec(text)
    profile = profile_of(spec)
    c_1 = profile.groups[0][1]
    n = data.draw(st.integers(min_value=0, max_value=IDENTITY_N_MAX[text]), label="n")
    points = st.one_of(st.sampled_from(SMALL_PRIME_POWERS), st.sampled_from(PRIME_POWERS))
    drawn = data.draw(st.lists(points, min_size=4, max_size=8), label="(q, p)")
    split = [(q, p) for q, p in drawn if splitting_field_check(spec, q)[0]]
    assume(split)
    f = hom_count_poly(profile, n)
    assert f.evaluate(1) == c_1**n
    for q, p in split:
        value = f.evaluate(q)
        if n >= 2 and profile.order % p:
            assert (value - c_1) % p == 0
        gl_size = math.prod(q**n - q**i for i in range(n))
        assert value % math.gcd(c_1, gl_size) == 0
