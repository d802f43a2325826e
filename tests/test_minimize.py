"""Minimal-tuple search, lifting, stability bounds, eligible enumeration."""

from __future__ import annotations

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from glhom import (
    InvariantViolation,
    MinimalReport,
    RangeError,
    ResourceLimit,
    leading_term,
    minimal_tuples,
    stability_bound,
)
import glhom.minimize as minimize
from glhom.minimize import MAX_LISTED_TUPLES
from conftest import BUILTIN_SPECS, custom_profile, make_profile, run_guarded
from naive_box import minimal_tuples_naive
from orbit_sum import eligible_tuples


def test_minimal_tuples_s4_r4(s4):
    rep = minimal_tuples(s4, 4)
    assert rep.m == 4
    assert rep.s == 2
    assert rep.eps == Fraction(4, 3)
    assert (1, 0, 0, 1, 0) in rep.tuples
    assert rep.tuples == tuple(sorted(rep.tuples))


def test_minimal_tuples_zero_residue(s4, d3):
    for profile in (s4, d3):
        rep = minimal_tuples(profile, 0)
        assert rep.tuples == ((0,) * profile.s,)
        assert rep.s == 0 and rep.eps == 0


def test_minimal_tuples_s5_r3(s5):
    rep = minimal_tuples(s5, 3)
    assert rep.m == 4
    assert rep.s == 2
    assert (0, -1, 1, 0, 0, 0, 0) in rep.tuples


def test_minimal_tuples_dihedral3_r4(d3):
    rep = minimal_tuples(d3, 4)
    assert rep.tuples == ((1, 1, 1),)
    assert rep.s == 3
    assert rep.eps == Fraction(1, 3)


def test_minimal_tuples_range_errors(s4):
    # only a negative weight is refused; a weight at or past the order is answered
    with pytest.raises(RangeError, match="^weight must be >= 0$"):
        minimal_tuples(s4, -1)
    rep = minimal_tuples(s4, 24)
    assert rep.tuples == ((1, 1, 2, 3, 3),) and rep.eps == 0


def test_epsilon(s4):
    assert minimal_tuples(s4, 2).eps == Fraction(5, 6)
    assert minimal_tuples(s4, 0).eps == 0
    assert minimal_tuples(make_profile("cyclic:4"), 2).eps == 1


def test_stability_bound_examples(s4, s5):
    assert stability_bound(s4) == stability_bound(s4)
    b4 = stability_bound(s4)
    assert b4.b == 0 and b4.n_threshold == 0
    b5 = stability_bound(s5)
    assert b5.b == 1 and b5.n_threshold == 120
    for m in (1, 2, 3, 5, 8):
        bm = stability_bound(make_profile(f"cyclic:{m}"))
        assert bm.n_threshold == 0


def test_stability_bound_ceiling():
    for text in BUILTIN_SPECS:
        profile = make_profile(text)
        bound = stability_bound(profile)
        assert bound.n_threshold <= profile.order * (profile.order - 1)


def test_stability_bound_s6_profile():
    # order-720 profile with degrees 1,1,5,5,5,5,9,9,10,10,16 needs N = 720
    s6 = make_profile("custom:order=720,degrees=1,1,5,5,5,5,9,9,10,10,16")
    bound = stability_bound(s6)
    assert bound.b == 1 and bound.n_threshold == 720


def test_lift_minimal(s4, c2):
    # (k*d_i + t_i) lifts the minimal tuples t of weight r onto those of weight k*a + r
    for profile, k, r in ((s4, 1, 1), (s4, 0, 4), (c2, 3, 1)):
        lifted = {
            tuple(k * d + e for e, d in zip(t, profile.degrees))
            for t in minimal_tuples(profile, r).tuples
        }
        assert lifted == set(minimal_tuples(profile, k * profile.order + r).tuples)
    assert (2, 1, 2, 3, 3) in minimal_tuples(s4, 25).tuples


def test_lift_agrees_with_direct_search(c2):
    direct = minimal_tuples(c2, 7)
    assert (4, 3) in direct.tuples


def test_minimal_tuples_for_n_s4_25(s4):
    # n = k*a + r lifts residue r's minimal tuples, all eligible once k >= b_r,
    # to square-sum k^2*a + 2*k*r + S_r
    k, r = divmod(25, s4.order)
    rep = minimal_tuples(s4, r)
    assert rep.m == 2
    assert k >= rep.b
    assert k * k * s4.order + 2 * k * r + rep.s == 27
    direct = minimal_tuples(s4, 25)
    assert direct.tuples == ((1, 2, 2, 3, 3), (2, 1, 2, 3, 3)) and direct.s == 27


def test_minimal_tuples_for_n_zero(s4):
    rep = minimal_tuples(s4, 0)
    assert rep.tuples == ((0, 0, 0, 0, 0),)
    assert rep.b == 0


def test_minimal_tuples_for_n_s5_3(s5):
    rep = minimal_tuples(s5, 3)
    assert rep.m == 4
    assert rep.b > 0
    assert any(min(t) < 0 for t in rep.tuples)


@settings(max_examples=100, deadline=None)
@given(
    extra=st.lists(st.integers(min_value=1, max_value=7), max_size=5),
    ones=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=0, max_value=3) | st.integers(min_value=0, max_value=10**6),
    data=st.data(),
)
def test_any_weight_answers_as_its_residue_lifted(extra, ones, k, data):
    # t -> k*d + t maps weight r onto w = k*a + r and adds k^2*a + 2*k*r to every square-sum;
    # leading_term gives the paper's m_r * q^(w^2 - (w^2 - r^2)/a - S_r) when b = 0 at weight w,
    # and a lower term when a minimal tuple is negative, one the non-negative search cannot reach
    profile = custom_profile((1,) * ones + tuple(extra))
    a = profile.order
    r = data.draw(st.integers(min_value=0, max_value=a - 1), label="r")
    w = k * a + r
    rep, base = minimal_tuples(profile, w), minimal_tuples(profile, r)
    assert rep.w == w and rep.eps >= 0
    assert (rep.eps == 0) == (w % a == 0)
    assert rep.s == k * k * a + 2 * k * r + base.s
    assert rep.m == base.m
    lt = leading_term(profile, w)
    assert (w * w - r * r) % a == 0
    paper = (w * w - (w * w - r * r) // a - base.s, base.m)
    assert lt.r == r
    top = (lt.exponent, lt.coefficient)
    assert top == paper if rep.b == 0 else top < paper


def test_eligible_tuples(c2, s4):
    assert eligible_tuples(c2, 2) == ((0, 2), (1, 1), (2, 0))
    assert eligible_tuples(s4, 1) == ((0, 1, 0, 0, 0), (1, 0, 0, 0, 0))
    assert eligible_tuples(s4, 0) == ((0, 0, 0, 0, 0),)


def test_eligible_tuples_sorted_and_complete(s4):
    tuples = eligible_tuples(s4, 9)
    assert list(tuples) == sorted(tuples)
    assert len(set(tuples)) == len(tuples)
    for t in tuples:
        assert sum(e * d for e, d in zip(t, s4.degrees)) == 9 and min(t) >= 0


def test_eligible_tuples_many_coordinates():
    # one coordinate per tuple entry: a walk that recursed per coordinate
    # would exceed the interpreter's recursion limit here
    tuples = eligible_tuples(make_profile("cyclic:2000"), 1)
    assert len(tuples) == 2000
    assert tuples[0] == (0,) * 1999 + (1,) and tuples[-1] == (1,) + (0,) * 1999


def test_cauchy_schwarz_floor_and_box_ceiling():
    for text in BUILTIN_SPECS:
        profile = make_profile(text)
        if profile.order > 16:
            continue
        for r in range(profile.order):
            rep = minimal_tuples(profile, r)
            assert rep.s * profile.order >= r * r  # S_r >= r^2 / a
            assert rep.s <= r * r
            assert rep.eps >= 0
            for t in rep.tuples:
                assert sum(e * d for e, d in zip(t, profile.degrees)) == r


def test_reports_are_deterministic(s5):
    assert minimal_tuples(s5, 59) == minimal_tuples(s5, 59)
    assert minimal_tuples(s5, 59).tuples == minimal_tuples(s5, 59).tuples


def test_each_dp_state_bounds_its_own_totals(monkeypatch):
    # dihedral:1000's degree-2 total is bounded per state, not over one range
    # fixed per residue whose values are almost all pruned (about 400 per residue)
    calls = 0
    cost = minimize._cost

    def counted(total, c):
        nonlocal calls
        calls += 1
        return cost(total, c)

    monkeypatch.setattr(minimize, "_cost", counted)
    profile = make_profile("dihedral:1000")
    a = profile.order
    assert max(minimize._solve(profile.groups, a, r, counts=False)[2] for r in range(a)) == 0
    assert calls <= 50 * a


@settings(max_examples=60, deadline=None)
@given(ones=st.integers(min_value=1, max_value=12), twos=st.integers(min_value=0, max_value=12))
def test_bound_needs_no_search_when_every_degree_is_at_most_two(ones, twos):
    # the exchange argument in stability_bound's docstring, against the searched b
    profile = custom_profile((1,) * ones + (2,) * twos)
    a = profile.order
    searched = max(minimize._solve(profile.groups, a, r, counts=False)[2] for r in range(a))
    assert stability_bound(profile) == (searched, searched * a) == (0, 0)


def _b_of(tuples, degrees):
    """Least b >= 0 with b*d_i + t_i >= 0 for every listed tuple t."""
    return max([0] + [math.ceil(-e / d) for t in tuples for e, d in zip(t, degrees)])


@settings(max_examples=150, deadline=None)
@given(
    extra=st.lists(st.integers(min_value=1, max_value=6), max_size=6),
    ones=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_grouped_dp_equals_naive_box_on_random_profiles(extra, ones, data):
    degrees = (1,) * ones + tuple(sorted(extra))
    profile = custom_profile(degrees)
    # the naive box [-r, r]^s stays at most 10^5 points
    r_max = min(profile.order - 1, max(r for r in range(30) if (2 * r + 1) ** profile.s <= 10**5))
    r = data.draw(st.integers(min_value=0, max_value=r_max), label="r")
    naive, rep = minimal_tuples_naive(profile, r), minimal_tuples(profile, r)
    assert (rep.s, rep.eps, rep.m) == (naive.s, naive.eps, len(naive.tuples))
    assert rep.tuples == naive.tuples
    assert rep.sample == naive.tuples[0]
    assert rep.b == naive.b == _b_of(naive.tuples, degrees)


@settings(max_examples=150, deadline=None)
@given(
    extra=st.lists(st.integers(min_value=1, max_value=7), max_size=4),
    ones=st.integers(min_value=1, max_value=4),
)
def test_count_free_bound_equals_full_reports_and_box(extra, ones):
    profile = custom_profile((1,) * ones + tuple(extra))
    b = stability_bound(profile).b
    assert b == max(minimal_tuples(profile, r).b for r in range(profile.order))
    # the naive box [-r, r]^s of every residue, at most 2*10^5 points in all
    residues = range(profile.order)
    if sum((2 * r + 1) ** profile.s for r in residues) <= 2 * 10**5:
        assert b == max(minimal_tuples_naive(profile, r).b for r in residues)


@pytest.mark.parametrize(
    "degrees", [(1, 4, 5), (1, 3, 5), (1, 2, 2, 3, 6), (1, 11, 12), (1, 10, 17), (1, 11, 24)]
)
def test_grouped_dp_equals_naive_box_with_negative_entries(degrees):
    # tied optima with different b, and entries below -1 on coordinates of degree > 1
    profile = custom_profile(degrees)
    residues = [r for r in range(profile.order) if (2 * r + 1) ** profile.s <= 10**5]
    for r in residues:
        naive, rep = minimal_tuples_naive(profile, r), minimal_tuples(profile, r)
        assert rep == naive and rep.tuples == naive.tuples, r
        assert rep.b == _b_of(naive.tuples, degrees), r
    assert max(minimal_tuples(profile, r).b for r in residues) >= 1


@pytest.mark.parametrize("text", ["cyclic:97", "cyclic:300", "abelian:6x20"])
def test_abelian_closed_form_at_large_order(text):
    profile = make_profile(text)
    a = profile.order
    for r in range(a):
        rep = minimal_tuples(profile, r)
        assert (rep.m, rep.s, rep.b) == (math.comb(a, r), r, 0), r
        assert rep.sample == (0,) * (a - r) + (1,) * r
    assert stability_bound(profile).n_threshold == 0


@pytest.mark.parametrize("m", [41, 61, 101])
def test_odd_dihedral_closed_form_at_large_order(m):
    # criterion 8's closed forms, l = (m-1)/2 degree-2 coordinates, r = 2k + odd
    profile = make_profile(f"dihedral:{m}")
    l = (m - 1) // 2
    for r in range(2 * m):
        k, odd = divmod(r, 2)
        if 2 * k > l:
            continue
        rep = minimal_tuples(profile, r)
        assert rep.m == (2 if odd else 1) * math.comb(l, k), r
        assert rep.s == k + odd, r


_HUGE_SAMPLE_PROBE = """
from math import comb
from glhom import minimal_tuples, parse_group_spec, profile_of
rep = minimal_tuples(profile_of(parse_group_spec("cyclic:100000000")), 5)
print(rep.s, rep.m == comb(10**8, 5))
"""


def test_sample_is_built_only_when_read():
    # the report keeps the lex-first vector of group totals, here (5,), and expands it into
    # the 10^8-entry sample only when that is read, which would pass the guard
    result, wall = run_guarded("-c", _HUGE_SAMPLE_PROBE)
    assert (result.returncode, result.stdout, result.stderr) == (0, "5 True\n", "")
    assert wall < 5.0
    # built once, on the first read, and equal to a report given the tuple itself
    rep = minimal_tuples(make_profile("dihedral:9"), 3)
    assert rep.sample == (0, 1, 0, 0, 0, 1)
    assert rep.sample is rep.sample
    assert rep == minimal_tuples_naive(make_profile("dihedral:9"), 3)


def test_tuples_listing_is_capped():
    profile = make_profile("cyclic:40")
    start = time.perf_counter()
    rep = minimal_tuples(profile, 20)
    assert rep.m == math.comb(40, 20) == 137846528820
    assert rep.sample == (0,) * 20 + (1,) * 20
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ResourceLimit, match=f"137846528820 .* cap {MAX_LISTED_TUPLES}"):
        rep.tuples
    with pytest.raises(ResourceLimit, match="137846528820"):
        minimal_tuples(profile, 60).tuples
    assert minimal_tuples(profile, 60).m == 137846528820
    # just under the cap the listing is built, sorted and complete
    rep = minimal_tuples(make_profile("cyclic:17"), 8)
    assert rep.m == math.comb(17, 8) <= MAX_LISTED_TUPLES
    assert len(set(rep.tuples)) == rep.m and list(rep.tuples) == sorted(rep.tuples)


def test_binomial_of_a_count_is_capped_before_it_is_built(monkeypatch):
    # log2 C(c, rho) <= min(rho, c - rho) * bit_length(c): 5 * 11 bits for C(1500, 5)
    profile = make_profile("cyclic:1500")
    monkeypatch.setattr(minimize, "MAX_COUNT_BITS", 55)
    for r in (5, 1495):
        assert minimize.minimal_tuples(profile, r).m == math.comb(1500, 5)
    monkeypatch.setattr(minimize, "MAX_COUNT_BITS", 54)
    for r in (5, 1495):
        message = rf"weight {r} needs C\(1500, {r}\), up to 55 bits, .* cap of 54 bits"
        with pytest.raises(ResourceLimit, match=message):
            minimize.minimal_tuples(profile, r)
    # the count-free search, behind the stability bound, builds no binomial
    assert minimize._solve(profile.groups, 1500, 5, counts=False)[2] == 0


def test_all_eligible_is_k_at_least_b_r(s5):
    for n in range(0, 3 * s5.order, 7):
        k, r = divmod(n, s5.order)
        rep = minimal_tuples(s5, r)
        lifted = [tuple(k * d + e for e, d in zip(t, s5.degrees)) for t in rep.tuples]
        assert (k >= rep.b) == all(min(t) >= 0 for t in lifted), n


def test_invariant_violations_are_raised(s4, c2, monkeypatch):
    # a listing whose count or first tuple disagrees with m or the sample
    def report(b, *listed):
        return MinimalReport(4, 2, Fraction(4, 3), 2, (0, 0, 1, 1, 0), b, lambda: listed)

    assert report(0, (0, 1, 0, 0, 1), (0, 0, 1, 1, 0)).tuples == ((0, 0, 1, 1, 0), (0, 1, 0, 0, 1))
    for listed in [[(0, 0, 1, 1, 0)], [(0, 1, 0, 0, 1), (1, 0, 0, 1, 0)]]:
        with pytest.raises(InvariantViolation, match="^listed .* tuples from"):
            report(0, *listed).tuples
    # a report whose b puts N = b*a past a(a-1)
    assert stability_bound(s4, [report(s4.order - 1)]).n_threshold == 552
    with pytest.raises(InvariantViolation, match=r"^stability bound N=576 exceeds a\(a-1\)=552$"):
        stability_bound(s4, [report(s4.order)])
    # a search whose minimum exceeds n^2
    monkeypatch.setattr(minimize, "_solve", lambda groups, order, w, **_: (w * w + 1, 1, 0, {}))
    with pytest.raises(InvariantViolation, match="^leading exponent -1 is negative$"):
        leading_term(c2, 5)
