"""Acceptance gate: one test per shipped guarantee, at stated tolerances.

Every expected number here was either taken from the published reference
table for S4/S5/abelian/dihedral families or recomputed independently
(brute-force matrix enumeration, naive box search, hand expansion); no
expected value is copied from the code paths under test.

Note on ``test_criterion_07f_orbit_positivity_as_stated``: that check
asserts a claimed invariant which is mathematically false (see the
counterexample in the test body), so it fails by design and is kept as a
faithful record of the defective claim.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from glhom import (
    hom_count_bruteforce,
    hom_count_poly,
    builtin_presentation,
    leading_term,
    minimal_tuples,
    parse_group_spec,
    stability_bound,
)
from conftest import SEED, make_profile
from naive_box import minimal_tuples_naive
from orbit_sum import div_exact, eligible_tuples, gl_order, mul, orbit_poly

# Reference table for S4 (order 24, degrees 1,1,2,3,3): r -> (m_r, sample
# tuple as printed, S_r, eps_r).  The printed sample for r=2 is a typo in
# the source table: its weight is 1, not 2 (the row's own S_r and eps_r
# force (0,0,1,0,0)); the membership check below verifies precisely that.
S4_TABLE = {
    0: (1, (0, 0, 0, 0, 0), 0, Fraction(0)),
    1: (2, (1, 0, 0, 0, 0), 1, Fraction(23, 24)),
    2: (1, (0, 1, 0, 0, 0), 1, Fraction(5, 6)),
    3: (2, (0, 0, 0, 1, 0), 1, Fraction(5, 8)),
    4: (4, (1, 0, 0, 1, 0), 2, Fraction(4, 3)),
    5: (2, (0, 0, 1, 1, 0), 2, Fraction(23, 24)),
    6: (1, (0, 0, 0, 1, 1), 2, Fraction(1, 2)),
    7: (2, (1, 0, 0, 1, 1), 3, Fraction(23, 24)),
    8: (1, (0, 0, 1, 1, 1), 3, Fraction(1, 3)),
    9: (2, (1, 0, 1, 1, 1), 4, Fraction(5, 8)),
    10: (1, (1, 1, 1, 1, 1), 5, Fraction(5, 6)),
    11: (2, (0, 0, 1, 2, 1), 6, Fraction(23, 24)),
    12: (4, (1, 0, 1, 2, 1), 7, Fraction(1)),
    13: (2, (1, 1, 1, 2, 1), 8, Fraction(23, 24)),
    14: (1, (0, 0, 1, 2, 2), 9, Fraction(5, 6)),
    15: (2, (1, 0, 1, 2, 2), 10, Fraction(5, 8)),
    16: (1, (1, 1, 1, 2, 2), 11, Fraction(1, 3)),
    17: (2, (1, 0, 2, 2, 2), 13, Fraction(23, 24)),
    18: (1, (1, 1, 2, 2, 2), 14, Fraction(1, 2)),
    19: (2, (1, 1, 1, 3, 2), 16, Fraction(23, 24)),
    20: (4, (1, 0, 2, 3, 2), 18, Fraction(4, 3)),
    21: (2, (1, 1, 2, 3, 2), 19, Fraction(5, 8)),
    22: (1, (1, 1, 1, 3, 3), 21, Fraction(5, 6)),
    23: (2, (1, 0, 2, 3, 3), 23, Fraction(23, 24)),
}


def test_criterion_01_s4_table(s4):
    start = time.monotonic()
    for r, (m, sample, s, eps) in S4_TABLE.items():
        rep = minimal_tuples(s4, r)
        assert rep.m == m, f"r={r}: m_r={rep.m} != {m}"
        assert rep.s == s, f"r={r}: S_r={rep.s} != {s}"
        assert rep.eps == eps, f"r={r}: eps={rep.eps} != {eps}"
        weight = sum(e * d for e, d in zip(sample, s4.degrees))
        if weight == r:
            assert sample in rep.tuples, f"r={r}: printed sample not in computed set"
        else:
            # the r=2 printed sample is inadmissible for its own row
            assert r == 2 and weight == 1
            assert rep.tuples == ((0, 0, 1, 0, 0),)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"S4 table took {elapsed:.1f}s"
    print(f"criterion 1 (S4 table, 24 rows): PASS in {elapsed:.2f}s")


def _abelian_specs_up_to(max_order):
    """All invariant-factor lists (non-decreasing, each >= 2) with product <= max_order."""
    out = [["1"]]

    def rec(factors, product, minimum):
        if factors:
            out.append([str(f) for f in factors])
        f = minimum
        while product * f <= max_order:
            rec(factors + [f], product * f, f)
            f += 1

    rec([], 1, 2)
    return ["abelian:" + "x".join(parts) for parts in out]


def test_criterion_02_stability_bounds(s4, s5):
    start = time.monotonic()
    assert stability_bound(s4).n_threshold == 0
    b5 = stability_bound(s5)
    assert b5.b == 1 and b5.n_threshold == 120
    for m in range(1, 13):
        assert stability_bound(make_profile(f"cyclic:{m}")).n_threshold == 0
    specs = _abelian_specs_up_to(12)
    assert len(specs) > 12
    for text in specs:
        profile = make_profile(text)
        assert profile.order <= 12
        assert stability_bound(profile).n_threshold == 0, text
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"stability bounds took {elapsed:.1f}s"
    print(f"criterion 2 (stability bounds): PASS in {elapsed:.2f}s")


def test_criterion_03_s5_spot_checks(s5):
    rep = minimal_tuples(s5, 3)
    assert rep.m == 4
    assert (0, -1, 1, 0, 0, 0, 0) in rep.tuples
    has_negative = any(
        min(t) < 0
        for r in range(s5.order)
        for t in minimal_tuples(s5, r).tuples
    )
    assert has_negative, "no residue with a negative minimal-tuple entry"
    assert stability_bound(s5).b >= 1
    print("criterion 3 (S5 spot checks): PASS")


def test_criterion_04_abelian_closed_form():
    for a in (2, 3, 4, 6):
        profile = make_profile(f"cyclic:{a}")
        for r in range(a):
            rep = minimal_tuples(profile, r)
            assert rep.m == math.comb(a, r), (a, r)
            assert rep.eps == Fraction(r) - Fraction(r * r, a), (a, r)
            assert rep.s == r
    print("criterion 4 (abelian closed form): PASS")


ORACLE_MATRIX = (
    ("cyclic:2", (1, 2, 3), (3, 5)),
    ("cyclic:3", (1, 2), (7, 13)),
    ("cyclic:4", (1, 2), (5, 13)),
    ("dihedral:3", (1, 2), (5, 7)),
    ("sym:4", (1,), (5,)),
)


def test_criterion_05_oracle_equality_matrix():
    start = time.monotonic()
    anchor_checked = False
    for text, dims, fields in ORACLE_MATRIX:
        spec = parse_group_spec(text)
        profile = make_profile(text)
        presentation = builtin_presentation(spec)
        assert presentation is not None
        for n in dims:
            poly = hom_count_poly(profile, n)
            for q in fields:
                expected = poly.evaluate(q)
                actual = hom_count_bruteforce(presentation, n, q)
                assert actual == expected, (text, n, q, actual, expected)
                if (text, n, q) == ("cyclic:2", 2, 3):
                    assert actual == 14
                    anchor_checked = True
    assert anchor_checked
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"oracle matrix took {elapsed:.1f}s"
    print(f"criterion 5 (oracle equality matrix): PASS in {elapsed:.1f}s")


def test_criterion_06_leading_term_law(s4):
    start = time.monotonic()
    for n in range(1, 31):
        f = hom_count_poly(s4, n)
        lt = leading_term(s4, n)
        assert f.degree == lt.exponent, n
        assert f.leading_coefficient == lt.coefficient, n
    for text in ("cyclic:2", "cyclic:3"):
        profile = make_profile(text)
        for n in range(1, 21):
            f = hom_count_poly(profile, n)
            lt = leading_term(profile, n)
            assert f.degree == lt.exponent, (text, n)
            assert f.leading_coefficient == lt.coefficient, (text, n)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"leading-term law took {elapsed:.1f}s"
    print(f"criterion 6 (leading-term law): PASS in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 7: property suites, each over >= 200 randomized cases drawn from
# the pool of all degree profiles with order <= 24, plus the built-ins.


def _builtin_profiles():
    texts = (
        "cyclic:1",
        "cyclic:2",
        "cyclic:4",
        "cyclic:6",
        "abelian:2x2",
        "abelian:2x4",
        "dihedral:3",
        "dihedral:4",
        "dihedral:5",
        "dihedral:6",
        "dihedral:7",
        "sym:4",
        "sym:5",
    )
    return [make_profile(t) for t in texts]


def _sample_cases(rng, pool, count, max_r=None):
    cases = []
    while len(cases) < count:
        profile = rng.choice(pool)
        r = rng.randrange(profile.order)
        if max_r is not None and r > max_r:
            continue
        cases.append((profile, r))
    return cases


def test_criterion_07a_epsilon_sign(profile_pool):
    rng = random.Random(SEED + 1)
    cases = _sample_cases(rng, profile_pool, 250)
    for profile in _builtin_profiles():
        cases.extend((profile, r) for r in range(profile.order))
    for profile, r in cases:
        rep = minimal_tuples(profile, r)
        if r == 0:
            assert rep.eps == 0
        else:
            assert rep.eps > 0, (profile.degrees, r)
    print(f"criterion 7a (eps >= 0, zero iff r=0): PASS over {len(cases)} cases")


def test_criterion_07b_duality(profile_pool):
    rng = random.Random(SEED + 2)
    cases = _sample_cases(rng, profile_pool, 220)
    for profile in _builtin_profiles():
        if profile.order <= 24:
            cases.extend((profile, r) for r in range(profile.order))
    s5 = make_profile("sym:5")
    cases.extend((s5, r) for r in range(s5.order))
    checked = 0
    for profile, r in cases:
        if r == 0:
            continue
        a = profile.order
        rep = minimal_tuples(profile, r)
        dual = minimal_tuples(profile, a - r)
        assert rep.m == dual.m, (profile.degrees, r)
        assert rep.eps == dual.eps, (profile.degrees, r)
        # the involution r_i -> d_i - r_i realises the bijection
        image = sorted(
            tuple(d - e for e, d in zip(t, profile.degrees)) for t in rep.tuples
        )
        assert tuple(image) == dual.tuples, (profile.degrees, r)
        checked += 1
    assert checked >= 200
    print(f"criterion 7b (duality r <-> a-r): PASS over {checked} cases")


def test_criterion_07c_search_equals_naive_box(profile_pool, s4, s5, d3):
    rng = random.Random(SEED + 3)
    cases = []
    attempts = 0
    while len(cases) < 200 and attempts < 100000:
        attempts += 1
        profile = rng.choice(profile_pool)
        r = rng.randrange(profile.order)
        if (2 * r + 1) ** profile.s <= 10**5:
            cases.append((profile, r))
    big = 0
    attempts = 0
    while big < 12 and attempts < 100000:
        attempts += 1
        profile = rng.choice(profile_pool)
        r = rng.randrange(profile.order)
        if 10**5 < (2 * r + 1) ** profile.s <= 3 * 10**6:
            cases.append((profile, r))
            big += 1
    cases.extend((d3, r) for r in range(6))
    cases.extend((s4, r) for r in range(9))
    cases.extend((s5, r) for r in range(4))  # includes the negative-entry residue 3
    for profile, r in cases:
        naive, searched = minimal_tuples_naive(profile, r), minimal_tuples(profile, r)
        # == compares S_r, eps_r, m_r, the sample and b; the listing is compared apart
        assert naive == searched, (profile.degrees, r)
        assert naive.tuples == searched.tuples, (profile.degrees, r)
    print(f"criterion 7c (grouped DP == naive box): PASS over {len(cases)} cases")


def test_criterion_07d_lifting_correspondence(profile_pool):
    rng = random.Random(SEED + 4)
    checked = 0
    while checked < 210:
        profile = rng.choice(profile_pool)
        n = rng.randrange(41)
        rep = minimal_tuples(profile, n)
        k, r = divmod(n, profile.order)
        base = minimal_tuples(profile, r)
        lifted = tuple(tuple(k * d + e for e, d in zip(t, profile.degrees)) for t in base.tuples)
        assert lifted == rep.tuples, (profile.degrees, n)
        square_sum = k * k * profile.order + 2 * k * r + base.s
        assert square_sum == rep.s, (profile.degrees, n)
        checked += 1
    print(f"criterion 7d (lifting correspondence): PASS over {checked} cases")


def test_criterion_07e_unique_minimal_at_multiples(profile_pool):
    rng = random.Random(SEED + 5)
    checked = 0
    while checked < 200:
        profile = rng.choice(profile_pool)
        k = rng.randint(1, max(1, 40 // profile.order))
        n = k * profile.order
        if n > 48:
            continue
        multiple = minimal_tuples(profile, n)
        assert multiple.tuples == (tuple(k * d for d in profile.degrees),), (profile.degrees, k)
        rep = minimal_tuples(profile, 0)
        assert k >= rep.b and rep.m == 1
        checked += 1
    print(f"criterion 7e (unique minimal tuple at multiples of a): PASS over {checked} cases")


def test_criterion_07f_orbit_division_exact(profile_pool):
    rng = random.Random(SEED + 6)
    checked = 0
    while checked < 200:
        profile = rng.choice(profile_pool)
        n = rng.randrange(9)
        tuples = eligible_tuples(profile, n)
        t = rng.choice(tuples)
        den = [1]
        for e in t:
            den = mul(den, gl_order(e))
        quot = div_exact(gl_order(n), den)  # raises on nonzero remainder
        assert mul(quot, den) == list(gl_order(n))
        assert tuple(quot) == orbit_poly(profile, t).coefficients
        checked += 1
    print(f"criterion 7f (orbit division exact): PASS over {checked} cases")


def test_criterion_07f_orbit_positivity_as_stated(profile_pool):
    """Claimed invariant: every orbit polynomial has non-negative coefficients.

    This is FALSE whenever a profile has a degree-d coordinate with d > 1:
    the weight-d tuple concentrated on that coordinate has stabilizer
    GL_1, so its orbit polynomial is |GL_d(q)|/(q-1), e.g. d=2 gives
    q^3 - q, whose q-coefficient is -1.  The brute-force oracle confirms
    those orbit sizes (q^3 - q = 120 at q=5 appears inside the verified
    dihedral:3 / sym:4 counts), so the computed polynomials are right and
    the claimed invariant itself is wrong.  Kept, and failing, as stated.
    """
    rng = random.Random(SEED + 7)
    violations = []
    profiles = _builtin_profiles() + [p for p in profile_pool if rng.random() < 0.2]
    checked = 0
    for profile in profiles:
        for n in range(0, 7):
            for t in eligible_tuples(profile, n):
                checked += 1
                poly = orbit_poly(profile, t)
                if any(c < 0 for c in poly.coefficients):
                    violations.append((profile.degrees, t, poly.to_text()))
    assert checked >= 200
    assert not violations, (
        f"{len(violations)} orbit polynomials have negative coefficients, "
        f"first: {violations[0]}"
    )
    print(f"criterion 7f-positivity: PASS over {checked} orbits")


def test_criterion_07g_degree_window(profile_pool):
    rng = random.Random(SEED + 8)
    checked = 0
    while checked < 200:
        profile = rng.choice(profile_pool)
        a = profile.order
        n = rng.randrange(11)
        f = hom_count_poly(profile, n)
        r = n % a
        lower = Fraction((n * n - r * r) * (a - 1), a)
        upper = Fraction(n * n * (a - 1), a)
        assert lower <= f.degree <= upper, (profile.degrees, n)
        checked += 1
    print(f"criterion 7g (degree window): PASS over {checked} cases")


def test_criterion_08_dihedral_formulas_and_their_range(d3):
    # ground truth from the search (confirmed by the naive box oracle in 7c):
    # dihedral:3 at r=4 has the unique minimal tuple (1,1,1)
    rep = minimal_tuples(d3, 4)
    assert rep.m == 1
    assert rep.s == 3
    assert rep.eps == Fraction(1, 3)
    # ... which contradicts the even-r closed form S_r = r/2 there:
    assert rep.s != 4 // 2

    # the closed forms do hold in the low range, with the binomial taken
    # over the number of degree-2 coordinates l = (m-1)/2
    for m in (3, 5, 7):
        profile = make_profile(f"dihedral:{m}")
        a = 2 * m
        l = (m - 1) // 2
        for r in range(a):
            k, odd = divmod(r, 2)
            if 2 * k > l:
                continue
            rep = minimal_tuples(profile, r)
            if odd:
                assert rep.m == 2 * math.comb(l, k), (m, r)
                assert rep.s == k + 1, (m, r)
                assert rep.eps == Fraction(r + 1, 2) - Fraction(r * r, a)
            else:
                assert rep.m == math.comb(l, k), (m, r)
                assert rep.s == k, (m, r)
                assert rep.eps == Fraction(r, 2) - Fraction(r * r, a)
    print("criterion 8 (dihedral closed-form range): PASS")
