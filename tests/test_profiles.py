"""Group-spec parsing, degree profiles, and splitting-field checks."""

from __future__ import annotations

import copy
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from glhom import (
    DegreeProfile,
    GroupSpec,
    LeadingTerm,
    MinimalReport,
    ParseError,
    Presentation,
    StabilityBound,
    UnsupportedFamily,
    ValidationError,
    builtin_presentation,
    hom_count_bruteforce,
    hom_count_poly,
    parse_group_spec,
    profile_of,
    splitting_field_check,
)
from glhom.profiles import PSI_13, prime_base


def test_parse_cyclic():
    spec = parse_group_spec("cyclic:4")
    assert spec.family == "cyclic" and spec.m == 4


def test_parse_sym():
    spec = parse_group_spec("sym:4")
    assert spec.family == "sym" and spec.m == 4


def test_parse_custom():
    spec = parse_group_spec("custom:order=24,degrees=1,1,2,3,3")
    assert spec.family == "custom"
    assert spec.order == 24
    assert spec.degrees == (1, 1, 2, 3, 3)


def test_parse_abelian():
    spec = parse_group_spec("abelian:2x4")
    assert spec.invariant_factors == (2, 4)
    assert parse_group_spec("abelian:6").invariant_factors == (6,)


def test_parse_dihedral():
    assert parse_group_spec("dihedral:5").m == 5


@pytest.mark.parametrize(
    "text, message, position",
    [
        pytest.param(text, message, position, id=text)
        for text, message, position in [
            ("cyclic", "expected ':' after family name", 6),  # no colon
            ("cyclic:", "expected integer", 7),
            ("cyclic:x", "expected integer", 7),
            ("cyclic:4x", "trailing characters after group spec", 8),
            ("cyclic: 4", "expected integer", 7),  # whitespace is not permitted
            ("abelian:2x", "expected integer", 10),
            ("abelian:2y3", "expected 'x'", 9),
            ("custom:order=24", "expected ',degrees='", 15),
            ("custom:order=24,degrees=", "expected integer", 24),
            ("custom:order=24,degrees=1,", "expected integer", 26),
            ("custom:degrees=1,order=4", "expected 'order='", 7),
        ]
    ],
)
def test_parse_rejects_malformed(text, message, position):
    with pytest.raises(ParseError) as exc:
        parse_group_spec(text)
    assert (str(exc.value), exc.value.position) == (f"{message} (at position {position})", position)


def test_unknown_family():
    with pytest.raises(UnsupportedFamily) as exc:
        parse_group_spec("frobenius:3")
    assert exc.value.position == 0
    assert str(exc.value) == "unknown group family 'frobenius' (at position 0)"


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(text, message, id=text)
        for text, message in [
            ("sym:6", "sym supports only sym:4 and sym:5"),
            ("sym:3", "sym supports only sym:4 and sym:5"),
            ("dihedral:2", "dihedral modulus must be >= 3"),
            ("cyclic:0", "cyclic modulus must be >= 1"),
            ("abelian:2x0", "abelian invariant factors must be >= 1"),
        ]
    ],
)
def test_parse_rejects_bad_parameters(text, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        parse_group_spec(text)


_VALID_SPECS = st.one_of(
    st.integers(min_value=1).map(lambda m: GroupSpec("cyclic", m)),
    st.integers(min_value=3).map(lambda m: GroupSpec("dihedral", m)),
    st.sampled_from([4, 5]).map(lambda m: GroupSpec("sym", m)),
    st.lists(st.integers(min_value=1), min_size=1).map(
        lambda factors: GroupSpec("abelian", invariant_factors=tuple(factors))
    ),
    st.tuples(st.integers(min_value=0), st.lists(st.integers(min_value=0), min_size=1)).map(
        lambda drawn: GroupSpec("custom", order=drawn[0], degrees=tuple(drawn[1]))
    ),
)


@settings(max_examples=300, deadline=None)
@given(_VALID_SPECS)
def test_parse_round_trips_every_family(spec):
    # custom degrees come back in the order they are written, unsorted
    assert parse_group_spec(str(spec)) == spec


def test_profile_cyclic4():
    p = profile_of(parse_group_spec("cyclic:4"))
    assert p.order == 4 and p.degrees == (1, 1, 1, 1)


def test_profile_dihedral_odd():
    p = profile_of(parse_group_spec("dihedral:5"))
    assert p.order == 10 and p.degrees == (1, 1, 2, 2)


def test_profile_dihedral_even():
    p = profile_of(parse_group_spec("dihedral:6"))
    assert p.order == 12 and p.degrees == (1, 1, 1, 1, 2, 2)


def test_profile_sym():
    assert profile_of(parse_group_spec("sym:4")).degrees == (1, 1, 2, 3, 3)
    p5 = profile_of(parse_group_spec("sym:5"))
    assert p5.order == 120 and p5.degrees == (1, 1, 4, 4, 5, 5, 6)


def test_profile_abelian():
    p = profile_of(parse_group_spec("abelian:2x4"))
    assert p.order == 8 and p.degrees == (1,) * 8


def test_profile_custom_sorts_degrees():
    p = profile_of(parse_group_spec("custom:order=14,degrees=1,3,2"))
    assert p.degrees == (1, 2, 3)


def test_profile_custom_invalid():
    with pytest.raises(ValidationError):
        profile_of(parse_group_spec("custom:order=6,degrees=1,2"))
    with pytest.raises(ValidationError):
        profile_of(parse_group_spec("custom:order=4,degrees=2"))


def test_validate_profile():
    # construction validates, so an invalid profile cannot be built
    assert DegreeProfile(order=24, groups=((1, 2), (2, 1), (3, 2))).degrees == (1, 1, 2, 3, 3)
    with pytest.raises(ValidationError, match=r"^degree-square sum 5 != 6 \(group order\)$"):
        DegreeProfile(order=6, groups=((1, 1), (2, 1)))
    with pytest.raises(ValidationError, match="^d_1 != 1: the trivial representation must be"):
        DegreeProfile(order=4, groups=((2, 1),))
    with pytest.raises(ValidationError, match="^degrees must be sorted non-decreasing$"):
        DegreeProfile(order=5, groups=((2, 1), (1, 1)))
    with pytest.raises(ValidationError, match="^degree list is empty$"):
        DegreeProfile(order=0, groups=())
    with pytest.raises(ValidationError, match="^degrees must be positive integers$"):
        DegreeProfile(order=1, groups=((0, 1), (1, 1)))


def test_validate_profile_refuses_a_degree_in_two_groups_and_empty_groups():
    # one group per degree and c >= 1, so equal multisets have one representation
    with pytest.raises(ValidationError, match="^each degree must form one group$"):
        DegreeProfile(order=6, groups=((1, 1), (1, 1), (2, 1)))
    with pytest.raises(ValidationError, match="^multiplicities must be positive integers$"):
        DegreeProfile(order=1, groups=((1, 1), (2, 0)))


@settings(max_examples=100, deadline=None)
@given(
    extra=st.lists(st.integers(min_value=1, max_value=9), max_size=12),
    data=st.data(),
)
def test_profile_groups_are_canonical(extra, data):
    degrees = sorted([1, *extra])
    order = sum(d * d for d in degrees)
    first, second = (
        profile_of(parse_group_spec(f"custom:order={order},degrees=" + ",".join(map(str, w))))
        for w in (data.draw(st.permutations(degrees)), data.draw(st.permutations(degrees)))
    )
    distinct = [d for d, _ in first.groups]
    assert distinct == sorted(set(degrees)) and all(c >= 1 for _, c in first.groups)
    assert first.degrees == tuple(degrees) and first.s == len(degrees)
    # the label keeps the written order; the profile itself does not depend on it
    first, second = (DegreeProfile(p.order, p.groups) for p in (first, second))
    assert first == second and hash(first) == hash(second)


def test_splitting_cyclic():
    ok, _ = splitting_field_check(parse_group_spec("cyclic:2"), 3)
    assert ok
    ok, reason = splitting_field_check(parse_group_spec("cyclic:3"), 5)
    assert not ok and "mod 3" in reason
    ok, _ = splitting_field_check(parse_group_spec("cyclic:1"), 2)
    assert ok


def test_splitting_abelian_uses_exponent():
    spec = parse_group_spec("abelian:2x4")
    assert splitting_field_check(spec, 5)[0]  # 5 == 1 mod 4
    assert not splitting_field_check(spec, 7)[0]  # 7 - 1 not divisible by 4


def test_splitting_dihedral():
    d5 = parse_group_spec("dihedral:5")
    assert splitting_field_check(d5, 11) == (True, "q odd and q == 1 (mod 5)")
    assert splitting_field_check(d5, 16) == (False, "requires odd q")
    assert not splitting_field_check(d5, 7)[0]  # 7 != +-1 mod 5
    # and rightly so: brute force and the polynomial differ there
    assert hom_count_bruteforce(builtin_presentation(d5), 2, 7) == 58
    assert hom_count_poly(profile_of(d5), 2).evaluate(7) == 730
    # q == -1 (mod m) splits too: brute force equals the polynomial there
    for text, q in (
        ("dihedral:3", 5),
        ("dihedral:5", 19),
        ("dihedral:4", 3),
        ("dihedral:4", 7),
        ("dihedral:6", 5),
        ("dihedral:6", 11),
    ):
        spec = parse_group_spec(text)
        assert splitting_field_check(spec, q) == (True, f"q odd and q == -1 (mod {spec.m})")
        pres = builtin_presentation(spec)
        for n in (1, 2):
            assert hom_count_bruteforce(pres, n, q) == hom_count_poly(profile_of(spec), n).evaluate(q)


def test_splitting_sym():
    assert splitting_field_check(parse_group_spec("sym:4"), 5)[0]
    assert not splitting_field_check(parse_group_spec("sym:4"), 9)[0]  # p = 3
    assert not splitting_field_check(parse_group_spec("sym:4"), 2)[0]
    assert splitting_field_check(parse_group_spec("sym:5"), 7)[0]
    assert splitting_field_check(parse_group_spec("sym:5"), 49)[0]
    assert not splitting_field_check(parse_group_spec("sym:5"), 5)[0]
    assert not splitting_field_check(parse_group_spec("sym:5"), 25)[0]


def test_splitting_custom_is_caller_asserted():
    ok, reason = splitting_field_check(
        parse_group_spec("custom:order=24,degrees=1,1,2,3,3"), 5
    )
    assert ok and reason == "caller-asserted"


@pytest.mark.parametrize("q", [1, 0, 6, 12, 100])
def test_splitting_rejects_non_prime_powers(q):
    with pytest.raises(ValidationError):
        splitting_field_check(parse_group_spec("cyclic:2"), q)


@pytest.mark.parametrize(
    "text",
    [
        "cyclic:1",
        "cyclic:7",
        "abelian:2x2x3",
        "abelian:12",
        "dihedral:3",
        "dihedral:8",
        "sym:4",
        "sym:5",
        "custom:order=10,degrees=1,3",
    ],
)
def test_profile_of_parse_always_validates(text):
    profile = profile_of(parse_group_spec(text))
    # rebuilding from the fields runs the same checks as profile_of did
    assert DegreeProfile(profile.order, profile.groups, profile.label) == profile
    assert sum(d * d for d in profile.degrees) == profile.order
    # label round-trips through the parser
    assert profile_of(parse_group_spec(str(profile))) == profile


def test_family_degree_square_sums():
    for m in range(3, 20):
        p = profile_of(parse_group_spec(f"dihedral:{m}"))
        assert sum(d * d for d in p.degrees) == 2 * m
    for m in range(1, 20):
        p = profile_of(parse_group_spec(f"cyclic:{m}"))
        assert p.order == m


def _base_by_factoring(q: int) -> int | None:
    factors = sympy.factorint(q) if q > 1 else {}
    return next(iter(factors)) if len(factors) == 1 else None


# the least composites passing Miller-Rabin on every prime base up to 17, 31
# and 37 (psi_7, psi_9 and psi_12), then primes and prime powers up to the bound
_HARD = (
    341550071728321,
    3825123056546413051,
    318665857834031151167461,
    2**61 - 1,
    3**51,
    2**81,
    (2**31 - 1) ** 2,
    41**14,
    PSI_13 - 2,
)


def test_prime_base_matches_factoring():
    for q in [*range(-3, 3000), *_HARD]:
        assert prime_base(q) == _base_by_factoring(q), q


@settings(max_examples=300, deadline=None)
@given(
    base=st.integers(min_value=2, max_value=10**8),
    k=st.integers(min_value=1, max_value=3),
    odd=st.integers(min_value=0, max_value=PSI_13 // 2 - 1),
)
def test_prime_base_random(base, k, odd):
    for q in (base**k, 2 * odd + 1):
        assert prime_base(q) == _base_by_factoring(q), q


def test_prime_base_refuses_past_its_exact_range():
    with pytest.raises(ValidationError, match=f"q={PSI_13} is at least {PSI_13}"):
        prime_base(PSI_13)
    with pytest.raises(ValidationError, match="at least"):
        splitting_field_check(parse_group_spec("cyclic:2"), PSI_13 + 2)


_S4_GROUPS = ((1, 2), (2, 1), (3, 2))
_S4 = DegreeProfile(24, _S4_GROUPS, "sym:4")
_R4 = dict(w=4, s=2, eps=Fraction(4, 3), m=4, sample=(0, 1, 0, 0, 1), b=0, listing=tuple)


# each record's fields in constructor order, and its repr at the last dataclass version
@pytest.mark.parametrize(
    "cls, fields, text",
    [
        (DegreeProfile, dict(order=24, groups=_S4_GROUPS, label="sym:4"),
         "DegreeProfile(order=24, groups=((1, 2), (2, 1), (3, 2)), label='sym:4')"),
        (GroupSpec, dict(family="abelian", m=None, invariant_factors=(2, 3), order=None,
                         degrees=None),
         "GroupSpec(family='abelian', m=None, invariant_factors=(2, 3), order=None,"
         " degrees=None)"),
        (MinimalReport, _R4,
         "MinimalReport(w=4, s=2, eps=Fraction(4, 3), m=4, sample=(0, 1, 0, 0, 1), b=0)"),
        (StabilityBound, dict(b=1, n_threshold=120), "StabilityBound(b=1, n_threshold=120)"),
        (LeadingTerm, dict(coefficient=2, exponent=598, n=25, r=1),
         "LeadingTerm(coefficient=2, exponent=598, n=25, r=1)"),
        (Presentation, dict(generator_count=2, relators=((1, 1, 1), (2, 2)), label="x"),
         "Presentation(generator_count=2, relators=((1, 1, 1), (2, 2)), label='x')"),
    ],
    ids=lambda value: value.__name__ if isinstance(value, type) else "",
)
def test_records_keep_their_constructor_equality_and_repr(cls, fields, text):
    record, positional = cls(**fields), cls(*fields.values())
    assert record == positional and hash(record) == hash(positional)
    assert repr(record) == repr(positional) == text
    assert copy.copy(record) == record
    for name, value in fields.items():
        assert getattr(record, name) is value
        with pytest.raises(AttributeError):
            setattr(record, name, value)


def test_records_compare_the_fields_they_did_before():
    # MinimalReport ignores its listing
    report = MinimalReport(**_R4)
    assert report == MinimalReport(**{**_R4, "listing": list})
    assert hash(report) == hash(MinimalReport(**{**_R4, "listing": list}))
    assert report != MinimalReport(**{**_R4, "b": 1})
    assert _S4 != DegreeProfile(24, _S4_GROUPS) and _S4 != (24, _S4_GROUPS, "sym:4")
    with pytest.raises(ValidationError, match="degree-square sum 15 != 24"):
        DegreeProfile(24, ((1, 2), (2, 1), (3, 1)))
    with pytest.raises(ValidationError, match="relator letter 3 out of range"):
        Presentation(2, ((1, 3),))
