"""The benchmark's reference answers and its rendering of CLI stdout."""

import math
from fractions import Fraction
from itertools import product

import pytest

import cases
import reference as ref


@pytest.mark.parametrize("a", [1, 2, 5, 8, 12])
def test_abelian_rows_follow_the_closed_forms(a):
    for r in range(a):
        row = ref.residue_row((1,) * a, a, r)
        assert (row.m, row.s, row.b) == (math.comb(a, r), r, 0)
        assert row.sample == (0,) * (a - r) + (1,) * r
        assert row.eps == r - Fraction(r * r, a)


@pytest.mark.parametrize(
    "degrees",
    [(1, 1, 2), (1, 1, 1, 1, 2), (1, 1, 1, 3), (1, 1, 2, 3, 3), (1, 1, 1, 1, 4), (1, 1, 2, 2, 2)],
)
def test_residue_rows_match_box_enumeration(degrees):
    order = sum(d * d for d in degrees)
    for row in ref.residue_rows(degrees, order):
        # Every tuple with square sum S_r lies in the box |t_i| <= isqrt(S_r).
        box = range(-math.isqrt(row.s), math.isqrt(row.s) + 1)
        found = [t for t in product(box, repeat=len(degrees))
                 if sum(x * d for x, d in zip(t, degrees)) == row.r]
        best = min(sum(x * x for x in t) for t in found)
        optima = sorted(t for t in found if sum(x * x for x in t) == best)
        b = max([0] + [-(x // d) for t in optima for x, d in zip(t, degrees) if x < 0])
        assert (row.s, row.m, row.sample, row.b) == (best, len(optima), optima[0], b)


def test_count_poly_small_case_from_the_readme():
    assert ref.count_poly((1, 1), 2) == [2, 1, 1]  # q^2 + q + 2
    assert ref.evaluate([2, 1, 1], 3) == 14


@pytest.mark.parametrize(
    "spec, n, q",
    [("cyclic:2", 2, 3), ("cyclic:3", 2, 7), ("dihedral:3", 2, 7), ("dihedral:4", 2, 5),
     ("sym:4", 2, 5), ("cyclic:2", 3, 3)],
)
def test_bruteforce_count_equals_the_identity(spec, n, q):
    g = cases.group(spec)
    assert ref.hom_count_bruteforce(g.family, g.m, n, q) == ref.evaluate(ref.count_poly(g.degrees, n), q)


@pytest.mark.parametrize("spec, n", [("sym:4", 12), ("sym:5", 9), ("dihedral:7", 10), ("abelian:2x3", 6)])
def test_count_poly_agrees_with_the_program(spec, n):
    from glhom import hom_count_poly, parse_group_spec, profile_of

    g = cases.group(spec)
    expected = hom_count_poly(profile_of(parse_group_spec(spec)), n).coefficients
    assert tuple(ref.count_poly(g.degrees, n)) == expected


@pytest.mark.parametrize(
    "case",
    [
        cases.poly_case("cyclic:2", 2, [3, 5], as_json=False),
        cases.poly_case("sym:4", 6, [7, 2], as_json=True),
        cases.poly_case("dihedral:5", 7, [11, 2], as_json=False),
        cases.residue_case("table", "custom:order=12,degrees=3,1,1,1"),
        cases.residue_case("bound", "sym:5"),
        cases.residue_case("leading", "sym:5", 7),
        cases.residue_case("leading", "sym:4", 25),
        cases.residue_case("variety", "dihedral:4", 9),
        cases.verify_case("dihedral:3", 2, 7),
    ],
    ids=lambda case: case.label,
)
def test_rendered_stdout_matches_the_cli(case, capsys):
    import glhom.cli

    assert glhom.cli.main(list(case.argv)) == 0
    assert capsys.readouterr().out.encode() == case.stdout


def _work(case):
    """What a poly case costs: group, n, output format; not the --eval points."""
    return case.argv[:5], "--json" in case.argv, case.eligible_tuples


def test_seed_changes_order_and_points_but_not_the_work():
    a, b = cases.build("poly-deep", 1), cases.build("poly-deep", 2)
    assert [c.label for c in a] != [c.label for c in b]
    assert sorted(map(_work, a)) == sorted(map(_work, b))
    assert [c.label for c in cases.build("poly-deep", 1)] == [c.label for c in a]
