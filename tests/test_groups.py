import random

import pytest

from crepant.errors import GroupParseError, GroupValidationError
from crepant.groups import (
    Character,
    group_elements_scaled,
    invariant_lattice_basis,
    parse_group,
)
from crepant.intlin import det3, dot
from solve_reference import in_basis


def test_parse_single_factor():
    g = parse_group("1/11(1,2,8)")
    assert g.r == 11
    assert g.factors == ((11, (1, 2, 8)),)


def test_parse_trivial_sl2_like():
    g = parse_group("1/2(1,0,1)")
    assert g.r == 2
    assert g.factors == ((2, (1, 0, 1)),)


def test_parse_product():
    g = parse_group("1/6(1,1,4)+1/2(1,0,1)")
    assert g.r == 12
    assert len(g.factors) == 2


def test_parse_whitespace_insensitive():
    a = parse_group(" 1/6(1,1,4) + 1/2(1,0,1) ")
    b = parse_group("1/6(1,1,4)+1/2(1,0,1)")
    assert a == b


def test_parse_errors():
    with pytest.raises(GroupParseError):
        parse_group("junk")
    with pytest.raises(GroupParseError):
        parse_group("")
    with pytest.raises(GroupValidationError):
        parse_group("1/0(1,1,1)")
    with pytest.raises(GroupValidationError):
        parse_group("1/5(1,1,1)")  # 3 != 0 mod 5
    with pytest.raises(GroupValidationError):
        # order-2 subgroup entered twice: action not faithful for order 4
        parse_group("1/2(1,0,1)+1/2(1,0,1)")


def test_weight_examples():
    g = parse_group("1/11(1,2,8)")
    assert g.weight((1, 0, 0)) == Character((1,))
    assert g.weight((0, 1, 0)) == Character((2,))
    assert g.weight((0, 0, 1)) == Character((8,))
    # xyz is invariant for every SL(3) group
    assert g.weight((1, 1, 1)) == g.trivial
    g2 = parse_group("1/6(1,2,3)")
    assert g2.weight((0, 2, 0)) == Character((4,))


def test_weight_is_homomorphism():
    rng = random.Random(7)
    for spec in ["1/11(1,2,8)", "1/6(1,2,3)", "1/6(1,1,4)+1/2(1,0,1)"]:
        g = parse_group(spec)
        for _ in range(200):
            e1 = tuple(rng.randrange(-9, 10) for _ in range(3))
            e2 = tuple(rng.randrange(-9, 10) for _ in range(3))
            s = tuple(a + b for a, b in zip(e1, e2))
            assert g.weight(s) == g.char_add(g.weight(e1), g.weight(e2))


def test_character_count_equals_group_order():
    for spec in ["1/2(1,0,1)", "1/3(1,1,1)", "1/6(1,2,3)", "1/6(1,1,4)+1/2(1,0,1)"]:
        g = parse_group(spec)
        assert len(g.characters) == g.r
        assert len(set(group_elements_scaled(g))) == g.r


@pytest.mark.parametrize(
    "spec,index",
    [("1/2(1,0,1)", 2), ("1/11(1,2,8)", 11), ("1/6(1,1,4)+1/2(1,0,1)", 12)],
)
def test_invariant_lattice_index(spec, index):
    g = parse_group(spec)
    basis = invariant_lattice_basis(g)
    assert abs(det3(*basis)) == index
    for b in basis:
        assert g.weight(b) == g.trivial
    # (1,1,1) lies in the spanned lattice: its coordinates are integral
    in_basis(basis, (1, 1, 1))


def test_invariant_lattice_pairs_integrally_with_group_points():
    for spec in ["1/11(1,2,8)", "1/6(1,2,3)", "1/6(1,1,4)+1/2(1,0,1)"]:
        g = parse_group(spec)
        basis = invariant_lattice_basis(g)
        for v in group_elements_scaled(g):
            for m in basis:
                assert dot(m, v) % g.r == 0


def test_junior_points_1_11_1_2_8():
    g = parse_group("1/11(1,2,8)")
    pts = g.junior_points
    interior = [p for p in pts if p.kind == "interior"]
    assert len(interior) == 5
    assert {p.c for p in interior} == {
        (1, 2, 8),
        (2, 4, 5),
        (3, 6, 2),
        (6, 1, 4),
        (7, 3, 1),
    }


def test_junior_points_1_3_1_1_1():
    g = parse_group("1/3(1,1,1)")
    pts = g.junior_points
    interior = [p for p in pts if p.kind == "interior"]
    assert [p.c for p in interior] == [(1, 1, 1)]


def test_junior_points_1_2_1_0_1():
    g = parse_group("1/2(1,0,1)")
    pts = g.junior_points
    noncorner = [p for p in pts if p.kind != "corner"]
    assert len(noncorner) == 1
    assert noncorner[0].c == (1, 0, 1)
    assert noncorner[0].kind == "edge"


def test_every_junior_point_has_age_one():
    for spec in ["1/11(1,2,8)", "1/6(1,2,3)", "1/6(1,1,4)+1/2(1,0,1)"]:
        g = parse_group(spec)
        for p in g.junior_points:
            assert sum(p.c) == g.r
            assert all(x >= 0 for x in p.c)
