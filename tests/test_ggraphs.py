from fractions import Fraction
from itertools import product

import pytest

from crepant import ggraphs
from crepant.errors import UserError
from crepant.ggraphs import cone_of, ghilb_fan, least_monomials, socle
from crepant.groups import Character, parse_group
from crepant.intlin import det3, dot
from ggraph_reference import enumerate_ggraphs, reference_fan

GROUPS = ["1/2(1,0,1)", "1/3(1,1,1)", "1/6(1,2,3)", "1/11(1,2,8)", "1/6(1,1,4)+1/2(1,0,1)"]


def monomials_of_degree_at_most(bound):
    for e in product(range(bound + 1), repeat=3):
        yield e


def brute_force_ggraphs(g, degree_bound):
    """Oracle: search all division-closed r-subsets with distinct weights
    among monomials with entries bounded by degree_bound."""
    monos = [e for e in monomials_of_degree_at_most(degree_bound)]
    found = set()

    def grow(members, used):
        if len(members) == g.r:
            found.add(frozenset(members))
            return
        for m in monos:
            if m in members or g.weight(m) in used:
                continue
            divisors_ok = all(
                m[i] == 0
                or tuple(m[k] - (1 if k == i else 0) for k in range(3)) in members
                for i in range(3)
            )
            if divisors_ok and m > max(members):
                grow(members | {m}, used | {g.weight(m)})

    # order-insensitive growth: add monomials in lexicographic order; any
    # division-closed set can be built this way because divisors precede
    # their multiples lexicographically
    grow(frozenset({(0, 0, 0)}), {g.trivial})
    return found


def test_enumerate_1_2_1_0_1():
    g = parse_group("1/2(1,0,1)")
    gs = enumerate_ggraphs(g)
    sets = {frozenset(gg.gens) for gg in gs}
    assert sets == {
        frozenset({(0, 0, 0), (1, 0, 0)}),
        frozenset({(0, 0, 0), (0, 0, 1)}),
    }


def test_enumerate_1_3_1_1_1_maximal():
    g = parse_group("1/3(1,1,1)")
    gs = enumerate_ggraphs(g)
    sets = {frozenset(gg.gens) for gg in gs}
    assert sets == {
        frozenset({(0, 0, 0), (1, 0, 0), (2, 0, 0)}),
        frozenset({(0, 0, 0), (0, 1, 0), (0, 2, 0)}),
        frozenset({(0, 0, 0), (0, 0, 1), (0, 0, 2)}),
    }


@pytest.mark.parametrize("spec", ["1/2(1,0,1)", "1/3(1,1,1)", "1/6(1,2,3)"])
def test_enumeration_matches_bounded_brute_force(spec):
    g = parse_group(spec)
    expected = brute_force_ggraphs(g, g.r - 1)
    got = {frozenset(gg.gens) for gg in enumerate_ggraphs(g)}
    assert got == expected


@pytest.mark.parametrize("spec", GROUPS)
def test_ggraph_has_r_monomials_one_per_character(spec):
    g = parse_group(spec)
    for gg in enumerate_ggraphs(g):
        assert len(set(gg.gens)) == g.r
        assert {g.weight(m) for m in gg.gens} == set(g.characters)


def test_cone_of_1_3_x_chain():
    g = parse_group("1/3(1,1,1)")
    gamma = next(
        gg for gg in enumerate_ggraphs(g) if (2, 0, 0) in gg.gens
    )
    ineqs = cone_of(gamma, g)
    # cone {v1 <= v2, v1 <= v3}: both inequalities present (up to scaled copies)
    assert (-1, 1, 0) in ineqs
    assert (-1, 0, 1) in ineqs
    # sample point inside: (1,2,3) scaled; outside: (3,1,1)
    assert all(dot(q, (1, 2, 3)) >= 0 for q in ineqs)
    assert not all(dot(q, (3, 1, 1)) >= 0 for q in ineqs)


def minimality_oracle(g, gamma, point, degree_bound):
    """Check each G-graph monomial minimises its character space at the
    given rational point among monomials up to the degree bound."""
    best = {}
    for e in product(range(degree_bound + 1), repeat=3):
        w = g.weight(e)
        val = Fraction(dot(e, point))
        if w not in best or val < best[w]:
            best[w] = val
    for m in gamma.gens:
        assert Fraction(dot(m, point)) == best[g.weight(m)]


@pytest.mark.parametrize("spec", ["1/3(1,1,1)", "1/6(1,2,3)", "1/11(1,2,8)"])
def test_triangle_ggraphs_minimise_on_their_triangles(spec):
    g = parse_group(spec)
    gh = ghilb_fan(g)
    bound = 3 * g.r
    for t in gh.fan.triangles:
        gamma = gh.by_triangle[t]
        bary = tuple(sum(gh.fan.vertices[i][k] for i in t) for k in range(3))
        points = [bary] + [gh.fan.vertices[i] for i in t]
        for p in points:
            minimality_oracle(g, gamma, p, bound)


@pytest.mark.parametrize("spec", GROUPS)
def test_cones_tile_octant_at_sample_points(spec):
    g = parse_group(spec)
    gs = enumerate_ggraphs(g)
    cones = [(gg, cone_of(gg, g)) for gg in gs]
    import random

    rng = random.Random(5)
    for _ in range(50):
        p = tuple(rng.randrange(0, 4 * g.r) for _ in range(3))
        hits = [gg for gg, qs in cones if all(dot(q, p) >= 0 for q in qs)]
        assert hits, f"point {p} not covered by any G-graph cone"


def test_socle_examples():
    g = parse_group("1/3(1,1,1)")
    gamma = next(gg for gg in enumerate_ggraphs(g) if (2, 0, 0) in gg.gens)
    assert socle(gamma, g) == {Character((2,))}
    g2 = parse_group("1/2(1,0,1)")
    gamma2 = next(gg for gg in enumerate_ggraphs(g2) if (1, 0, 0) in gg.gens)
    assert socle(gamma2, g2) == {Character((1,))}


@pytest.mark.parametrize("spec", GROUPS)
def test_socle_nonempty_and_trivial_char_rule(spec):
    g = parse_group(spec)
    for gg in enumerate_ggraphs(g):
        s = socle(gg, g)
        if g.r > 1:
            assert s
            assert g.trivial not in s


@pytest.mark.parametrize(
    "spec,triangles,interior",
    [
        ("1/3(1,1,1)", 3, 1),
        ("1/11(1,2,8)", 11, 5),
        ("1/6(1,2,3)", 6, 1),
        ("1/6(1,1,4)+1/2(1,0,1)", 12, 4),
    ],
)
def test_ghilb_fan_counts(spec, triangles, interior):
    g = parse_group(spec)
    gh = ghilb_fan(g)
    assert len(gh.fan.triangles) == triangles == g.r
    assert len(gh.fan.interior_vertices()) == interior


@pytest.mark.parametrize("spec", GROUPS)
def test_ghilb_fan_basic_triangles(spec):
    g = parse_group(spec)
    gh = ghilb_fan(g)
    for t in gh.fan.triangles:
        pts = [gh.fan.vertices[i] for i in t]
        assert abs(det3(*pts)) == g.r * g.r


def test_line_ratio_pattern_on_ghilb():
    # each interior line is cut out by a ratio with one side a pure power
    # of a single variable
    for spec in GROUPS:
        g = parse_group(spec)
        gh = ghilb_fan(g)
        from crepant.fans import line_ratio

        for e in gh.fan.interior_edges:
            m1, m2, rho = line_ratio(gh.fan, e, g)
            pure1 = sum(1 for x in m1 if x) == 1
            pure2 = sum(1 for x in m2 if x) == 1
            assert pure1 or pure2
            assert g.weight(m1) == g.weight(m2) == rho


def _cyclic_groups(max_order):
    """Every cyclic 1/r(a,b,c) with r <= max_order and a <= b <= c < r that
    parse_group accepts, one per weight multiset."""
    for r in range(1, max_order + 1):
        for a in range(r):
            for b in range(a, r):
                c = (-a - b) % r
                if c < b:
                    continue
                try:
                    yield parse_group(f"1/{r}({a},{b},{c})")
                except UserError:  # the weights do not act faithfully
                    continue


def test_walked_fan_equals_the_enumerated_fan():
    specs = ["1/6(1,1,4)+1/2(1,0,1)", "1/2(1,1,0)+1/2(0,1,1)", "1/25(1,3,21)"]
    groups = list(_cyclic_groups(16)) + [parse_group(s) for s in specs]
    assert len(groups) == 248
    for g in groups:
        ref = reference_fan(g)
        gh = ghilb_fan(g)
        assert gh.fan.key == tuple(sorted(ref)), g
        assert gh.by_triangle == ref, g


@pytest.mark.parametrize("spec", ["1/3(1,1,1)", "1/6(1,2,3)", "1/6(1,1,4)+1/2(1,0,1)"])
def test_least_monomials_at_a_triangle_point_are_its_ggraph(spec):
    # least_monomials needs no generic point: at a vertex it breaks ties
    # into the G-graph of some triangle at that vertex.
    g = parse_group(spec)
    gh = ghilb_fan(g)
    for t in gh.fan.triangles:
        bary = tuple(sum(gh.fan.vertices[i][k] for i in t) for k in range(3))
        assert least_monomials(g, bary) == gh.by_triangle[t]
        for i in t:
            gamma = least_monomials(g, gh.fan.vertices[i])
            assert any(i in u and gh.by_triangle[u] == gamma for u in gh.fan.triangles)


@pytest.mark.parametrize("spec", ["1/25(1,3,21)", "1/37(1,10,26)", "1/64(1,2,61)"])
def test_walk_solves_one_point_per_triangle(spec, monkeypatch, request):
    # Each interior edge is crossed at most once, and only towards an
    # unknown triangle, so the walk solves exactly r points.
    g = parse_group(spec)
    calls = []

    def counted(g, x):
        calls.append(x)
        return least_monomials(g, x)

    monkeypatch.setattr(ggraphs, "least_monomials", counted)
    ghilb_fan.cache_clear()
    request.addfinalizer(ghilb_fan.cache_clear)
    gh = ghilb_fan(g)
    assert len(calls) <= 1 + len(gh.fan.interior_edges)
    assert len(calls) == g.r
