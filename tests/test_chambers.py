import functools
import hashlib
import itertools
import json
import operator
import pickle
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crepant import chambers
from crepant.bundles import TautBundle
from crepant.chambers import (
    _facet_normals,
    _foot_certificate,
    _sum_free,
    compute_chamber,
    cross_wall,
    enumerate_chambers,
    functional,
    generate_inequalities,
    ghilb_chamber,
    ghilb_state,
)
from crepant.errors import CapError, InternalError, UserError
from crepant.fans import FanGeometry, Triangulation, flip_reachable_fans
from crepant.ggraphs import ghilb_fan
from crepant.groups import Character, invariant_lattice_basis, parse_group
from crepant.intlin import dot, primitive
from crepant.lp import LPCounter, cone_membership
from curves import opposite_vertices
from inequality_reference import triples, two_term_sum


def normals(chamber):
    return {f.normal for f in chamber.facets}


def test_chamber_1_3():
    g = parse_group("1/3(1,1,1)")
    ch = compute_chamber(ghilb_state(g), LPCounter())
    assert normals(ch) == {(0, 1), (1, 1)}
    assert all(f.wall_type == "0" for f in ch.facets)
    # theta1 + 2*theta2 > 0 (the curve inequality) is redundant
    family = ch.inequalities
    raws = list(family.all_raws())
    red_funcs = {functional(raws[i], family.senses[i]) for i in ch.redundant}
    assert (1, 2) in red_funcs
    # certificate point in the chamber but outside Theta+
    pt = (-1, 2)
    for f in ch.facets:
        assert sum(a * b for a, b in zip(f.normal, pt)) > 0
    assert pt[0] < 0


def test_chamber_1_2_type_iii():
    g = parse_group("1/2(1,0,1)")
    ch = compute_chamber(ghilb_state(g), LPCounter())
    assert len(ch.facets) == 1
    (f,) = ch.facets
    assert f.wall_type == "III"
    assert f.swept is not None


def test_ghilb_chamber_cross_check_runs():
    for spec in ["1/2(1,0,1)", "1/3(1,1,1)", "1/6(1,2,3)", "1/11(1,2,8)"]:
        g = parse_group(spec)
        ch = ghilb_chamber(g)
        assert len(ch.facets) >= 1


def test_ghilb_chamber_lp_and_pivot_counts():
    # the generic chamber of 1/11(1,2,8) and the facet scan of its
    # specialised candidates: exact solve and pivot totals
    counter = LPCounter()
    ghilb_chamber(parse_group("1/11(1,2,8)"), counter)
    assert (counter.count, counter.pivots) == (5, 64)


def test_ghilb_chamber_cross_check_catches_a_dropped_mark(monkeypatch):
    # Without one divisor's marked positivities the specialised walls are
    # not the generic ones, whichever divisor it is.
    g = parse_group("1/11(1,2,8)")
    marks = chambers.mark_divisors(ghilb_fan(g), g)
    assert len(marks) > 1
    for v in marks:
        dropped = {u: m for u, m in marks.items() if u != v}
        monkeypatch.setattr(chambers, "mark_divisors", lambda gh, g, d=dropped: d)
        with pytest.raises(InternalError):
            ghilb_chamber(g)


def test_interior_point_strict():
    g = parse_group("1/6(1,2,3)")
    ch = compute_chamber(ghilb_state(g), LPCounter())
    pt = ch.interior_point
    for raw, sense, _ in triples(ch.inequalities):
        f = functional(raw, sense)
        assert sum(a * b for a, b in zip(f, pt)) > 0


def connected_subsets(fan):
    """Nonempty sets of interior vertices connected through interior
    edges, by brute force over all subsets."""
    interior = fan.interior_vertices()
    out = []
    for k in range(1, len(interior) + 1):
        for verts in itertools.combinations(interior, k):
            reach = {verts[0]}
            grew = True
            while grew:
                grew = False
                for e in fan.interior_edges:
                    a, b = e.endpoints
                    if a in verts and b in verts and (a in reach) != (b in reach):
                        reach |= {a, b}
                        grew = True
            if len(reach) == k:
                out.append(verts)
    return out


def test_inequality_counts_bound():
    g = parse_group("1/11(1,2,8)")
    st = ghilb_state(g)
    ineqs = generate_inequalities(st)
    bound = len(st.fan.interior_edges) + 2 * g.r * len(connected_subsets(st.fan))
    assert len(ineqs) <= bound
    divisor_sets = {src[2] for _, _, src in triples(ineqs) if src[0] != "curve"}
    assert divisor_sets == set(connected_subsets(st.fan))


@pytest.mark.parametrize(
    "spec,count", [("1/11(1,2,8)", 587), ("1/13(1,3,9)", 1240), ("1/15(1,2,12)", 1400)]
)
def test_ghilb_inequality_counts(spec, count):
    # One inequality per compact curve and two per character and connected
    # divisor set; with every nonempty divisor set the counts were 697,
    # 1,656 and 1,910.
    assert len(generate_inequalities(ghilb_state(parse_group(spec)))) == count


def test_subset_table_built_once_per_fan(monkeypatch, request):
    built = []
    build = FanGeometry.__dict__["subsets"].func

    def counting_build(geo):
        built.append(geo.fan.key)
        return build(geo)

    prop = functools.cached_property(counting_build)
    prop.__set_name__(FanGeometry, "subsets")
    monkeypatch.setattr(FanGeometry, "subsets", prop)
    # Fresh fan objects, hence fresh geometry.  G-Hilb fans are memoised
    # per group, so the memo is dropped as the table is swapped in, and
    # again before the old table comes back.
    monkeypatch.setattr(Triangulation, "_interned", {})
    ghilb_fan.cache_clear()
    request.addfinalizer(ghilb_fan.cache_clear)
    graph = enumerate_chambers(parse_group("1/6(1,2,3)"))
    assert len(graph.nodes) == 264
    assert len(graph.fans()) == 5
    assert sorted(built) == sorted(graph.fans())


def indicator_compatible(func) -> bool:
    """Reference wall screen: wall hyperplanes are cut out by proper
    subrepresentations, whose classes take exactly the values 0 and 1;
    with the trivial character's coefficient eliminated, the primitive
    functional of a wall is a 0/1 or -1/0 vector."""
    p = primitive(func)
    vals = set(p)
    vals.add(0)
    return vals <= {0, 1} or vals <= {-1, 0}


def test_indicator_compatible():
    assert indicator_compatible((0, 1, 1, 0))
    assert indicator_compatible((0, -1, -1, 0))
    assert indicator_compatible((2, 0, 2))  # primitive is (1,0,1)
    assert not indicator_compatible((1, 2, 0))
    assert not indicator_compatible((1, -1, 0))


def reference_normals(prims):
    """Brute force: a candidate is a facet iff it lies outside the cone of
    all the other candidates."""
    cands = set(prims)
    return sorted(
        f for f in cands if not cone_membership(f, [g for g in cands if g != f])[0]
    )


def wall_candidates(chamber):
    return [
        primitive(functional(raw, sense))
        for raw, sense, _ in triples(chamber.inequalities)
        if len(set(raw)) == 2
    ]


def test_facet_normals_match_reference_on_hand_built_cones():
    e1, e2, e3, e4 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
    # e1 + e2 is a two-term sum; (0, 1, 1, 1) lies in the cone of e2, e3,
    # e4 only; e1 is listed twice
    simplicial = [e1, e2, e3, e4, (1, 1, 0, 0), (0, 1, 1, 1), e1]
    # a square cone with its axis, which is in the cone of two opposite
    # edges but the sum of no two members
    square = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (0, 0, 1)]
    # the sign presolve of cone_membership decides every test on the
    # simplicial cone; the axis of the square reaches the LP kernel
    for prims, facets, nlp in [(simplicial, [e1, e2, e3, e4], 0), (square, square[:4], 1)]:
        counter = LPCounter()
        assert _facet_normals(prims, counter) == reference_normals(prims) == sorted(facets)
        assert counter.count == nlp
    # e1 is certified a facet with no LP by the foot point on {x1 = 0}
    undecided = [e1, e2, e3, e4, (0, 1, 1, 1)]
    probe = tuple(map(sum, zip(*undecided)))
    assert _foot_certificate(e1, probe, undecided)
    assert not _foot_certificate((0, 1, 1, 1), probe, undecided)


@st.composite
def cube_vector_sets(draw):
    """Sets of -1/0/1 vectors with last entry 1 in dimension 3 to 5.  They
    span a pointed cone in which a candidate of small support can lie in
    the cone of candidates of larger support, as the axis of the square
    does."""
    d = draw(st.integers(3, 5))
    vector = st.lists(st.sampled_from((-1, 0, 1)), min_size=d - 1, max_size=d - 1)
    return draw(st.lists(vector.map(lambda v: tuple(v) + (1,)), min_size=1, max_size=14))


@settings(max_examples=100)
@given(cube_vector_sets())
def test_facet_normals_match_reference_on_cube_vectors(prims):
    assert _facet_normals(prims, LPCounter()) == reference_normals(prims)


@st.composite
def vector_lists(draw):
    """Distinct nonzero primitive vectors of one dimension (1 to 12) with
    entries in [-m, m] for a drawn m <= 50, plus the primitive sums of some
    drawn pairs that stay within [-50, 50]."""
    d = draw(st.integers(1, 12))
    m = draw(st.integers(1, 50))
    vector = st.lists(st.integers(-m, m), min_size=d, max_size=d)
    vecs = [primitive(v) for v in draw(st.lists(vector, min_size=1, max_size=16)) if any(v)]
    for i, j in draw(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=8)):
        if i < j < len(vecs):
            s = tuple(map(operator.add, vecs[i], vecs[j]))
            if any(s) and max(map(abs, s)) <= 50 and primitive(s) == s:
                vecs.append(s)
    return list(dict.fromkeys(vecs))


@settings(max_examples=300)
@given(vector_lists())
def test_sum_screen_matches_pairwise_tuples(vecs):
    pool = set(vecs)
    assert _sum_free(vecs) == [f for f in vecs if not two_term_sum(f, pool)]


def test_sum_screen_matches_pairwise_tuples_on_all_ghilb_functionals_1_11():
    # every generated inequality of the 1/11(1,2,8) G-Hilb chamber, as the
    # unpruned facet computation of the acceptance battery screens them
    chamber = compute_chamber(ghilb_state(parse_group("1/11(1,2,8)")), LPCounter())
    family = chamber.inequalities
    vecs = sorted({primitive(functional(raw, sense)) for raw, sense, _ in triples(family)})
    pool = set(vecs)
    expected = [f for f in vecs if not two_term_sum(f, pool)]
    assert _sum_free(vecs) == expected
    assert 0 < len(expected) < len(vecs)


def test_sum_screen_digits_hold_three_term_differences():
    # f - a - b = (8, -1, 0) with largest entry 3: in base 2^k with
    # k = (2*3 + 1).bit_length() it packs to 0, so that width would call f
    # the sum a + b, which it is not
    f, a, b = (3, 0, 1), (-3, 1, 0), (-2, 0, 1)
    base = 1 << (2 * 3 + 1).bit_length()

    def key(v):
        return sum(x * base**i for i, x in enumerate(v))

    assert key(f) - key(a) == key(b)
    assert not two_term_sum(f, {f, a, b})
    assert _sum_free([f, a, b]) == [f, a, b]


def masked_scan_checked(prims):
    """_facet_normals(prims) with every membership test of its masked scan
    repeated as a fresh cone_membership(f, kept - f) on a list, which must
    give the same answer and witness at the same LP and pivot counts.
    Returns the scan's result, its counter and the number of tests."""
    tests = []

    def checked(c, gens, counter, masks, live):
        fresh = LPCounter()
        expected = cone_membership(c, [g for j, g in enumerate(gens) if live >> j & 1], fresh)
        before = counter.count, counter.pivots
        got = cone_membership(c, gens, counter, masks, live)
        assert got == expected
        assert (counter.count - before[0], counter.pivots - before[1]) == (fresh.count, fresh.pivots)
        tests.append(c)
        return got

    counter = LPCounter()
    with mock.patch.object(chambers, "cone_membership", checked):
        normals = _facet_normals(prims, counter)
    return normals, counter, len(tests)


@settings(max_examples=100)
@given(cube_vector_sets())
def test_masked_scan_matches_fresh_membership_tests(prims):
    normals, _, _ = masked_scan_checked(prims)
    assert normals == reference_normals(prims)


def test_masked_scan_matches_fresh_membership_tests_on_1_11_chambers():
    g = parse_group("1/11(1,2,8)")
    s0 = ghilb_state(g)
    ntests = nlp = 0
    for state in [s0] + [cross_wall(s0, f) for f in compute_chamber(s0, LPCounter()).facets]:
        chamber = compute_chamber(state, LPCounter())
        normals, counter, n = masked_scan_checked(wall_candidates(chamber))
        assert normals == sorted(f.normal for f in chamber.facets)
        ntests += n
        nlp += counter.count
    # the scans reach both the presolve and the simplex kernel
    assert ntests > nlp > 0


def test_facet_normals_match_reference_on_1_6_chambers():
    g = parse_group("1/6(1,2,3)")
    graph = enumerate_chambers(g)
    for state, facets, _ in graph.nodes:
        chamber = compute_chamber(state, LPCounter())
        expected = reference_normals(wall_candidates(chamber))
        assert sorted(f.normal for f in chamber.facets) == expected
        assert [f.normal for f in facets] == [f.normal for f in chamber.facets]


def test_raw_class_screen_is_indicator_compatibility():
    g = parse_group("1/11(1,2,8)")
    s0 = ghilb_state(g)
    states = [s0] + [cross_wall(s0, f) for f in compute_chamber(s0, LPCounter()).facets]
    nwalls = 0
    for state in states:
        for raw, sense, source in triples(generate_inequalities(state)):
            wall = len(set(raw)) == 2
            assert wall == indicator_compatible(functional(raw, sense)), source
            nwalls += wall
    assert nwalls


def test_type0_crossing_1_3_structure():
    g = parse_group("1/3(1,1,1)")
    st = ghilb_state(g)
    ch = compute_chamber(st, LPCounter())
    f = ch.facet_by_normal((0, 1))  # the theta2 = 0 wall
    assert f.wall_type == "0"
    assert f.splitting == (((2,),), ((0,), (1,)))
    st2 = cross_wall(st, f)
    assert st2.fan.key == st.fan.key
    ch2 = compute_chamber(st2, LPCounter())
    assert normals(ch2) == {(1, 0), (0, -1)}


def test_prune_matches_full_on_neighbor_states():
    g = parse_group("1/6(1,2,3)")
    st = ghilb_state(g)
    ch = compute_chamber(st, LPCounter())
    for f in ch.facets[:4]:
        st2 = cross_wall(st, f)
        a = compute_chamber(st2, LPCounter())
        full = {primitive(functional(raw, sense)) for raw, sense, _ in triples(a.inequalities)}
        assert sorted(normals(a)) == reference_normals(full)


# sha256 of every node's (triangles, canonical coefficient rows) in graph
# order.  State tokens carry exactly this data and are replayed across runs,
# so the canonical form must not move.
STATE_DIGESTS = {
    "1/2(1,0,1)": "c6468635246399c262b4aab1917868612ea2ca62cce23a08f73e3ec0b280def1",
    "1/3(1,1,1)": "7312747f644f93176f019fe3a2cca4f0b037e0b03212245ab0e11ab89ffd9f56",
    "1/5(1,1,3)": "5ba558e212a869845c1761bb38e8710126566fa3882629d0c0fd1c870a84aa53",
    "1/6(1,2,3)": "2f173816d501043918db29be8dd1b2d37c1fde881ac9c03fc4c89a2bc4f3149a",
    "1/6(3,4,5)": "7460f1a730ff8393450e4b560818092eeeebe5765fd37b980361e90028bf5b37",
    "1/2(1,1,0)+1/2(0,1,1)": "8d0c2d7ebe4f5fdd2c30f61e03ac2180dafa7dd9cb6c58a5cba234d4e14ed06f",
}


def state_digest(graph):
    data = [[st.fan.triangles, st.taut.coeffs] for st, _, _ in graph.nodes]
    return hashlib.sha256(json.dumps(data, separators=(",", ":")).encode()).hexdigest()


# Exact LP solve counts of the enumerations: each chamber costs one
# interior-point LP, and each facet candidate that no cheap certificate
# settles one cone-membership test, which reaches the LP kernel only when
# the sign presolve of cone_membership leaves it undecided.  A change to
# the redundancy scheme or to the presolve moves them.
ENUM_LP_COUNTS = {
    "1/2(1,0,1)": 2,
    "1/3(1,1,1)": 3,
    "1/5(1,1,3)": 15,
    "1/6(1,2,3)": 534,
    "1/6(3,4,5)": 538,
    "1/2(1,1,0)+1/2(0,1,1)": 32,
}

# Exact simplex pivot totals of the same enumerations.  Bland's rule and the
# ratio-test tie-break fix the basis sequence of every solve, and the
# presolve fixes which reduced systems reach the kernel, so a change to
# either moves these.
ENUM_PIVOT_COUNTS = {
    "1/2(1,0,1)": 2,
    "1/3(1,1,1)": 7,
    "1/5(1,1,3)": 81,
    "1/6(1,2,3)": 2622,
    "1/6(3,4,5)": 2598,
    "1/2(1,1,0)+1/2(0,1,1)": 98,
}


@pytest.mark.parametrize(
    "spec,chambers,fans",
    [
        ("1/2(1,0,1)", 2, 1),
        ("1/3(1,1,1)", 3, 1),
        ("1/5(1,1,3)", 15, 1),
        ("1/6(1,2,3)", 264, 5),
        # the same group as 1/6(1,2,3): the fifth power of its generator
        # has weights (15,20,25) = (3,2,1) mod 6
        ("1/6(3,4,5)", 264, 5),
    ],
)
def test_enumerate_counts(spec, chambers, fans):
    g = parse_group(spec)
    graph = enumerate_chambers(g)
    assert len(graph.nodes) == chambers
    assert graph.lp_count == ENUM_LP_COUNTS[spec]
    assert graph.pivot_count == ENUM_PIVOT_COUNTS[spec]
    assert len(graph.fans()) == fans
    assert graph.fans() == set(flip_reachable_fans(ghilb_fan(g).fan))
    assert state_digest(graph) == STATE_DIGESTS[spec]


def test_enumerate_klein_four_verified():
    g = parse_group("1/2(1,1,0)+1/2(0,1,1)")
    graph = enumerate_chambers(g, verify_crossings=True)
    assert graph.fans() == set(flip_reachable_fans(ghilb_fan(g).fan))
    assert len(graph.nodes) == 32
    assert graph.lp_count == ENUM_LP_COUNTS["1/2(1,1,0)+1/2(0,1,1)"]
    assert graph.pivot_count == ENUM_PIVOT_COUNTS["1/2(1,1,0)+1/2(0,1,1)"]
    assert state_digest(graph) == STATE_DIGESTS["1/2(1,1,0)+1/2(0,1,1)"]


def test_taut_key_canonical_on_flopped_fans():
    # The principal reducer is the group's and shared by every fan of it.
    # Rebuild it while the G-Hilb bundle is built, then build bundles on
    # the fans one flop away: their keys must not depend on which fan the
    # reducer was first used on, nor on the invariant exponent by which
    # the chart generators are shifted.
    g = parse_group("1/6(3,4,5)")
    vars(g).pop("principal_reducer", None)
    s0 = ghilb_state(g)
    flopped = [
        cross_wall(s0, f)
        for f in compute_chamber(s0, LPCounter()).facets
        if f.wall_type == "I"
    ]
    assert flopped
    b = invariant_lattice_basis(g)
    shift = tuple(b[0][j] - 2 * b[1][j] + 3 * b[2][j] for j in range(3))
    for state in flopped:
        taut, fan = state.taut, state.fan
        assert fan.key != s0.fan.key
        assert TautBundle.from_coeffs(g, fan, taut.coeffs).key == taut.key
        # Shifting every chart generator by the invariant exponent shift
        # lowers each ray coefficient by its pairing with shift.
        shifted = [[c - dot(shift, w) for c, w in zip(row, fan.vertices)] for row in taut.coeffs]
        assert shifted != [list(row) for row in taut.coeffs]
        assert TautBundle.from_coeffs(g, fan, shifted).key == taut.key
        for facet in compute_chamber(state, LPCounter()).facets:
            nstate = cross_wall(state, facet)
            neg = tuple(-x for x in facet.normal)
            back = compute_chamber(nstate, LPCounter()).facet_by_normal(neg)
            assert cross_wall(nstate, back).key == state.key, facet.normal


@pytest.mark.parametrize("spec", ["1/11(1,2,8)", "1/6(1,2,3)"])
def test_type_i_crossing_solves_only_new_charts(spec, monkeypatch):
    # A flop keeps the ray coefficients, and a chart depends only on its
    # triangle and the coefficients at its vertices, so crossing a type-I
    # wall solves and checks the charts of the new triangles only.
    g = parse_group(spec)
    s0 = ghilb_state(g)
    flops = [f for f in compute_chamber(s0, LPCounter()).facets if f.wall_type == "I"]
    assert flops
    solved = []
    chart = TautBundle.chart

    def counting_chart(taut, ti):
        solved.append(taut.fan.triangles[ti])
        return chart(taut, ti)

    monkeypatch.setattr(TautBundle, "chart", counting_chart)
    for facet in flops:
        solved.clear()
        nstate = cross_wall(s0, facet)
        new = set(nstate.fan.triangles) - set(s0.fan.triangles)
        assert sorted(solved) == sorted(new)
        assert nstate.taut.key == TautBundle.from_coeffs(g, nstate.fan, s0.taut.coeffs).key
        # the new charts are checked: a coefficient off by one at a vertex
        # opposite a flopped edge (a vertex of both new triangles) is caught
        for endpoints in facet.contracted:
            for v in opposite_vertices(s0.fan, s0.fan.edge(*endpoints)):
                coeffs = [list(row) for row in s0.taut.coeffs]
                coeffs[1][v] += 1  # row 0 is the trivial character's
                with pytest.raises(InternalError):
                    TautBundle(g, s0.fan, coeffs).proper_transform(nstate.fan)


def test_enumerate_1_2_wall_types():
    g = parse_group("1/2(1,0,1)")
    graph = enumerate_chambers(g)
    assert {e[3] for e in graph.edges} == {"III"}


@pytest.mark.parametrize("workers", [1, 2])
def test_enumerate_caps(workers):
    g = parse_group("1/5(1,1,3)")  # 15 chambers, 15 LP solves
    graph = enumerate_chambers(g, max_chambers=15, max_lp=15, workers=workers)
    assert (len(graph.nodes), graph.lp_count) == (15, ENUM_LP_COUNTS["1/5(1,1,3)"])
    with pytest.raises(CapError, match="LP solve cap of 14"):
        enumerate_chambers(g, max_lp=14, workers=workers)
    with pytest.raises(CapError, match="chamber cap of 14"):
        enumerate_chambers(g, max_chambers=14, workers=workers)


def test_enumerate_determinism():
    g = parse_group("1/6(1,2,3)")
    g1 = enumerate_chambers(g)
    g2 = enumerate_chambers(g, workers=2)
    assert [st.key for st, _, _ in g1.nodes] == [st.key for st, _, _ in g2.nodes]
    assert g1.edges == g2.edges
    # the pool's workers report their solves and pivots, which are summed
    assert (g2.lp_count, g2.pivot_count) == (g1.lp_count, g1.pivot_count)


@pytest.mark.parametrize("workers", [1, 2])
def test_one_object_per_fan_and_group(workers):
    # Pool results are unpickled through the interning constructors, so they
    # land on the parent's fan and group objects.
    g = parse_group("1/6(1,2,3)")
    graph = enumerate_chambers(g, workers=workers)
    states = [st for st, _, _ in graph.nodes]
    assert len({id(st.fan) for st in states}) == len(graph.fans()) == 5
    assert all(st.taut.fan is st.fan for st in states)
    assert {id(x) for st in states for x in (st.group, st.fan.group, st.taut.group)} == {id(g)}


def test_pickled_state_keeps_its_fan_and_group():
    g = parse_group("1/6(1,2,3)")
    s0 = ghilb_state(g)
    states = [s0] + [cross_wall(s0, f) for f in compute_chamber(s0, LPCounter()).facets]
    assert len({st.fan.key for st in states}) > 1
    for st in states:
        back = pickle.loads(pickle.dumps(st))
        assert back.fan is st.fan and back.taut.fan is st.fan
        assert back.group is g and back.taut.group is g
        assert back.key == st.key


def test_pickled_chamber_keeps_its_inequalities():
    ch = compute_chamber(ghilb_state(parse_group("1/6(1,2,3)")), LPCounter())
    back = pickle.loads(pickle.dumps(ch))
    assert triples(back.inequalities) == triples(ch.inequalities)
    assert back.facets == ch.facets and back.interior_point == ch.interior_point


def test_no_type_ii_small_groups():
    for spec in ["1/2(1,0,1)", "1/3(1,1,1)", "1/6(1,2,3)"]:
        g = parse_group(spec)
        graph = enumerate_chambers(g)
        for _, facets, _ in graph.nodes:
            for f in facets:
                assert f.wall_type in ("0", "I", "III")


def test_facet_by_normal_missing():
    g = parse_group("1/3(1,1,1)")
    ch = compute_chamber(ghilb_state(g), LPCounter())
    with pytest.raises(UserError):
        ch.facet_by_normal((5, 5))


def test_type0_unique_splitting_uniqueness():
    # on the G-Hilb chamber of 1/11 every type-0 facet recovers a unique
    # unstable divisor, and the 0/1 class with its complement are the only
    # indicator representatives among tight classes
    g = parse_group("1/11(1,2,8)")
    st = ghilb_state(g)
    ch = compute_chamber(st, LPCounter())
    for f in ch.facets:
        if f.wall_type != "0":
            continue
        assert f.divisor is not None
        r1, r2 = f.splitting
        assert len(r1) + len(r2) == g.r
        reps = set()
        for i in f.tight:
            raw = ch.inequalities.candidates[i]
            cls = raw if ch.inequalities.senses[i] == ">" else tuple(-x for x in raw)
            lo = min(cls)
            shifted = tuple(c - lo for c in cls)
            if set(shifted) <= {0, 1}:
                reps.add(shifted)
        ind_r1 = tuple(1 if c.index in r1 else 0 for c in g.characters)
        ind_r2 = tuple(1 if c.index in r2 else 0 for c in g.characters)
        assert reps <= {ind_r1, ind_r2}
        assert reps


def test_curve_facets_match_flop_edges_1_11():
    g = parse_group("1/11(1,2,8)")
    st = ghilb_state(g)
    counter = LPCounter()
    ch = compute_chamber(st, counter)
    assert counter.count == 3
    type_i = [f for f in ch.facets if f.wall_type == "I"]
    assert len(type_i) == 3
    for f in type_i:
        assert len(f.contracted) == 1
    type_iii = [f for f in ch.facets if f.wall_type == "III"]
    assert len(type_iii) == 1
    assert len(type_iii[0].contracted) == 2  # both ruling fibers
