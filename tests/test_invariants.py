"""Certificates for what the chamber engine assumes, and invariants the
mathematics guarantees.

chamber_cone scans only the inequalities whose raw class takes two values
(the only ones that can span a wall) and leaves the rest out, on the
argument that they are implied by the others whenever the system cuts out
a chamber.  The certificate here checks the argument chamber by chamber:
every distinct functional left out lies in the cone of the facet normals,
so the inequality it defines holds on the whole chamber.  The family
keeps only the candidates' raw classes, built while the divisor sets are
walked, and checks every inequality at the interior point by a linear
guard; both are compared with the spelled-out family, near G-Hilb.

The metamorphic tests rename the same group: permuting the coordinates,
or changing the generator (weights times a unit mod r), must give the
same chamber graph up to isomorphism.  The property tests walk random
crossings from G-Hilb: a state token replays its state, and crossing back
over the negated facet undoes a crossing.

Crossing a type-0 or type-III wall twists each bundle by the facet
normal's coefficient times a divisor.  A reference rule, stated on the
splitting and on the fiber degrees instead, checks that twist on every
such wall of the sweep graphs and near the 1/11(1,2,8) G-Hilb chamber,
and a property test checks that a twist is undone by the negated twist.
"""

import functools
import itertools
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crepant import cli
from crepant.bundles import TautBundle
from crepant.chambers import (
    ClassTable,
    InequalityFamily,
    compute_chamber,
    cross_wall,
    enumerate_chambers,
    functional,
    generate_inequalities,
    ghilb_state,
)
from crepant.groups import parse_group
from crepant.intlin import primitive
from crepant.lp import LPCounter, cone_membership
from crepant.report import state_from_token, state_token

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from curves import bundle_degrees  # noqa: E402
from inequality_reference import (  # noqa: E402
    literal_violation,
    reference_inequalities,
    triples,
)
from solve_reference import integral_solve  # noqa: E402
from workloads import sweep_groups  # noqa: E402


@functools.cache
def sweep_graph(spec):
    return enumerate_chambers(parse_group(spec))


def pruned_outside_cone(ineqs, normals):
    """Number of distinct functionals chamber_cone leaves out of the facet
    scan (raw class with three or more values), and a Farkas witness for
    each one that is not in the cone of the facet normals."""
    pruned = {
        primitive(functional(raw, sense))
        for raw, sense, _ in triples(ineqs)
        if len(set(raw)) > 2
    }
    witnesses = {}
    for f in pruned:
        inside, witness = cone_membership(f, normals)
        if not inside:
            witnesses[f] = witness
    return len(pruned), witnesses


@functools.cache
def within_two_crossings_of_ghilb_1_11():
    """The 132 states within two crossings of the 1/11(1,2,8) G-Hilb
    state, each with its chamber, in BFS order."""
    s0 = ghilb_state(parse_group("1/11(1,2,8)"))
    seen = {s0.key}
    level = [s0]
    out = []
    for depth in range(3):
        next_level = []
        for state in level:
            chamber = compute_chamber(state, LPCounter())
            out.append((state, chamber))
            for f in chamber.facets if depth < 2 else ():
                nstate = cross_wall(state, f)
                if nstate.key not in seen:
                    seen.add(nstate.key)
                    next_level.append(nstate)
        level = next_level
    return out


@pytest.mark.parametrize("spec", sweep_groups())
def test_inequality_family_matches_the_reference_on_sweep_graphs(spec):
    for state, _, _ in sweep_graph(spec).nodes:
        assert triples(generate_inequalities(state)) == reference_inequalities(state), state.key


def test_inequality_family_matches_the_reference_within_two_crossings_of_ghilb_1_11():
    states = within_two_crossings_of_ghilb_1_11()
    for state, chamber in states:
        assert triples(chamber.inequalities) == reference_inequalities(state), state.key
    assert len(states) == 132


@pytest.mark.parametrize("spec", sweep_groups())
def test_pruned_inequalities_are_implied_on_sweep_graphs(spec):
    for state, facets, _ in sweep_graph(spec).nodes:
        _, witnesses = pruned_outside_cone(
            generate_inequalities(state), [f.normal for f in facets]
        )
        assert witnesses == {}, state.key


def test_pruned_inequalities_are_implied_within_two_crossings_of_ghilb_1_11():
    chambers = functionals = 0
    for state, chamber in within_two_crossings_of_ghilb_1_11():
        normals = [f.normal for f in chamber.facets]
        n, witnesses = pruned_outside_cone(chamber.inequalities, normals)
        assert witnesses == {}, state.key
        chambers += 1
        functionals += n
    assert (chambers, functionals) == (132, 59_765)


NEAR_GHILB_GROUPS = sweep_groups() + ["1/11(1,2,8)", "1/6(1,1,4)+1/2(1,0,1)", "1/25(1,3,21)"]


@pytest.mark.parametrize("spec", NEAR_GHILB_GROUPS)
def test_candidates_and_linear_guard_match_the_reference_near_ghilb(spec):
    # On the G-Hilb state and each state one crossing away: the family
    # keeps exactly the two-valued entries of the spelled-out family (same
    # indices, raws and senses) and has its length.  Its linear guard
    # agrees with the literal one: both pass at the chamber's own interior
    # point, and at the interior point across a crossed wall, which
    # violates that wall, both name the same first violated inequality.
    s0 = ghilb_state(parse_group(spec))
    c0 = compute_chamber(s0, LPCounter())
    ref0 = None
    violated = 0
    for chamber in [c0] + [compute_chamber(cross_wall(s0, f), LPCounter()) for f in c0.facets]:
        family = chamber.inequalities
        ref = reference_inequalities(chamber.state)
        assert len(family) == len(ref)
        assert {i: (raw, family.senses[i]) for i, raw in family.candidates.items()} == {
            i: (raw, sense) for i, (raw, sense, _) in enumerate(ref) if len(set(raw)) == 2
        }
        assert family.first_violation(chamber.interior_point) is None
        assert literal_violation(ref, chamber.interior_point) is None
        if ref0 is None:
            ref0 = ref
            continue
        for fam, tri, pt in [
            (c0.inequalities, ref0, chamber.interior_point),
            (family, ref, c0.interior_point),
        ]:
            i = fam.first_violation(pt)
            assert i is not None and i == literal_violation(tri, pt)
            assert fam.source(i) == tri[i][2]
            violated += 1
    assert violated == 2 * len(c0.facets) > 0


def test_compute_chamber_never_regenerates_the_family(monkeypatch):
    def regenerate(family):
        raise AssertionError("the inequality family was regenerated")

    monkeypatch.setattr(InequalityFamily, "all_raws", regenerate)
    s0 = ghilb_state(parse_group("1/11(1,2,8)"))
    for f in compute_chamber(s0, LPCounter()).facets:
        compute_chamber(cross_wall(s0, f), LPCounter())


def test_chamber_command_regenerates_the_family_once(monkeypatch, capsys):
    # ghilb_chamber takes the trivial character's quot classes from the
    # regenerated family, and the report its redundant functionals.
    calls = []
    subset_classes = ClassTable.subset_classes

    def counting(table):
        calls.append(table.state.key)
        return subset_classes(table)

    monkeypatch.setattr(ClassTable, "subset_classes", counting)
    assert cli.main(["chamber", "1/11(1,2,8)"]) == 0
    assert len(calls) == 1
    assert '"redundant_inequalities"' in capsys.readouterr().out


def reference_twist_key(state, facet):
    """The key across a type-0 or type-III wall by the rule stated on the
    wall's data.  Type 0: the bundles of the side of the splitting without
    the trivial character are twisted by the unstable divisor, by +r on
    the sub side R1 and by -r on the quotient side R2.  Type III: the fiber
    degrees agree on every fiber and all lie in {0,1} or all in {0,-1};
    the bundles of degree s = +1 (or -1) are twisted by s*r on the swept
    divisor."""
    g = state.group
    chars = [c.index for c in g.characters]
    if facet.wall_type == "0":
        r2 = set(facet.splitting[1])
        if g.trivial.index in r2:
            mult = [0 if c in r2 else 1 for c in chars]
        else:
            mult = [-1 if c in r2 else 0 for c in chars]
        verts = set(facet.divisor)
    else:
        fibers = [state.fan.edge(*ep) for ep in facet.contracted]
        (degrees,) = {bundle_degrees(state.taut, e) for e in fibers}
        sign = 1 if set(degrees) <= {0, 1} else -1
        assert set(degrees) <= {0, sign}
        mult = [sign if d == sign else 0 for d in degrees]
        verts = {facet.swept}
    coeffs = [
        [c + m * g.r if w in verts else c for w, c in enumerate(row)]
        for row, m in zip(state.taut.coeffs, mult)
    ]
    return (state.fan.key, TautBundle.from_coeffs(g, state.fan, coeffs).key)


def twist_walls():
    """(state, facet) for every type-0 and type-III facet of the sweep
    graphs and of the chambers within two crossings of the 1/11(1,2,8)
    G-Hilb chamber."""
    for spec in sweep_groups():
        for state, facets, _ in sweep_graph(spec).nodes:
            yield from ((state, f) for f in facets)
    for state, chamber in within_two_crossings_of_ghilb_1_11():
        yield from ((state, f) for f in chamber.facets)


def test_twist_crossings_match_the_reference_rule():
    seen = Counter()
    for state, facet in twist_walls():
        if facet.wall_type in ("0", "III"):
            assert cross_wall(state, facet).key == reference_twist_key(state, facet)
            seen[facet.wall_type] += 1
    assert seen["0"] > 0 and seen["III"] > 0


def test_crossed_rows_are_canonical():
    # Crossings never reduce: a flop keeps the rows, and a twist moves no
    # corner column, on which the principal reducer pivots.  So every
    # state reached from G-Hilb holds rows the reducer leaves unchanged.
    states = [s for spec in sweep_groups() for s, _, _ in sweep_graph(spec).nodes]
    states += [s for s, _ in within_two_crossings_of_ghilb_1_11()]
    for state in states:
        reduce_row = state.group.principal_reducer
        assert all(reduce_row(row) == row for row in state.taut.coeffs), state.key
    assert len(states) == 2584 + 132


def test_charts_match_fraction_reference_on_sweep_graphs():
    # Every chart of every state of the sweep graphs, read through the
    # fan's per-triangle inverse, is the rational solution of its pairing
    # system, and that solution is integral.
    charts = 0
    for spec in sweep_groups():
        for state, _, _ in sweep_graph(spec).nodes:
            fan, taut = state.fan, state.taut
            for ti, t in enumerate(fan.triangles):
                rows = [fan.vertices[i] for i in t]
                ref = tuple(integral_solve(rows, [-c[i] for i in t]) for c in taut.coeffs)
                assert taut.chart(ti) == ref, (spec, state.key, t)
                charts += 1
    assert charts == 15_870


def graph_summary(spec):
    """Chambers, fans, crossings by wall type and LP solves of a group's
    chamber graph."""
    graph = enumerate_chambers(parse_group(spec))
    types = Counter(wtype for _, _, _, wtype in graph.edges)
    return len(graph.nodes), len(graph.fans()), dict(types), graph.lp_count


# (r, weights, a unit k mod r, LP solves after the generator change).  The
# LP count can move with the generator: the renamed characters order the
# candidates and the presolve's rows differently.  1/6(5,4,3) is a
# permutation of 1/6(3,4,5), whose pinned count is 538.
RENAMINGS = [
    (5, (1, 1, 3), 2, 15),
    (6, (1, 2, 3), 5, 538),
    (7, (1, 1, 5), 2, 117),
    (7, (1, 2, 4), 3, 136),
]


@pytest.mark.parametrize("r,weights,k,renamed_lp", RENAMINGS)
def test_renaming_the_group_keeps_the_graph(r, weights, k, renamed_lp):
    def spec(w):
        return f"1/{r}({w[0]},{w[1]},{w[2]})"

    chambers, fans, types, lp = graph_summary(spec(weights))
    assert chambers > 1 and set(types) >= {"0", "III"}
    for perm in set(itertools.permutations(weights)):
        assert graph_summary(spec(perm)) == (chambers, fans, types, lp), perm
    renamed = tuple(k * w % r for w in weights)
    assert sorted(renamed) != sorted(weights)
    assert graph_summary(spec(renamed)) == (chambers, fans, types, renamed_lp)


def sorted_facets(state):
    return sorted(compute_chamber(state, LPCounter()).facets, key=lambda f: f.normal)


@st.composite
def crossing_walks(draw):
    """A sweep group and up to three facet choices, each taken modulo the
    facet count of the chamber reached so far."""
    spec = draw(st.sampled_from(sweep_groups()))
    return spec, draw(st.lists(st.integers(0, 63), max_size=3))


@settings(max_examples=100)
@given(crossing_walks())
def test_random_walks_replay_tokens_and_undo_crossings(walk):
    spec, picks = walk
    state = ghilb_state(parse_group(spec))
    for pick in [None] + picks:
        if pick is not None:
            facets = sorted_facets(state)
            state = cross_wall(state, facets[pick % len(facets)])
        assert state_from_token(state_token(state)).key == state.key
        for f in sorted_facets(state):
            nstate = cross_wall(state, f)
            negated = tuple(-x for x in f.normal)
            back = next(b for b in sorted_facets(nstate) if b.normal == negated)
            assert back.wall_type == f.wall_type
            assert cross_wall(nstate, back).key == state.key


@st.composite
def divisor_twists(draw):
    """The G-Hilb bundle of a sweep group, 1/11(1,2,8) or
    1/6(1,1,4)+1/2(1,0,1), a nonempty set of non-corner vertices and a
    multiplier with 0 at the trivial character and entries in [-2, 2]
    elsewhere."""
    spec = draw(st.sampled_from(sweep_groups() + ["1/11(1,2,8)", "1/6(1,1,4)+1/2(1,0,1)"]))
    taut = ghilb_state(parse_group(spec)).taut
    kinds = taut.fan.vertex_kind
    verts = draw(st.sets(st.sampled_from([w for w, k in enumerate(kinds) if k != "corner"]), min_size=1))
    r = taut.group.r
    mult = [0] + draw(st.lists(st.integers(-2, 2), min_size=r - 1, max_size=r - 1))
    return taut, verts, mult


@settings(max_examples=200)
@given(divisor_twists())
def test_twist_then_inverse_twist_restores_the_key(case):
    taut, verts, mult = case
    twisted = taut.twist(verts, mult)
    assert twisted.twist(verts, [-m for m in mult]).key == taut.key
    assert TautBundle.from_coeffs(taut.group, taut.fan, twisted.coeffs).key == twisted.key
