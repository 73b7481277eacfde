"""Certificates for what the chamber engine assumes, and invariants the
mathematics guarantees.

chamber_cone scans only the inequalities whose raw class takes two values
(the only ones that can span a wall) and leaves the rest out, on the
argument that they are implied by the others whenever the system cuts out
a chamber.  The certificate here checks the argument chamber by chamber:
every distinct functional left out lies in the cone of the facet normals,
so the inequality it defines holds on the whole chamber.

The metamorphic tests rename the same group: permuting the coordinates,
or changing the generator (weights times a unit mod r), must give the
same chamber graph up to isomorphism.  The property tests walk random
crossings from G-Hilb: a state token replays its state, and crossing back
over the negated facet undoes a crossing.
"""

import itertools
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crepant.chambers import (
    compute_chamber,
    cross_wall,
    enumerate_chambers,
    generate_inequalities,
    ghilb_state,
)
from crepant.groups import parse_group
from crepant.intlin import primitive
from crepant.lp import LPCounter, cone_membership
from crepant.report import state_from_token, state_token

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import sweep_groups  # noqa: E402


def pruned_outside_cone(ineqs, normals):
    """Number of distinct functionals chamber_cone leaves out of the facet
    scan (raw class with three or more values), and a Farkas witness for
    each one that is not in the cone of the facet normals."""
    pruned = {primitive(iq.functional()) for iq in ineqs if len(set(iq.raw)) > 2}
    witnesses = {}
    for f in pruned:
        inside, witness = cone_membership(f, normals)
        if not inside:
            witnesses[f] = witness
    return len(pruned), witnesses


@pytest.mark.parametrize("spec", sweep_groups())
def test_pruned_inequalities_are_implied_on_sweep_graphs(spec):
    graph = enumerate_chambers(parse_group(spec))
    for state, facets, _ in graph.nodes:
        _, witnesses = pruned_outside_cone(
            generate_inequalities(state), [f.normal for f in facets]
        )
        assert witnesses == {}, state.key


def test_pruned_inequalities_are_implied_within_two_crossings_of_ghilb_1_11():
    g = parse_group("1/11(1,2,8)")
    s0 = ghilb_state(g)
    seen = {s0.key}
    level = [s0]
    chambers = functionals = 0
    for depth in range(3):
        next_level = []
        for state in level:
            chamber = compute_chamber(state, LPCounter())
            normals = [f.normal for f in chamber.facets]
            n, witnesses = pruned_outside_cone(chamber.inequalities, normals)
            assert witnesses == {}, state.key
            chambers += 1
            functionals += n
            for f in chamber.facets if depth < 2 else ():
                nstate = cross_wall(state, f)
                if nstate.key not in seen:
                    seen.add(nstate.key)
                    next_level.append(nstate)
        level = next_level
    assert (chambers, functionals) == (132, 59_765)


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


PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def sorted_facets(state):
    return sorted(compute_chamber(state, LPCounter()).facets, key=lambda f: f.normal)


@st.composite
def crossing_walks(draw):
    """A sweep group and up to three facet choices, each taken modulo the
    facet count of the chamber reached so far."""
    spec = draw(st.sampled_from(sweep_groups()))
    return spec, draw(st.lists(st.integers(0, 63), max_size=3))


@PROPERTY
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
