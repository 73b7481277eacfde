"""Reference for the G-Hilb fan: every G-graph of a group, by breadth-first
growth of division-closed sets, and the fan assembled from the G-graphs
whose cones meet the junior simplex in a basic triangle.  The library walks
the fan's triangles instead (ggraphs.ghilb_fan)."""

from crepant.errors import InternalError
from crepant.ggraphs import _UNIT, GGraph, cone_candidate_points
from crepant.intlin import det3


def _freeze(g, members) -> GGraph:
    gens = [None] * g.r
    for m in members:
        gens[g.char_index[g.weight(m)]] = m
    if any(x is None for x in gens):
        raise InternalError("G-graph misses a character")
    return GGraph(tuple(gens))


def enumerate_ggraphs(g) -> list[GGraph]:
    """All G-graphs, sorted by their monomials.

    A monomial may join a partial set when its immediate divisors are
    already members and its character is still free.  States are memoised
    on the member set, so each division-closed set is expanded once.
    """
    root = frozenset({(0, 0, 0)})
    seen = {root}
    frontier = [root]
    complete: list[GGraph] = []
    while frontier:
        nxt = []
        for state in frontier:
            used = {g.weight(m) for m in state}
            if len(state) == g.r:
                complete.append(_freeze(g, state))
                continue
            candidates = set()
            for m in state:
                for u in _UNIT:
                    cand = (m[0] + u[0], m[1] + u[1], m[2] + u[2])
                    if cand in state or g.weight(cand) in used:
                        continue
                    if all(
                        cand[i] == 0
                        or tuple(cand[k] - _UNIT[i][k] for k in range(3)) in state
                        for i in range(3)
                    ):
                        candidates.add(cand)
            for cand in candidates:
                new = state | {cand}
                if new not in seen:
                    seen.add(new)
                    nxt.append(new)
        frontier = nxt
    complete.sort(key=lambda gg: gg.gens)
    return complete


def reference_fan(g) -> dict:
    """Triangle index-triple -> G-graph, over every G-graph whose cone meets
    the junior simplex in exactly three non-collinear junior points; each
    such triangle must be basic and belong to one G-graph."""
    index = {p.c: i for i, p in enumerate(g.junior_points)}
    by_triangle = {}
    for gamma in enumerate_ggraphs(g):
        pts = cone_candidate_points(gamma, g)
        if len(pts) != 3 or det3(*(p.c for p in pts)) == 0:
            continue
        assert abs(det3(*(p.c for p in pts))) == g.r * g.r
        tri = tuple(index[p.c] for p in pts)
        assert tri not in by_triangle
        by_triangle[tri] = gamma
    return by_triangle
