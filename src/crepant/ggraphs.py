"""Nakamura G-graphs: torus-invariant G-clusters and the G-Hilb fan.

A G-graph is a division-closed set of r monomials in x, y, z containing 1,
with exactly one monomial in each character space of G.  Such a set is the
monomial basis of the structure sheaf of a torus-invariant G-cluster; the
locus of the junior simplex on which a given G-graph's monomials minimise
their character spaces is a polyhedral cone, and the three-dimensional
cones are exactly the basic triangles of the fan of the G-Hilbert scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import InternalError
from .fans import Triangulation
from .groups import Character, GroupSpec
from .intlin import det3, dot

Exponent = tuple[int, int, int]

_UNIT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@dataclass(frozen=True)
class GGraph:
    """Mapping character -> monomial exponent, in group character order."""

    gens: tuple[Exponent, ...]  # indexed like group.characters


def _validate_ggraph(g: GroupSpec, members: dict[Exponent, int]) -> None:
    if len(members) != g.r:
        raise InternalError("G-graph does not have r monomials")
    for m in members:
        for i in range(3):
            if m[i] > 0:
                d = tuple(m[k] - _UNIT[i][k] for k in range(3))
                if d not in members:
                    raise InternalError(f"G-graph not division-closed at {m}")


def _freeze(g: GroupSpec, members) -> GGraph:
    gens: list[Exponent | None] = [None] * g.r
    for m in members:
        gens[g.char_index[g.weight(m)]] = m
    if any(x is None for x in gens):
        raise InternalError("G-graph misses a character")
    return GGraph(tuple(gens))


def enumerate_ggraphs(g: GroupSpec) -> list[GGraph]:
    """All G-graphs, by breadth-first growth of division-closed sets.

    A monomial may join a partial set when its immediate divisors are
    already members and its character is still free.  States are memoised
    on the member set, so each division-closed set is expanded once.
    The group's order is at most groups.MAX_GROUP_ORDER (see GroupSpec).
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
    for gg in complete:
        _validate_ggraph(g, {m: 1 for m in gg.gens})
    complete.sort(key=lambda gg: gg.gens)
    return complete


def cone_of(gamma: GGraph, g: GroupSpec) -> tuple[Exponent, ...]:
    """Inequalities cutting out the locus where the G-graph minimises.

    Each returned integer triple q means dot(q, c) >= 0 for r-scaled points
    c of N; the cone is their intersection with the positive octant.  The
    system records, for every character rho and coordinate x_i, that the
    chosen monomial of weight rho*rho_i is minimal against stepping from
    the monomial of weight rho; telescoping along monomial paths makes
    this one-step system equivalent to full minimality.
    """
    ineqs = set()
    for idx, rho in enumerate(g.characters):
        m = gamma.gens[idx]
        for i, u in enumerate(_UNIT):
            target = g.char_add(rho, g.coord_weights[i])
            q = tuple(
                m[k] + u[k] - gamma.gens[g.char_index[target]][k] for k in range(3)
            )
            if q != (0, 0, 0):
                ineqs.add(q)
    return tuple(sorted(ineqs))


def socle(gamma: GGraph, g: GroupSpec) -> set[Character]:
    """Characters of monomials killed by x, y and z in the G-cluster."""
    members = set(gamma.gens)
    out = set()
    for idx, rho in enumerate(g.characters):
        m = gamma.gens[idx]
        if all(
            (m[0] + u[0], m[1] + u[1], m[2] + u[2]) not in members for u in _UNIT
        ):
            out.add(rho)
    return out


def cone_candidate_points(gamma: GGraph, g: GroupSpec):
    """Junior/corner points lying in the G-graph's cone."""
    ineqs = cone_of(gamma, g)
    return [
        p for p in g.junior_points if all(dot(q, p.c) >= 0 for q in ineqs)
    ]


class GHilbFan:
    """The G-Hilb triangulation with the G-graph attached to each triangle."""

    def __init__(self, fan: Triangulation, by_triangle: dict):
        self.fan = fan
        self.by_triangle = by_triangle  # triangle index-triple -> GGraph


@cache
def ghilb_fan(g: GroupSpec) -> GHilbFan:
    """Assemble the fan of the G-Hilbert scheme from maximal G-graphs.

    A G-graph is kept when its cone meets the junior simplex in a basic
    triangle; the triangles must tile the simplex (validated), and there
    are exactly r of them.  Built once per group: groups are interned and
    hash by identity, so the result is kept for the group object.
    """
    r = g.r
    index = {p.c: i for i, p in enumerate(g.junior_points)}
    by_triangle = {}
    for gamma in enumerate_ggraphs(g):
        pts = cone_candidate_points(gamma, g)
        if len(pts) < 3:
            continue
        if len(pts) > 3:
            # A 3-dimensional cone containing more than three junior points
            # cannot be a basic triangle; lower-dimensional cones may meet
            # many collinear points.
            if any(
                det3(a.c, b.c, c.c) != 0
                for a in pts
                for b in pts
                for c in pts
                if a.c < b.c < c.c
            ):
                raise InternalError(
                    f"G-graph cone meets {len(pts)} junior points non-collinearly"
                )
            continue
        d = abs(det3(pts[0].c, pts[1].c, pts[2].c))
        if d == 0:
            continue
        if d != r * r:
            raise InternalError(
                f"G-graph cone spans a non-basic triangle (det {d}, r^2 {r * r})"
            )
        # The points come in junior-point order, sorted by coordinates, so
        # their indices form a sorted triple.
        tri = tuple(index[p.c] for p in pts)
        if tri in by_triangle:
            raise InternalError(
                f"two G-graphs share the maximal cone {tuple(p.c for p in pts)}"
            )
        by_triangle[tri] = gamma
    if len(by_triangle) != r:
        raise InternalError(
            f"found {len(by_triangle)} maximal G-graph cones, expected {r}"
        )
    return GHilbFan(Triangulation(g, by_triangle), by_triangle)
