"""Nakamura G-graphs: torus-invariant G-clusters and the G-Hilb fan.

A G-graph is a division-closed set of r monomials in x, y, z containing 1,
with exactly one monomial in each character space of G.  Such a set is the
monomial basis of the structure sheaf of a torus-invariant G-cluster; the
locus of the junior simplex on which a given G-graph's monomials minimise
their character spaces is a polyhedral cone, and the three-dimensional
cones are exactly the basic triangles of the fan of the G-Hilbert scheme.

At a point x inside a triangle of that fan, the triangle's G-graph holds,
per character, the monomial m minimising <m, x> (Nakamura, Hilbert schemes
of abelian group orbits), which a Dijkstra search from 1 finds; its cone
gives the triangle.  The fan is walked from the point (r, r, r), stepping
just across each interior edge to reach the neighbouring triangle, so
building it costs one search per triangle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from heapq import heappop, heappush
from itertools import combinations

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


def _validate_ggraph(g: GroupSpec, members: set[Exponent]) -> None:
    if len(members) != g.r:
        raise InternalError("G-graph does not have r monomials")
    for m in members:
        for i in range(3):
            if m[i] > 0:
                d = tuple(m[k] - _UNIT[i][k] for k in range(3))
                if d not in members:
                    raise InternalError(f"G-graph not division-closed at {m}")


@cache
def _coord_steps(g: GroupSpec) -> tuple[tuple[int, int, int], ...]:
    """Per character index j, the indices of its products with the
    weights of x, y and z: the character of m times x_i is row j, entry i,
    when m has character j."""
    return tuple(
        tuple(g.char_index[g.char_add(rho, w)] for w in g.coord_weights)
        for rho in g.characters
    )


def least_monomials(g: GroupSpec, x) -> GGraph:
    """Per character, the monomial m least under the key
    (<m, x>, <m, y0>, m), with y0 = (1, r+1, (r+1)^2), for x non-negative.

    The key orders N^3 totally and is kept by multiplication, so every
    divisor of a least monomial is least in its own character.  A
    Dijkstra search from 1, stepping along x, y and z, therefore expands
    only the first monomial it pops in each character and stops once
    every character has one.  The set is a G-graph; for x inside a
    triangle of the G-Hilb fan it is that triangle's G-graph (Nakamura).
    """
    r = g.r
    y0 = (1, r + 1, (r + 1) ** 2)
    steps = _coord_steps(g)
    gens: list[Exponent | None] = [None] * r
    heap = [(0, 0, (0, 0, 0), g.char_index[g.trivial])]
    left = r
    while left:
        kx, ky, m, j = heappop(heap)
        if gens[j] is not None:
            continue
        gens[j] = m
        left -= 1
        for u, xi, yi, k in zip(_UNIT, x, y0, steps[j]):
            if gens[k] is None:
                n = (m[0] + u[0], m[1] + u[1], m[2] + u[2])
                heappush(heap, (kx + xi, ky + yi, n, k))
    return GGraph(tuple(gens))

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
    gens = gamma.gens
    for m, row in zip(gens, _coord_steps(g)):
        for u, k in zip(_UNIT, row):
            t = gens[k]
            q = (m[0] + u[0] - t[0], m[1] + u[1] - t[1], m[2] + u[2] - t[2])
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
    """Assemble the fan of the G-Hilbert scheme by walking its triangles.

    The walk starts at the point (r, r, r).  At each point it takes the
    least monomials (least_monomials), and their cone must meet the junior
    simplex in a basic triangle.  From a triangle with an interior edge
    (a, b) opposite c whose far side is not yet known, it steps to
    K(a+b) + (a+b-2c), K = 8r, a point just across that edge and inside
    the neighbour, which must contain a and b.  Each edge is crossed at
    most once, so the walk solves exactly one point per triangle.  There
    must be exactly r triangles, one G-graph each, and Triangulation
    validates the tiling.  Built once per group: groups are interned and
    hash by identity, so the result is kept for the group object.
    """
    r = g.r
    verts = [p.c for p in g.junior_points]
    index = {c: i for i, c in enumerate(verts)}
    found = {}
    walk = []  # the triangles in the order found
    sides: dict[tuple[int, int], int] = {}  # edge -> found triangles on it

    def visit(x) -> tuple[int, ...]:
        gamma = least_monomials(g, x)
        _validate_ggraph(g, set(gamma.gens))
        pts = cone_candidate_points(gamma, g)
        if len(pts) != 3:
            raise InternalError(
                f"G-graph cone at {x} meets {len(pts)} junior points, not a triangle"
            )
        d = abs(det3(pts[0].c, pts[1].c, pts[2].c))
        if d != r * r:
            raise InternalError(
                f"G-graph cone spans a non-basic triangle (det {d}, r^2 {r * r})"
            )
        # The points come in junior-point order, sorted by coordinates, so
        # their indices form a sorted triple.
        tri = tuple(index[p.c] for p in pts)
        if tri in found:
            raise InternalError(
                f"two G-graphs share the maximal cone {tuple(p.c for p in pts)}"
            )
        found[tri] = gamma
        walk.append(tri)
        for e in combinations(tri, 2):
            sides[e] = sides.get(e, 0) + 1
        return tri

    visit((r, r, r))
    for i, j, k in walk:
        for e, opp in (((j, k), i), ((i, k), j), ((i, j), k)):
            a, b, c = verts[e[0]], verts[e[1]], verts[opp]
            if sides[e] == 2 or any(a[n] == b[n] == 0 for n in range(3)):
                continue
            # With d the neighbour's third vertex, c = -d - p*a - q*b for
            # the edge's normal degrees p + q = -2, so x is a positive sum of
            # a, b and d while K + 1 + 2p and K + 1 + 2q are positive.
            x = tuple((8 * r + 1) * (a[n] + b[n]) - 2 * c[n] for n in range(3))
            if not set(e) <= set(visit(x)):
                raise InternalError(f"the step across edge {a} -- {b} left its neighbour")
    if len(found) != r:
        raise InternalError(f"found {len(found)} maximal G-graph cones, expected {r}")
    fan = Triangulation(g, found)
    return GHilbFan(fan, {t: found[t] for t in fan.triangles})
