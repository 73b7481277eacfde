"""Unimodular triangulations of the junior simplex and their toric geometry.

A triangulation is stored against the fixed vertex list of all junior
points plus the three corners, r-scaled (see groups).  Triangles are sorted
index triples; the triangle list is kept sorted, which makes the triple
list itself the canonical key used for fan deduplication.

The toric dictionary used throughout: vertices of the triangulation are
rays of the fan (divisors of the resolution), edges are two-dimensional
cones (curves; compact exactly when the edge is interior to the simplex),
triangles are three-dimensional cones (chart fixed points).

Each fan key has one Triangulation object (its constructor interns).  Its
per-triangle inverses serve every exact solve in a triangle's basis: edge
relations, star-ray coordinates and chart generators; it also walks the
rays of a star in cyclic order.  Everything a line bundle's invariants
need besides the bundle itself is that object's geometry attribute, a
FanGeometry built on first use: one table per compact curve (its edge's
opposite vertices and normal degrees, solved once), star surfaces whose
self-intersections are read off that table, incidence tables, the two
linear maps that read curve degrees and star restrictions off a bundle's
r-scaled ray coefficients, and the connected compact-divisor subsets over
which the chamber inequalities are assembled (grown from the singletons,
at most MAX_DIVISOR_SETS of them).  Flips and wall classification read
the curve table too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import CapError, DegenerateEdgeError, InternalError, InvalidFlipError, UserError
from .groups import GroupSpec
from .intlin import cross, dot, inverse3, primitive, solve3

# Most connected compact-divisor sets of a fan (FanGeometry.subsets).  Each
# set carries 2r inequalities of r entries: at r = 64, `crepant chamber`
# grew by about 0.2 MB per set (1/64(1,1,62): 496 sets, 64 MB max RSS for
# compute_chamber and 160 MB for the command on a 2-vCPU host), so this
# many sets stay under 1 GB.
MAX_DIVISOR_SETS = 3_000


@dataclass(frozen=True)
class Edge:
    """An edge of a triangulation, with the triangles adjacent to it."""

    endpoints: tuple[int, int]  # vertex indices, sorted
    triangles: tuple[int, ...]  # adjacent triangle indices (1 or 2)

    @property
    def interior(self) -> bool:
        return len(self.triangles) == 2


class Triangulation:
    """A basic (unimodular) triangulation of the junior simplex.

    There is one object per group and triangle key.  Construction sorts the
    triangles into the key before it builds anything and returns the object
    already built for that key, which was validated then; a triangle list
    that fails validation enters nothing.  Identity is therefore key
    equality, and the fan's geometry is an attribute of the one object.
    Unpickling goes through the constructor as well.
    """

    _interned: dict = {}

    def __new__(cls, group: GroupSpec, triangles):
        key = (group, tuple(sorted(tuple(sorted(t)) for t in triangles)))
        self = cls._interned.get(key)
        if self is not None:
            return self
        self = super().__new__(cls)
        self.group, self.triangles = key
        self.vertices = tuple(p.c for p in group.junior_points)
        self.vertex_kind = tuple(p.kind for p in group.junior_points)
        self.vindex = {c: i for i, c in enumerate(self.vertices)}
        self._build_edges()
        self._validate()
        cls._interned[key] = self
        return self

    def __reduce__(self):
        return Triangulation, (self.group, self.triangles)

    @cached_property
    def geometry(self) -> "FanGeometry":
        return FanGeometry(self)

    def _build_edges(self):
        edge_map: dict[tuple[int, int], list[int]] = {}
        for ti, t in enumerate(self.triangles):
            for a, b in ((0, 1), (0, 2), (1, 2)):
                key = (t[a], t[b])
                edge_map.setdefault(key, []).append(ti)
        self.edges = tuple(
            Edge(k, tuple(v)) for k, v in sorted(edge_map.items())
        )
        self.edge_map = {e.endpoints: e for e in self.edges}
        self.interior_edges = tuple(e for e in self.edges if e.interior)

    def _on_boundary(self, i: int, j: int) -> bool:
        a, b = self.vertices[i], self.vertices[j]
        return any(a[k] == 0 and b[k] == 0 for k in range(3))

    def _validate(self):
        r = self.group.r
        if len(self.triangles) != r:
            raise InternalError(
                f"expected {r} triangles, got {len(self.triangles)}"
            )
        # Per triangle, its inverse: d and dual rows with c_j . t_i = d [i == j].
        inverses = []
        for t in self.triangles:
            a, b, c = (self.vertices[i] for i in t)
            dual, d = inverse3(a, b, c)
            if abs(d) != r * r:
                raise InternalError(f"triangle {t} is not basic (det {abs(d)} != r^2)")
            inverses.append((dual, d))
        self.inverses = tuple(inverses)
        used = set()
        for t in self.triangles:
            used.update(t)
        if used != set(range(len(self.vertices))):
            raise InternalError("triangulation does not use every junior point")
        for e in self.edges:
            if len(e.triangles) > 2:
                raise InternalError(f"edge {e.endpoints} lies in >2 triangles")
            boundary = self._on_boundary(*e.endpoints)
            if boundary and len(e.triangles) != 1:
                raise InternalError(f"boundary edge {e.endpoints} not on exactly 1 triangle")
            if not boundary and len(e.triangles) != 2:
                raise InternalError(f"interior edge {e.endpoints} not shared by 2 triangles")

    @property
    def key(self):
        return self.triangles

    def interior_vertices(self):
        return tuple(i for i, k in enumerate(self.vertex_kind) if k == "interior")

    def edge(self, i: int, j: int) -> Edge:
        key = (i, j) if i < j else (j, i)
        try:
            return self.edge_map[key]
        except KeyError:
            raise UserError(f"no edge {key} in this triangulation") from None

    def triangles_at_vertex(self, v: int) -> tuple[int, ...]:
        return tuple(ti for ti, t in enumerate(self.triangles) if v in t)

    def star_rays(self, v: int) -> tuple[int, ...]:
        """The neighbours of an interior vertex in cyclic order: the edges
        opposite v in its triangles form the link, a cycle, walked from its
        smallest vertex."""
        link = {}
        for ti in self.triangles_at_vertex(v):
            p, q = (i for i in self.triangles[ti] if i != v)
            link.setdefault(p, []).append(q)
            link.setdefault(q, []).append(p)
        if any(len(nbrs) != 2 for nbrs in link.values()):
            raise InternalError(f"star of {self.vertices[v]} is not a closed fan")
        prev = start = min(link)
        rays = [start]
        ray = link[start][0]
        while ray != start:
            rays.append(ray)
            p, q = link[ray]
            prev, ray = ray, (q if p == prev else p)
        if len(rays) != len(link):
            raise InternalError(f"star of {self.vertices[v]} is not a closed fan")
        return tuple(rays)

    def coords(self, ti: int, v: int) -> dict:
        """Vertex v as an integer combination of triangle ti's vertices,
        {vertex: coefficient} in the triangle's vertex order; integral
        because the triangle is basic."""
        dual, d = self.inverses[ti]
        qr = [divmod(dot(c, self.vertices[v]), d) for c in dual]
        if any(rem for _, rem in qr):
            raise InternalError(f"triangle {self.triangles[ti]} is not a lattice basis")
        return {w: q for w, (q, _) in zip(self.triangles[ti], qr)}

    def exponent(self, ti: int, values):
        """The exponent m with m . t_j = values[j] at the vertices t_j of
        triangle ti, or None when it is not integral."""
        return solve3(self.inverses[ti], values)


def _curve(t: Triangulation, e: Edge) -> tuple:
    """(v1, v2, w1, w2, a, b) for an interior edge, with v1 + v2 + a*w1 +
    b*w2 = 0 in N.

    Here (w1, w2) = e.endpoints and v1, v2 are the vertices opposite e in
    its two triangles, so v2 has coordinates (-1, -a, -b) in the basis
    (v1, w1, w2) of the first.  The normal bundle of the edge's curve is
    O(a) + O(b) and crepancy forces a + b = -2.
    """
    w1, w2 = e.endpoints
    v1, v2 = (next(i for i in t.triangles[ti] if i not in e.endpoints) for ti in e.triangles)
    alpha = t.coords(e.triangles[0], v2)
    if alpha[v1] != -1:
        raise InternalError(f"no integral relation at edge {e.endpoints}")
    a, b = -alpha[w1], -alpha[w2]
    if a + b != -2:
        raise InternalError(f"edge {e.endpoints} violates crepancy: a+b = {a + b}")
    return v1, v2, w1, w2, a, b


def flip(t: Triangulation, e: Edge) -> Triangulation:
    """Flip a (-1,-1) edge: exchange the diagonal of its quadrilateral.
    The flipped fan is the one object of its key (see Triangulation)."""
    geo = t.geometry
    degrees = geo.relation(e)
    if degrees != (-1, -1):
        raise InvalidFlipError(
            f"edge {e.endpoints} has degrees {tuple(sorted(degrees))}, not (-1,-1)"
        )
    v1, v2, w1, w2 = geo.curves[geo.edge_idx[e.endpoints]][:4]
    tris = [list(tr) for ti, tr in enumerate(t.triangles) if ti not in e.triangles]
    tris.append([v1, v2, w1])
    tris.append([v1, v2, w2])
    return Triangulation(t.group, tris)


def line_ratio(t: Triangulation, e: Edge, g: GroupSpec):
    """Invariant monomial ratio (m1, m2) cutting out an interior edge's line.

    m1 - m2 is the primitive invariant Laurent exponent vanishing on both
    endpoints of the edge; the common character of the two monomials is
    returned with them.
    """
    if not e.interior:
        raise DegenerateEdgeError(f"edge {e.endpoints} is a boundary edge")
    # The kernel of two independent vectors of Z^3 is spanned by their
    # primitive cross product; its sign is fixed by the ordering below.
    k = primitive(cross(*(t.vertices[i] for i in e.endpoints)))
    if not any(k):
        raise InternalError(f"edge {e.endpoints} has parallel endpoints")
    m = tuple(x * g.char_order(g.weight(k)) for x in k)
    m1 = tuple(max(x, 0) for x in m)
    m2 = tuple(max(-x, 0) for x in m)

    def pure_power(v):
        return sum(1 for x in v if x) == 1

    if (pure_power(m2) and not pure_power(m1)) or (
        pure_power(m1) == pure_power(m2) and m2 > m1
    ):
        m1, m2 = m2, m1
    rho = g.weight(m1)
    if rho != g.weight(m2):
        raise InternalError("ratio sides have different weights")
    return m1, m2, rho


@dataclass(frozen=True)
class StarSurface:
    """The complete toric surface fan of a compact divisor.

    rays lists the neighbor vertices of the center in cyclic order; selfint
    holds the integer b_i with u_{i-1} + u_{i+1} + b_i u_i = 0 modulo the
    center direction, which is the self-intersection of the i-th boundary
    curve on the surface.
    """

    center: int
    rays: tuple[int, ...]
    selfint: tuple[int, ...]


def flip_reachable_fans(t0: Triangulation, cap: int = 100_000) -> dict:
    """BFS closure of a triangulation under flips of (-1,-1) interior edges.

    Returns {canonical key: Triangulation}; raises CapError above cap fans,
    counting t0.
    """
    if cap < 1:
        raise CapError(f"flip closure exceeded cap of {cap} fans")
    seen = {t0.key: t0}
    frontier = [t0]
    while frontier:
        nxt = []
        for t in frontier:
            geo = t.geometry
            for e in t.interior_edges:
                if geo.relation(e) != (-1, -1):
                    continue
                t2 = flip(t, e)
                if t2.key not in seen:
                    if len(seen) >= cap:
                        raise CapError(f"flip closure exceeded cap of {cap} fans")
                    seen[t2.key] = t2
                    nxt.append(t2)
        frontier = nxt
    return seen


class DivisorSubset(NamedTuple):
    """A connected set of compact divisors, grown by one vertex from an
    earlier member of its fan's subset list.

    verts minus vertex is the connected subset at position parent (None
    when verts is vertex alone); joins holds the interior-edge indices of
    the double curves joining vertex to the parent.  sub_const and
    quot_const are the bundle-independent terms of the restriction and
    canonical classes (see chambers.ClassTable).
    """

    verts: tuple
    parent: int | None
    vertex: int
    joins: tuple
    sub_const: int
    quot_const: int


class FanGeometry:
    """Bundle-independent data of a fan: star surfaces, incidence tables,
    linear maps on r-scaled ray-coefficient rows, and the connected
    compact-divisor subsets.  It is built once per fan key, as the
    geometry attribute of the fan's one Triangulation object.

    Each compact curve, the curve of an interior edge (w1, w2), has one
    entry (v1, v2, w1, w2, a, b) in curves, in interior-edge order: the
    vertices v1, v2 opposite the edge and its relation v1 + v2 + a*w1 +
    b*w2 = 0, solved once when the geometry is built.  A row c lists, per
    vertex, r times the coefficient of a line bundle's torus-invariant
    divisor; its degree on the curve is (c[v1] + c[v2] + a*c[w1] +
    b*c[w2]) / r.  Its restriction to the star surface of an
    interior vertex v is normalised to vanish on a base chart t at v: a ray
    u = sum alpha_i t_i (integer alpha, as t is basic) gets coefficient
    (c[u] - sum alpha_i c[t_i]) / r.  Both maps raise when r does not
    divide, which means the row is not the data of a line bundle.
    """

    def __init__(self, fan: Triangulation):
        r = fan.group.r
        self.fan = fan
        self.r = r
        self.interior = fan.interior_vertices()
        self.edges = fan.interior_edges
        self.edge_idx = {e.endpoints: i for i, e in enumerate(self.edges)}
        # The compact curves on each compact divisor.
        self.edges_at = {
            v: tuple(e for e in self.edges if v in e.endpoints) for v in self.interior
        }
        self.curves = tuple(_curve(fan, e) for e in self.edges)
        self.stars = {}
        self._star_terms = {}
        for v in self.interior:
            rays = fan.star_rays(v)
            # b_i is the coefficient of u_i in the relation of the curve
            # {v, u_i}, whose opposite vertices are u_(i-1) and u_(i+1).
            curves = (self.curves[self.edge_idx[min(u, v), max(u, v)]] for u in rays)
            selfint = tuple(a if u == w1 else b for u, (_, _, w1, _, a, b) in zip(rays, curves))
            self.stars[v] = StarSurface(v, rays, selfint)
            ti = fan.triangles_at_vertex(v)[0]
            self._star_terms[v] = (
                fan.triangles[ti],
                [(u, tuple(fan.coords(ti, u).values())) for u in rays],
            )
        # O(D_u) has r-scaled coefficient r at u and 0 elsewhere.
        nv = len(fan.vertices)
        unit = {u: [r if w == u else 0 for w in range(nv)] for u in self.interior}
        self.div_edge_deg = {u: self.edge_degrees(unit[u]) for u in self.interior}
        self.div_star_coeffs = {
            v: {u: self.restrict_to_star(v, unit[u]) for u in self.interior}
            for v in self.interior
        }
        # O(D_u) restricts to zero on the star of v unless u is v or one of
        # its compact neighbours, so only those twist products are kept:
        # M_v applied to the restriction of O(D_u).
        interior = set(self.interior)
        self.neighbours = {
            v: tuple(u for u in self.stars[v].rays if u in interior)
            for v in self.interior
        }
        self.twist_ops = {
            v: {u: self.apply_op(v, self.div_star_coeffs[v][u]) for u in (v,) + nbrs}
            for v, nbrs in self.neighbours.items()
        }

    @cached_property
    def subsets(self) -> tuple:
        """The sets of compact divisors that are connected through double
        curves, as DivisorSubset records in the order of their bit masks
        over the interior vertices.  The sets are grown from the singletons
        by one adjacent vertex at a time, and CapError is raised as soon as
        there are more than MAX_DIVISOR_SETS of them.  A set's parent drops
        the last of its vertices whose removal leaves a connected set (any
        leaf of a spanning tree will do, so there is one)."""
        interior = self.interior
        bit = {v: 1 << i for i, v in enumerate(interior)}
        adj = {v: sum(bit[u] for u in nbrs) for v, nbrs in self.neighbours.items()}
        level = [(bit[v], adj[v]) for v in interior]  # (set, vertices adjacent to it)
        connected = {mask for mask, _ in level}
        while level:
            grown = []
            for mask, rim in level:
                for v, b in bit.items():
                    new = mask | b
                    if rim & b and new not in connected:
                        if len(connected) == MAX_DIVISOR_SETS:
                            raise CapError(
                                f"the connected sets of {len(interior)} compact divisors"
                                f" exceed the limit of {MAX_DIVISOR_SETS}"
                            )
                        connected.add(new)
                        grown.append((new, (rim | adj[v]) & ~new))
            level = grown
        position = {0: None}
        out = []
        for mask in sorted(connected):
            verts = tuple(v for v in interior if mask & bit[v])
            vertex = next(v for v in reversed(verts) if mask ^ bit[v] in position)
            joins = tuple(
                self.edge_idx[min(u, vertex), max(u, vertex)]
                for u in self.neighbours[vertex]
                if mask & bit[u]
            )
            parent = position[mask ^ bit[vertex]]
            position[mask] = len(out)
            out.append(DivisorSubset(verts, parent, vertex, joins, *self._constants(verts)))
        return tuple(out)

    def _constants(self, verts):
        """Triangles minus double curves inside a divisor set, and the
        quadratic twist term (t.Mt + 1.Mt)/2 summed over its components,
        with t the restriction of O(D) to the component's star, minus the
        degree of O(D) summed over those double curves."""
        vset = frozenset(verts)
        inside = [ei for (p, q), ei in self.edge_idx.items() if p in vset and q in vset]
        ntri = sum(1 for t in self.fan.triangles if vset.issuperset(t))
        ediv = sum(self.div_edge_deg[u][ei] for ei in inside for u in verts)
        q_total = 0
        for v in verts:
            near = [u for u in (v,) + self.neighbours[v] if u in vset]
            t = [sum(col) for col in zip(*(self.div_star_coeffs[v][u] for u in near))]
            mt = self.apply_op(v, t)
            q2 = sum(a * b for a, b in zip(t, mt)) + sum(mt)
            if q2 % 2:
                raise InternalError("odd quadratic correction in chi expansion")
            q_total += q2 // 2
        return ntri - len(inside), q_total - ediv

    def edge_degrees(self, row) -> list:
        """Degrees of the bundle with coefficient row on every compact
        curve, in interior-edge order."""
        r = self.r
        out = []
        for v1, v2, w1, w2, a, b in self.curves:
            d, rem = divmod(row[v1] + row[v2] + a * row[w1] + b * row[w2], r)
            if rem:
                raise InternalError("non-integral degree; coefficients are not a bundle")
            out.append(d)
        return out

    def relation(self, e: Edge) -> tuple[int, int]:
        """The relation (a, b) of an interior edge, in endpoint order: its
        curve's normal bundle is O(a) + O(b)."""
        if not e.interior:
            raise DegenerateEdgeError(f"edge {e.endpoints} is a boundary edge")
        return self.curves[self.edge_idx[e.endpoints]][4:]

    def restrict_to_star(self, v: int, row) -> tuple[int, ...]:
        """Ray coefficients, in the star's cyclic ray order, of the bundle
        with coefficient row restricted to the star surface of v."""
        r = self.r
        (t0, t1, t2), terms = self._star_terms[v]
        c0, c1, c2 = row[t0], row[t1], row[t2]
        out = []
        for u, (a0, a1, a2) in terms:
            x, rem = divmod(row[u] - a0 * c0 - a1 * c1 - a2 * c2, r)
            if rem:
                raise InternalError("non-integral restriction; coefficients are not a bundle")
            out.append(x)
        return tuple(out)

    def apply_op(self, v, c):
        # Intersection operator of a star: (M c)_i = c_{i-1} + b_i c_i + c_{i+1}.
        b = self.stars[v].selfint
        n = len(b)
        return [c[(i - 1) % n] + b[i] * c[i] + c[(i + 1) % n] for i in range(n)]
