"""McKay-quiver representations on two-dimensional torus orbits.

A point of a two-dimensional torus orbit of the moduli space determines a
representation of the McKay quiver with all maps monomials in the chart
coordinates; an arrow survives on the orbit exactly when its monomial
avoids the vanishing chart coordinate.  The surviving arrows draw a graph
on the character torus, the quotient of the plane H = Z^3/Z(1,1,1) by the
invariant sublattice.  Its diamonds (commutation cycles with all four
arrows present) tile the torus; a sub/quotient character split carves the
torus into the two domains plus an annular band, whose component count is
the dimension of the extension space between quotient and subsheaf.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalError, PreconditionError, UserError
from .groups import GroupSpec
from .intlin import dot

_UNIT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@dataclass(frozen=True)
class SupportGraph:
    """Nonzero pattern of the quiver representation at an orbit point.

    arrows[(k, i)] is True when the map out of the k-th character along
    coordinate i survives on the orbit; arrow (k, i) points from character
    k to the character of index head[(k, i)].  mult[(k, i)] is the
    vanishing order of the map along the orbit (0 for surviving arrows).
    """

    group: GroupSpec
    arrows: dict  # (char index, coord index) -> bool
    head: dict  # (char index, coord index) -> char index
    mult: dict  # (char index, coord index) -> vanishing order


def orbit_rep(state, triangle_idx: int, vanishing_vertex: int) -> SupportGraph:
    """Support graph of the representation on a two-dimensional orbit.

    The orbit is the one whose closure is the divisor of the given vertex;
    the triangle fixes the chart used to express the universal maps as
    monomials in chart coordinates.  Each map out of character rho along
    coordinate i has chart exponents given by pairing x_i * gen(rho) /
    gen(rho rho_i) against the triangle's vertices; the arrow survives
    exactly when the exponent of the vanishing coordinate is zero.
    """
    g = state.group
    fan = state.fan
    taut = state.taut
    if not 0 <= triangle_idx < len(fan.triangles):
        raise UserError(f"triangle index {triangle_idx} out of range (0 to {len(fan.triangles) - 1})")
    tri = fan.triangles[triangle_idx]
    if vanishing_vertex not in tri:
        raise UserError("vanishing vertex must be a ray of the chart's cone")
    r = g.r
    arrows = {}
    head = {}
    mult = {}
    vpos = tri.index(vanishing_vertex)
    gens = taut.chart(triangle_idx)
    for k, rho in enumerate(g.characters):
        for i in range(3):
            target = g.char_add(rho, g.coord_weights[i])
            kt = g.char_index[target]
            head[(k, i)] = kt
            m = tuple(
                _UNIT[i][j] + gens[k][j] - gens[kt][j]
                for j in range(3)
            )
            exps = []
            for w in tri:
                num = dot(m, fan.vertices[w])
                if num % r:
                    raise InternalError("universal map is not monomial on the chart")
                exps.append(num // r)
            if any(x < 0 for x in exps):
                raise InternalError("universal map has a pole on the chart")
            arrows[(k, i)] = exps[vpos] == 0
            mult[(k, i)] = exps[vpos]
    graph = SupportGraph(g, arrows, head, mult)
    _check_triangle_rule(graph)
    return graph


def _check_triangle_rule(graph: SupportGraph) -> None:
    """Around each commutation triangle exactly one map vanishes, and the
    zero has multiplicity one along the orbit."""
    g = graph.group
    for k in range(g.r):
        for perm in ((0, 1, 2), (0, 2, 1)):
            ks = k
            zeros = 0
            order = 0
            for i in perm:
                if not graph.arrows[(ks, i)]:
                    zeros += 1
                order += graph.mult[(ks, i)]
                ks = graph.head[(ks, i)]
            if ks != k:
                raise InternalError("coordinate walk does not close up")
            if zeros != 1 or order != 1:
                raise InternalError(
                    f"triangle rule violated at character {g.characters[k]}:"
                    f" {zeros} zeros of total order {order}"
                )


# ---------------------------------------------------------------------------
# Diamonds and the torus CW structure


@dataclass(frozen=True)
class Diamond:
    """A commutation cycle with all four arrows present: the 2-cell at
    character k spanned by coordinate directions i < j."""

    k: int
    i: int
    j: int


def diamonds(graph: SupportGraph):
    """All diamonds of the support graph, with diagonal-absence flags.

    Off the big torus every diamond's diagonal arrow is absent; the
    diamonds tile the character torus (one per character in total area).
    """
    g = graph.group
    out = []
    diag_absent = {}
    for k in range(g.r):
        for i in range(3):
            for j in range(i + 1, 3):
                ki = graph.head[(k, i)]
                kj = graph.head[(k, j)]
                if (
                    graph.arrows[(k, i)]
                    and graph.arrows[(k, j)]
                    and graph.arrows[(ki, j)]
                    and graph.arrows[(kj, i)]
                ):
                    d = Diamond(k, i, j)
                    out.append(d)
                    kij = graph.head[(ki, j)]
                    l = 3 - i - j
                    diag_absent[d] = not graph.arrows[(kij, l)]
    return out, diag_absent


def _face_id(graph: SupportGraph, k: int, a: int, b: int):
    """Canonical id of the lattice triangle entered from character k by
    stepping along coordinates a then b; the three corner descriptions are
    identified and the smallest is kept."""
    c = 3 - a - b
    k2 = graph.head[(k, a)]
    k3 = graph.head[(k2, b)]
    reps = [(k, a, b), (k2, b, c), (k3, c, a)]
    return min(reps)


def diamond_faces(graph: SupportGraph, d: Diamond):
    """The two lattice-triangle faces covered by a diamond."""
    return (
        _face_id(graph, d.k, d.i, d.j),
        _face_id(graph, d.k, d.j, d.i),
    )


def check_diamond_cover(graph: SupportGraph) -> None:
    """The diamonds cover the torus with disjoint interiors: their 2r face
    cells are pairwise distinct and exhaust all faces."""
    g = graph.group
    ds, _ = diamonds(graph)
    if len(ds) != g.r:
        raise InternalError(f"{len(ds)} diamonds != group order {g.r}")
    faces = []
    for d in ds:
        faces.extend(diamond_faces(graph, d))
    if len(set(faces)) != 2 * g.r:
        raise InternalError("diamond faces overlap")
    all_faces = {
        _face_id(graph, k, a, b)
        for k in range(g.r)
        for a in range(3)
        for b in range(3)
        if a != b
    }
    if set(faces) != all_faces:
        raise InternalError("diamond faces do not exhaust the torus")


# ---------------------------------------------------------------------------
# Sub/quotient splits and the band


def subsheaf_subsets(graph: SupportGraph):
    """All proper nonempty character subsets closed under the surviving
    arrows (no arrow leaves the subset): the possible subsheaf supports.

    Each subset is returned as a 0/1 class over the characters together
    with connectivity flags for the induced sub- and quotient graphs.
    """
    g = graph.group
    r = g.r
    out = []
    for mask in range(1, (1 << r) - 1):
        members = {k for k in range(r) if (mask >> k) & 1}
        ok = True
        for k in members:
            for i in range(3):
                if graph.arrows[(k, i)] and graph.head[(k, i)] not in members:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        cls = tuple(1 if k in members else 0 for k in range(r))
        out.append(
            (
                cls,
                _connected(graph, members),
                _connected(graph, set(range(r)) - members),
            )
        )
    return out


def _components(nodes, links) -> list:
    """Connected components of the graph on nodes joined by links (pairs
    of nodes), in the order of their first node, each in node order."""
    adj = {n: [] for n in nodes}
    for a, b in links:
        adj[a].append(b)
        adj[b].append(a)
    root = {}
    for n in adj:
        if n not in root:
            root[n] = n
            stack = [n]
            while stack:
                for m in adj[stack.pop()]:
                    if m not in root:
                        root[m] = n
                        stack.append(m)
    comps = {}
    for n in adj:
        comps.setdefault(root[n], []).append(n)
    return list(comps.values())


def _connected(graph: SupportGraph, members) -> bool:
    """Is the graph of the surviving arrows among members connected?"""
    links = [
        (k, graph.head[(k, i)])
        for (k, i), present in graph.arrows.items()
        if present and k in members and graph.head[(k, i)] in members
    ]
    return len(_components(members, links)) == 1


@dataclass(frozen=True)
class BandDecomposition:
    """Sub- and quotient domains on the torus plus the annular band.

    Domains carry their cells (vertices, arrows, diamonds); the band is
    recorded by its diamonds grouped into connected components.
    """

    sub_vertices: frozenset
    quot_vertices: frozenset
    sub_arrows: frozenset
    quot_arrows: frozenset
    sub_diamonds: tuple
    quot_diamonds: tuple
    band_components: tuple  # tuple of tuples of Diamond


def band(graph: SupportGraph, r1_class) -> tuple[BandDecomposition, int]:
    """Band decomposition and the extension dimension of a simple split.

    r1_class is the 0/1 class of the subsheaf characters; both induced
    graphs must be connected (the sub and quotient sheaves are simple).
    The number of connected components of the band computes the dimension
    of the extension space; it is always 1 or 2.
    """
    g = graph.group
    r = g.r
    members = {k for k in range(r) if r1_class[k]}
    if not members or len(members) == r:
        raise PreconditionError("split must be proper and nonempty")
    comp = set(range(r)) - members
    if not _connected(graph, members) or not _connected(graph, comp):
        raise PreconditionError("sub or quotient graph is disconnected (not simple)")
    ds, _ = diamonds(graph)

    def arrow_in(k, i, vs):
        return k in vs and graph.head[(k, i)] in vs

    def diamond_side(d):
        ki = graph.head[(d.k, d.i)]
        kj = graph.head[(d.k, d.j)]
        vs_all = {d.k, ki, kj, graph.head[(ki, d.j)]}
        if vs_all <= members:
            return "sub"
        if vs_all <= comp:
            return "quot"
        return "band"

    sub_d, quot_d, band_d = [], [], []
    for d in ds:
        side = diamond_side(d)
        (sub_d if side == "sub" else quot_d if side == "quot" else band_d).append(d)

    sub_arrows = frozenset(
        (k, i) for (k, i), p in graph.arrows.items() if p and arrow_in(k, i, members)
    )
    quot_arrows = frozenset(
        (k, i) for (k, i), p in graph.arrows.items() if p and arrow_in(k, i, comp)
    )
    # Mixed arrows (quotient to sub) join band diamonds into components.
    arrow_faces: dict = {}
    for d in band_d:
        ki = graph.head[(d.k, d.i)]
        kj = graph.head[(d.k, d.j)]
        for cell in ((d.k, d.i), (d.k, d.j), (ki, d.j), (kj, d.i)):
            if cell not in sub_arrows and cell not in quot_arrows:
                arrow_faces.setdefault(cell, []).append(d)
    links = []
    for cell, faces in arrow_faces.items():
        if len(faces) > 2:
            raise InternalError("an arrow borders more than two diamonds")
        if len(faces) == 2:
            links.append(faces)
    components = tuple(map(tuple, _components(band_d, links)))
    ext1 = len(components)
    if ext1 > 2:
        raise InternalError(f"band has {ext1} components; the bound is 2")
    decomposition = BandDecomposition(
        frozenset(members),
        frozenset(comp),
        sub_arrows,
        quot_arrows,
        tuple(sub_d),
        tuple(quot_d),
        components,
    )
    return decomposition, ext1


def is_rigid(graph: SupportGraph, r1_class, side: str) -> bool:
    """Is the chosen side's sheaf rigid?  Requires extension dimension 1;
    the test is simple-connectedness of the side's domain, via the Euler
    characteristic of its cells (V - E + F = 1 for a disc-like domain)."""
    decomposition, ext1 = band(graph, r1_class)
    if ext1 != 1:
        raise PreconditionError("rigidity test requires extension dimension 1")
    return _domain_simply_connected(decomposition, side)


def _domain_simply_connected(dec: BandDecomposition, side: str) -> bool:
    if side == "sub":
        v, e, f = dec.sub_vertices, dec.sub_arrows, dec.sub_diamonds
    elif side == "quot":
        v, e, f = dec.quot_vertices, dec.quot_arrows, dec.quot_diamonds
    else:
        raise UserError("side must be 'sub' or 'quot'")
    return len(v) - len(e) + len(f) == 1


def two_dim_orbits(state):
    """All (triangle index, vertex) pairs describing the fan's
    two-dimensional orbits, one chart per ray."""
    fan = state.fan
    out = []
    for v in range(len(fan.vertices)):
        tris = fan.triangles_at_vertex(v)
        if tris:
            out.append((tris[0], v))
    return out
