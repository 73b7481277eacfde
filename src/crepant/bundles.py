"""Tautological line bundles on toric crepant resolutions, exactly.

A torus-invariant line bundle on the resolution is a divisor: one
coefficient per ray of the fan, stored r-scaled as integers.  These ray
coefficients, one row per character in the canonical form of the group's
principal_reducer, are the whole state of a tautological bundle: they are
its key and its token format.  Rows from outside (a decoded token, the
G-Hilbert scheme's G-graphs) enter through TautBundle.from_coeffs, which
reduces them and checks every chart; wall crossings update canonical rows
directly and keep them canonical (a divisor twist adds a multiple of r on
non-corner rays, and the reducer pivots on the corners; flops keep the
rows).  Everything else is derived: the chart generator on a triangle is
the Laurent exponent pairing to minus the coefficients of its three
vertices, solved on demand through the fan's inverse of that triangle and
checked for integrality and character; degrees and star-surface
restrictions are per-fan linear maps of the coefficients (the fan's
geometry, a fans.FanGeometry).  A row's degrees on the compact curves
come from one map, FanGeometry.edge_degrees, and the class of a curve's
structure sheaf is one plus each row's degree on it.  The tautological
bundle T_rho of the G-Hilbert scheme starts from its chart generators,
the G-graph monomials of weight rho.

Euler characteristics on star surfaces (integer Riemann-Roch on this data)
and the R(G)-valued classes of restricted bundles are assembled in
chambers.ClassTable.
"""

from __future__ import annotations

from .errors import InternalError, PreconditionError
from .fans import Triangulation
from .groups import GroupSpec
from .intlin import dot

Exponent = tuple[int, int, int]

# ---------------------------------------------------------------------------
# The tautological bundle


class TautBundle:
    """One line bundle per character, with trivial bundle at the trivial
    character; immutable and canonical.

    coeffs[k][w] is the r-scaled ray coefficient at vertex w of the k-th
    character's bundle, reduced to its canonical representative; these
    rows are the whole state.  Chart generators, degrees and restrictions
    are read off them: chart(ti) solves the generators on one triangle,
    and the fan's geometry maps give degrees (edge_degrees) and star
    restrictions.
    """

    def __init__(self, group: GroupSpec, fan: Triangulation, coeffs):
        """Bundle from canonical rows whose charts are integral and of
        their characters; checks nothing.

        from_coeffs makes such rows from any rows and checks every chart.
        A divisor twist off the corners and a flop keep them canonical,
        since the reducer pivots on the corner columns alone, and keep the
        checked charts (see twist and proper_transform)."""
        self.group = group
        self.fan = fan
        self.coeffs = coeffs

    @classmethod
    def from_coeffs(cls, group: GroupSpec, fan: Triangulation, coeffs) -> "TautBundle":
        """Bundle from ray coefficients given from outside: checks the
        shape (r rows of one entry per vertex), reduces every row to its
        canonical form, checks that the trivial character's row vanishes,
        and solves and checks every chart before it returns."""
        nv = len(fan.vertices)
        if len(coeffs) != group.r or any(len(row) != nv for row in coeffs):
            raise PreconditionError(
                f"coefficient data must be {group.r} rows of {nv} entries"
            )
        reduce_row = group.principal_reducer
        taut = cls(group, fan, tuple(reduce_row(row) for row in coeffs))
        if any(taut.coeffs[group.char_index[group.trivial]]):
            raise InternalError(
                "tautological bundle of the trivial character not trivial"
            )
        for ti in range(len(fan.triangles)):
            taut.chart(ti)
        return taut

    # -- basic data ---------------------------------------------------------

    def chart(self, ti: int) -> tuple[Exponent, ...]:
        """Chart generators on triangle ti, one per character.

        The generator pairs to minus the coefficients at the triangle's
        vertices; the fan's inverse of the basic triangle gives the unique
        such exponent, which must be integral and of its bundle's
        character.
        """
        fan = self.fan
        t = fan.triangles[ti]
        out = []
        for rho, row in zip(self.group.characters, self.coeffs):
            m = fan.exponent(ti, [-row[i] for i in t])
            if m is None:
                raise InternalError(f"non-integral chart generator on triangle {t}")
            if self.group.weight(m) != rho:
                raise InternalError("chart generator has wrong character")
            out.append(m)
        return tuple(out)

    @property
    def gens(self):
        """Chart generators of every bundle on every triangle, gens[k][t]."""
        charts = [self.chart(ti) for ti in range(len(self.fan.triangles))]
        return tuple(zip(*charts))

    @property
    def key(self):
        return self.coeffs

    # -- wall-crossing updates ----------------------------------------------

    def twist(self, vertices, mult) -> "TautBundle":
        """Type-0 and type-III update: the k-th bundle becomes T_k(mult[k] D)
        for D the reduced divisor of the vertices (mult[0] = 0 keeps the
        trivial bundle trivial).

        O(D) has r-scaled coefficient r on the vertices and 0 elsewhere.
        Twisting by it keeps every chart integral and of its character, so
        charts are not re-solved.  The vertices must not be corners: a
        twist off the corners leaves the corner columns, on which the
        reducer pivots, and so keeps every row canonical."""
        vertices = frozenset(vertices)
        if any(self.fan.vertex_kind[w] == "corner" for w in vertices):
            raise PreconditionError("a divisor twist must not touch a corner vertex")
        r = self.group.r
        coeffs = tuple(
            tuple(c + m * r if w in vertices else c for w, c in enumerate(row)) if m else row
            for row, m in zip(self.coeffs, mult, strict=True)
        )
        return TautBundle(self.group, self.fan, coeffs)

    def proper_transform(self, new_fan: Triangulation) -> "TautBundle":
        """Type-I update: ray coefficients are unchanged by a flop, and
        only the charts on triangles new in new_fan are solved and checked.

        A chart depends only on its triangle and the coefficients at its
        three vertices, so a triangle kept by the flop keeps the chart
        already checked on this bundle (see __init__)."""
        taut = TautBundle(self.group, new_fan, self.coeffs)
        old = set(self.fan.triangles)
        for ti, t in enumerate(new_fan.triangles):
            if t not in old:
                taut.chart(ti)
        return taut


def ghilb_taut(g: GroupSpec, gh) -> TautBundle:
    """Tautological bundle of the G-Hilbert scheme: the chart generator of
    T_rho on a triangle is the G-graph monomial of weight rho, and the
    bundle's ray coefficient at a vertex is minus its pairing with that
    vertex, the same on every triangle at the vertex."""
    fan = gh.fan
    rows = [[None] * len(fan.vertices) for _ in range(g.r)]
    for t in fan.triangles:
        for row, m in zip(rows, gh.by_triangle[t].gens, strict=True):
            for w in t:
                val = -dot(m, fan.vertices[w])
                if row[w] is None:
                    row[w] = val
                elif row[w] != val:
                    raise InternalError(
                        f"PL-inconsistent chart generators at vertex {fan.vertices[w]}"
                    )
    return TautBundle.from_coeffs(g, fan, rows)
