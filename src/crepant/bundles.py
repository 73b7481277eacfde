"""Tautological line bundles on toric crepant resolutions, exactly.

A torus-invariant line bundle on the resolution is a divisor: one
coefficient per ray of the fan, stored r-scaled as integers.  These ray
coefficients, one row per character and reduced modulo the principal
(invariant-exponent) rows to a canonical form by the group's
principal_reducer, are the whole state of a tautological bundle: they are
its key and its token format, and wall crossings update them directly
(a divisor twist adds a multiple of r on the divisor's rays; flops keep
them).  Everything else is derived: the chart generator on a triangle is
the Laurent exponent pairing to minus the coefficients of its three
vertices, solved on demand and checked for integrality and character;
degrees and star-surface restrictions are per-fan linear maps of the
coefficients (the fan's geometry, a fans.FanGeometry).  The tautological
bundle T_rho of the G-Hilbert scheme starts from its chart generators, the
G-graph monomials of weight rho.

Euler characteristics on star surfaces (integer Riemann-Roch on this data)
and the R(G)-valued classes of restricted bundles are assembled in
chambers.ClassTable.
"""

from __future__ import annotations

from .errors import InternalError, PreconditionError
from .fans import Triangulation
from .groups import Character, GroupSpec
from .intlin import dot, solve3_int

Exponent = tuple[int, int, int]

# ---------------------------------------------------------------------------
# The tautological bundle


class TautBundle:
    """One line bundle per character, with trivial bundle at the trivial
    character; immutable and canonicalised.

    coeffs[k][w] is the r-scaled ray coefficient at vertex w of the k-th
    character's bundle, reduced to its canonical representative; these
    rows are the whole state.  Chart generators, degrees and restrictions
    are read off them: chart(ti) solves the generators on one triangle,
    and the fan's geometry maps give degrees and star restrictions.
    """

    def __init__(self, group: GroupSpec, fan: Triangulation, coeffs):
        """Bundle from ray coefficients, canonicalised; checks only the
        shape and that the trivial character's row vanishes.

        Every chart of a bundle is integral and of its character when the
        bundle comes from from_gens or from_coeffs (which check every
        chart), or from a divisor twist or a flop of such a bundle (which
        keep the checked charts and check any new one).  Callers of this
        raw constructor own that guarantee."""
        nv = len(fan.vertices)
        if len(coeffs) != group.r or any(len(row) != nv for row in coeffs):
            raise PreconditionError(
                f"coefficient data must be {group.r} rows of {nv} entries"
            )
        self.group = group
        self.fan = fan
        reduce_row = group.principal_reducer
        self.coeffs = tuple(reduce_row(row) for row in coeffs)
        if any(self.coeffs[group.char_index[group.trivial]]):
            raise InternalError(
                "tautological bundle of the trivial character not trivial"
            )

    @classmethod
    def from_gens(cls, group: GroupSpec, fan: Triangulation, gens) -> "TautBundle":
        """Bundle from chart generators, gens[k][t] the exponent of the k-th
        character's bundle on triangle t.  Generators must have their
        character and agree (pair equally) at shared vertices."""
        rows = []
        for rho, gen_row in zip(group.characters, gens, strict=True):
            row = [None] * len(fan.vertices)
            for t, m in zip(fan.triangles, gen_row, strict=True):
                if group.weight(m) != rho:
                    raise InternalError("chart generator has wrong character")
                for w in t:
                    val = -dot(m, fan.vertices[w])
                    if row[w] is None:
                        row[w] = val
                    elif row[w] != val:
                        raise InternalError(
                            f"PL-inconsistent chart generators at vertex {fan.vertices[w]}"
                        )
            rows.append(row)
        return cls(group, fan, rows)

    @classmethod
    def from_coeffs(cls, group: GroupSpec, fan: Triangulation, coeffs) -> "TautBundle":
        """Bundle from ray coefficients, with every chart solved and checked
        before it is returned."""
        taut = cls(group, fan, coeffs)
        for ti in range(len(fan.triangles)):
            taut.chart(ti)
        return taut

    # -- basic data ---------------------------------------------------------

    def chart(self, ti: int) -> tuple[Exponent, ...]:
        """Chart generators on triangle ti, one per character.

        Solving the 3x3 pairing system on the basic triangle yields the
        unique exponent; it must be integral and of its bundle's character.
        """
        t = self.fan.triangles[ti]
        rows = [self.fan.vertices[i] for i in t]
        out = []
        for rho, row in zip(self.group.characters, self.coeffs):
            try:
                m = solve3_int(rows, [-row[i] for i in t])
            except ValueError:
                raise InternalError(f"non-integral chart generator on triangle {t}") from None
            if self.group.weight(m) != rho:
                raise InternalError("chart generator has wrong character")
            out.append(m)
        return tuple(out)

    @property
    def gens(self):
        """Chart generators of every bundle on every triangle, gens[k][t]."""
        charts = [self.chart(ti) for ti in range(len(self.fan.triangles))]
        return tuple(zip(*charts))

    def degree(self, rho: Character, e) -> int:
        """Degree of T_rho on the curve of an interior edge."""
        row = self.coeffs[self.group.char_index[rho]]
        return self.fan.geometry.edge_degree(e, row)

    @property
    def key(self):
        return self.coeffs

    def curve_class(self, e):
        """Class of the structure sheaf of an interior edge's curve."""
        return tuple(self.degree(rho, e) + 1 for rho in self.group.characters)

    # -- wall-crossing updates ----------------------------------------------

    def twist(self, vertices, mult) -> "TautBundle":
        """Type-0 and type-III update: the k-th bundle becomes T_k(mult[k] D)
        for D the reduced divisor of the vertices (mult[0] = 0 keeps the
        trivial bundle trivial).

        O(D) has r-scaled coefficient r on the vertices and 0 elsewhere.
        Twisting by it keeps every chart integral and of its character, so
        charts are not re-solved."""
        vertices = frozenset(vertices)
        r = self.group.r
        coeffs = [
            [c + m * r if w in vertices else c for w, c in enumerate(row)] if m else row
            for row, m in zip(self.coeffs, mult, strict=True)
        ]
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
    T_rho on a triangle is the G-graph monomial of weight rho."""
    fan = gh.fan
    gens = [[None] * len(fan.triangles) for _ in range(g.r)]
    for ti, t in enumerate(fan.triangles):
        gamma = gh.by_triangle[t]
        for k in range(g.r):
            gens[k][ti] = gamma.gens[k]
    return TautBundle.from_gens(g, fan, gens)
