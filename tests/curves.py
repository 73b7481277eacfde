"""Compact-curve data for the tests, read off a fan's geometry: sorted
normal degrees, the vertices opposite an edge (from the triangles alone),
and every tautological bundle's degree on a curve, through the library's
one degree map FanGeometry.edge_degrees."""


def normal_degrees(fan, e):
    """Normal degrees (a, b) of an interior edge's curve, sorted a <= b."""
    return tuple(sorted(fan.geometry.relation(e)))


def opposite_vertices(fan, e):
    """For each triangle at the edge, in e.triangles order, the vertex
    opposite the edge."""
    return tuple(next(i for i in fan.triangles[ti] if i not in e.endpoints) for ti in e.triangles)


def bundle_degrees(taut, e):
    """The degree of each character's bundle on an interior edge's curve,
    in character order."""
    geo = taut.fan.geometry
    i = geo.edge_idx[e.endpoints]
    return tuple(geo.edge_degrees(row)[i] for row in taut.coeffs)


def curve_class(taut, e):
    """Class of the structure sheaf of an interior edge's curve: one plus
    each character's bundle degree on it."""
    return tuple(d + 1 for d in bundle_degrees(taut, e))
