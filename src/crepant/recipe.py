"""Reid's recipe: marking lines and compact divisors of the G-Hilb fan.

Lines are marked with the common character of the invariant ratio cutting
them out.  A compact divisor is marked with the characters lying in the
socle of every torus-invariant G-cluster on it, i.e. the intersection of
the socles of the G-graphs of the triangles at its vertex; this is one or
two characters, two exactly at del Pezzo-6 vertices (six triangles, three
straight lines through the vertex).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalError
from .fans import line_ratio
from .ggraphs import GHilbFan, socle
from .groups import Character, GroupSpec
from .intlin import primitive, sub


@dataclass(frozen=True)
class Marking:
    """Line and divisor markings of the G-Hilb fan."""

    line_marks: dict  # edge endpoints -> Character
    divisor_marks: dict  # interior vertex index -> frozenset of Characters


def mark_lines(gh: GHilbFan, g: GroupSpec) -> dict:
    """Character marking each interior edge: the weight of its ratio."""
    out = {}
    for e in gh.fan.interior_edges:
        _, _, rho = line_ratio(gh.fan, e, g)
        out[e.endpoints] = rho
    return out


def mark_divisors(gh: GHilbFan, g: GroupSpec) -> dict:
    """Characters marking each compact divisor, by the socle criterion."""
    fan = gh.fan
    out = {}
    for v in fan.interior_vertices():
        marks = None
        for ti in fan.triangles_at_vertex(v):
            s = socle(gh.by_triangle[fan.triangles[ti]], g)
            marks = s if marks is None else (marks & s)
        if not marks:
            raise InternalError(
                f"no common socle character at interior vertex {fan.vertices[v]}"
            )
        out[v] = frozenset(marks)
    return out


def marking(gh: GHilbFan, g: GroupSpec) -> Marking:
    return Marking(mark_lines(gh, g), mark_divisors(gh, g))


def is_del_pezzo6_vertex(gh: GHilbFan, v: int) -> bool:
    """A vertex is del Pezzo-6 when six triangles surround it and the six
    neighbor directions pair up into three straight lines through it."""
    fan = gh.fan
    rays = fan.star_rays(v)
    if len(rays) != 6:
        return False
    c_v = fan.vertices[v]
    dirs = [primitive(sub(fan.vertices[u], c_v)) for u in rays]
    return all(
        dirs[i] == tuple(-x for x in dirs[(i + 3) % 6]) for i in range(3)
    )


def check_partition(gh: GHilbFan, g: GroupSpec, m: Marking) -> None:
    """Every nontrivial character marks exactly one vertex or some lines.

    Raises InternalError if the partition property fails, or if a vertex
    carries two marks without being a del Pezzo-6 vertex.
    """
    line_chars = set(m.line_marks.values())
    vertex_chars: list[Character] = []
    for v, marks in m.divisor_marks.items():
        vertex_chars.extend(marks)
        if len(marks) == 2:
            if not is_del_pezzo6_vertex(gh, v):
                raise InternalError(
                    "two marks at a vertex whose star is not a del Pezzo of degree 6"
                )
        elif len(marks) != 1:
            raise InternalError("a compact divisor must carry one or two marks")
    if len(vertex_chars) != len(set(vertex_chars)):
        raise InternalError("a character marks two distinct divisors")
    nontrivial = set(g.characters) - {g.trivial}
    marked = set(vertex_chars) | line_chars
    if marked != nontrivial:
        raise InternalError(
            f"marking misses characters: {sorted(str(c) for c in nontrivial - marked)}"
        )
    if set(vertex_chars) & line_chars:
        raise InternalError("a character marks both a divisor and a line")
