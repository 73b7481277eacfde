"""SVG rendering of triangulations and quiver tilings.

The triangulation is drawn in a barycentric layout of the junior simplex;
every vertex and every interior edge carries a visible label (vertex
coordinates or markings, edge ratio characters).  The quiver drawing lays
the universal-cover diamonds out on a fundamental domain of the character
torus with the sub/quotient domains shaded.
"""

from __future__ import annotations

from math import sqrt

from .fans import Triangulation
from .groups import GroupSpec


def _layout(fan: Triangulation, size=640, pad=60):
    r = fan.group.r
    pts = {}
    for i, c in enumerate(fan.vertices):
        # barycentric: e1 top, e2 bottom right, e3 bottom left
        x = (c[1] + c[0] / 2) / r
        y = (sqrt(3) / 2) * (c[0] / r)
        pts[i] = (pad + x * (size - 2 * pad), size - pad - y * (size - 2 * pad))
    return pts


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def triangulation_svg(
    fan: Triangulation,
    g: GroupSpec,
    marking=None,
    title: str = "",
    size: int = 640,
) -> str:
    from .report import char_label
    from .fans import line_ratio

    pts = _layout(fan, size)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f"<title>{_esc(title or str(g))}</title>",
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for e in fan.edges:
        i, j = e.endpoints
        (x1, y1), (x2, y2) = pts[i], pts[j]
        color = "#555" if e.interior else "#000"
        out.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            f'stroke="{color}" stroke-width="1.2"/>'
        )
    for e in fan.interior_edges:
        i, j = e.endpoints
        (x1, y1), (x2, y2) = pts[i], pts[j]
        mx, my = (x1 + x2) / 2, (y1 + y2) / 2
        if marking is not None and e.endpoints in marking.line_marks:
            label = "rho" + char_label(marking.line_marks[e.endpoints])
        else:
            _, _, rho = line_ratio(fan, e, g)
            label = "rho" + char_label(rho)
        out.append(
            f'<text x="{mx:.1f}" y="{my - 3:.1f}" font-size="11" fill="#b00" '
            f'text-anchor="middle">{_esc(label)}</text>'
        )
    for i, c in enumerate(fan.vertices):
        x, y = pts[i]
        out.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="#000"/>')
        label = f"({c[0]},{c[1]},{c[2]})"
        if marking is not None and i in marking.divisor_marks:
            marks = ",".join(
                "rho" + char_label(m)
                for m in sorted(marking.divisor_marks[i], key=lambda m: m.index)
            )
            label += f" [{marks}]"
        out.append(
            f'<text x="{x:.1f}" y="{y - 6:.1f}" font-size="11" fill="#006" '
            f'text-anchor="middle">{_esc(label)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def quiver_svg(graph, band_dec=None, size: int = 640) -> str:
    """Universal-cover tiling on a fundamental domain: diamonds as
    parallelograms in the f1/f2 plane, arrows drawn when present, domain
    diamonds shaded by side."""
    from .quiver import diamonds

    g = graph.group
    r = g.r
    # Lay characters on the plane via lifts along f1 = (1,0), f2 = (0,1),
    # f3 = (-1,-1); breadth-first lift from the trivial character.
    pos = {0: (0, 0)}
    frontier = [0]
    steps = {0: (1, 0), 1: (0, 1), 2: (-1, -1)}
    while frontier:
        nxt = []
        for k in frontier:
            for i in range(3):
                h = graph.head[(k, i)]
                if h not in pos:
                    pos[h] = (
                        pos[k][0] + steps[i][0],
                        pos[k][1] + steps[i][1],
                    )
                    nxt.append(h)
        frontier = nxt
    scale = size / (2 * max(3, r))
    cx = size / 2

    def xy(p):
        return (cx + p[0] * scale, cx - p[1] * scale)

    shade = {}
    if band_dec is not None:
        for d in band_dec.sub_diamonds:
            shade[d] = "#cde"
        for d in band_dec.quot_diamonds:
            shade[d] = "#edc"
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    ds, _ = diamonds(graph)
    for d in ds:
        p0 = pos[d.k]
        pi = (p0[0] + steps[d.i][0], p0[1] + steps[d.i][1])
        pj = (p0[0] + steps[d.j][0], p0[1] + steps[d.j][1])
        pij = (pi[0] + steps[d.j][0], pi[1] + steps[d.j][1])
        quad = [xy(p0), xy(pi), xy(pij), xy(pj)]
        path = " ".join(f"{x:.1f},{y:.1f}" for x, y in quad)
        fill = shade.get(d, "#f6f6f6")
        out.append(f'<polygon points="{path}" fill="{fill}" stroke="#999"/>')
    for (k, i), present in sorted(graph.arrows.items()):
        if not present:
            continue
        p = pos[k]
        q = (p[0] + steps[i][0], p[1] + steps[i][1])
        (x1, y1), (x2, y2) = xy(p), xy(q)
        out.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            f'stroke="#036" stroke-width="1.4"/>'
        )
    for k, p in pos.items():
        x, y = xy(p)
        out.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="#000"/>')
        out.append(
            f'<text x="{x:.1f}" y="{y - 5:.1f}" font-size="10" '
            f'text-anchor="middle">{k}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
