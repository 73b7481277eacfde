"""Walk through the basic objects: a group, the G-Hilb fan, its G-graphs.

Run:  python3 demos/01_ghilb_basics.py
"""

from crepant.fans import line_ratio
from crepant.ggraphs import ghilb_fan, socle
from crepant.groups import parse_group


def mono(e):
    s = ""
    for v, n in zip("xyz", e):
        if n == 1:
            s += v
        elif n > 1:
            s += f"{v}^{n}"
    return s or "1"


g = parse_group("1/6(1,2,3)")
print(f"group {g}, order {g.r}")
print("coordinate characters:", [str(c) for c in g.coord_weights])

print("\njunior simplex lattice points (scaled by r):")
for p in g.junior_points:
    print(f"  {p.c}  [{p.kind}]")

gh = ghilb_fan(g)
fan = gh.fan
print(f"\nG-Hilb fan: {len(fan.triangles)} basic triangles, each with its G-graph")
print("(the torus-invariant G-cluster at the triangle's fixed point):")
for t in fan.triangles:
    gg = gh.by_triangle[t]
    marks = ", ".join(str(c) for c in sorted(socle(gg, g), key=lambda c: c.index))
    print("  triangle", tuple(fan.vertices[i] for i in t))
    print(f"    {{{', '.join(mono(m) for m in gg.gens)}}}   socle: {marks}")

print("\ninterior edges (curves of the resolution):")
# The fan's geometry solves each compact curve's normal degrees (a, b),
# with v1 + v2 + a*w1 + b*w2 = 0 for the edge (w1, w2) and the vertices
# v1, v2 opposite it; the normal bundle is O(a) + O(b).
geo = fan.geometry
for e in fan.interior_edges:
    m1, m2, rho = line_ratio(fan, e, g)
    print(
        f"  {fan.vertices[e.endpoints[0]]} -- {fan.vertices[e.endpoints[1]]}"
        f"   normal degrees {tuple(sorted(geo.relation(e)))}, ratio {mono(m1)} : {mono(m2)}"
        f" (character {rho})"
    )
