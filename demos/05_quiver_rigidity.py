"""Quiver representations on a two-dimensional orbit: diamonds and bands.

A point on a two-dimensional torus orbit gives a representation of the
McKay quiver whose surviving arrows tile the character torus by diamonds.
A destabilising sub/quotient split carves the torus into two domains and
an annular band; the number of band components is the dimension of the
extension space between quotient and subsheaf, and a simply connected
domain certifies rigidity of its sheaf.

Run:  python3 demos/05_quiver_rigidity.py
(writes quiver_band.svg to the working directory)
"""

from crepant.chambers import ghilb_state
from crepant.groups import parse_group
from crepant.quiver import band, check_diamond_cover, diamonds, is_rigid, orbit_rep, subsheaf_subsets
from crepant.svgout import quiver_svg

g = parse_group("1/6(1,2,3)")
state = ghilb_state(g)
v = state.fan.vindex[(1, 2, 3)]
tri = state.fan.triangles_at_vertex(v)[0]
graph = orbit_rep(state, tri, v)
check_diamond_cover(graph)
ds, diag = diamonds(graph)
print(f"orbit inside the compact divisor of {state.fan.vertices[v]}:")
print(f"  surviving arrows: {sum(1 for p in graph.arrows.values() if p)} of {3 * g.r}")
print(f"  diamonds: {len(ds)} (diagonals all absent: {all(diag.values())})")

for quot in [(0, 1), (0, 1, 3)]:
    r1 = tuple(0 if k in quot else 1 for k in range(g.r))
    dec, ext1 = band(graph, r1)
    print(f"\nsplit with quotient characters {set(quot)}:")
    print(f"  band components: {len(dec.band_components)}  =>  ext^1 = {ext1}")
    if ext1 == 1:
        print(f"  quotient rigid: {is_rigid(graph, r1, 'quot')}")
        print(f"  subsheaf rigid: {is_rigid(graph, r1, 'sub')}")
        path = "quiver_band.svg"
        with open(path, "w") as fh:
            fh.write(quiver_svg(graph, dec))
        print(f"  (band drawing written to {path})")

print("\nall arrow-closed splits of this orbit:")
for cls, s_conn, q_conn in subsheaf_subsets(graph):
    members = {k for k in range(g.r) if cls[k]}
    print(f"  sub side {sorted(members)}  (sub connected: {s_conn}, quotient connected: {q_conn})")
