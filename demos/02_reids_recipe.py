"""Reid's recipe: mark the lines and compact divisors of a G-Hilb fan.

The recipe assigns every nontrivial character of the group to either a
unique compact divisor or to a line of the fan.  Divisor marks come from
the socles of the G-clusters around the vertex; line marks are the common
character of the cutting ratio.

Run:  python3 demos/02_reids_recipe.py
(writes recipe_<r>.svg per group to the working directory)
"""

from crepant.ggraphs import ghilb_fan
from crepant.groups import parse_group
from crepant.recipe import check_partition, marking
from crepant.svgout import triangulation_svg

for spec in ["1/11(1,2,8)", "1/6(1,1,4)+1/2(1,0,1)"]:
    g = parse_group(spec)
    gh = ghilb_fan(g)
    m = marking(gh, g)
    check_partition(gh, g, m)
    print(f"== {spec} ==")
    print("divisor marks:")
    for v, marks in sorted(m.divisor_marks.items()):
        names = ", ".join(str(c) for c in sorted(marks, key=lambda c: c.index))
        print(f"  D at {gh.fan.vertices[v]}: {names}")
    print("line marks (one entry per interior edge):")
    for ep, rho in sorted(m.line_marks.items()):
        a, b = (gh.fan.vertices[i] for i in ep)
        print(f"  {a} -- {b}: {rho}")
    path = f"recipe_{g.r}.svg"
    with open(path, "w") as fh:
        fh.write(triangulation_svg(gh.fan, g, m, title=f"Reid's recipe for {g}"))
    print(f"(svg written to {path})\n")
