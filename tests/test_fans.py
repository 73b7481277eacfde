import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from crepant.errors import CapError, DegenerateEdgeError, InvalidFlipError
from crepant.fans import flip, flip_reachable_fans, line_ratio
from crepant.ggraphs import ghilb_fan
from crepant.groups import Character, parse_group
from curves import normal_degrees, opposite_vertices

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from solve_reference import fraction_solve, in_basis  # noqa: E402
from subsets_reference import mask_scan_subsets  # noqa: E402
from workloads import sweep_groups  # noqa: E402

GROUPS = ["1/2(1,0,1)", "1/3(1,1,1)", "1/6(1,2,3)", "1/11(1,2,8)", "1/6(1,1,4)+1/2(1,0,1)"]


def fan_of(spec):
    g = parse_group(spec)
    return g, ghilb_fan(g).fan


def test_curve_degrees_1_3():
    g, fan = fan_of("1/3(1,1,1)")
    c = fan.vindex[(1, 1, 1)]
    e3 = fan.vindex[(0, 0, 3)]
    e = fan.edge(c, e3)
    assert normal_degrees(fan, e) == (-3, 1)


def test_curve_degrees_parallelogram_and_collinear():
    g, fan = fan_of("1/6(1,1,4)+1/2(1,0,1)")
    # l1 from the figure: a (-1,-1) parallelogram
    e = fan.edge(fan.vindex[(2, 2, 8)], fan.vindex[(8, 2, 2)])
    assert normal_degrees(fan, e) == (-1, -1)
    # 1/2(1,0,1): v1 + v2 = 2 w for the unique interior edge: (-2, 0)
    g2, fan2 = fan_of("1/2(1,0,1)")
    (e2,) = fan2.interior_edges
    assert normal_degrees(fan2, e2) == (-2, 0)


def test_crepancy_sum_rule():
    for spec in GROUPS:
        g, fan = fan_of(spec)
        for e in fan.interior_edges:
            a, b = fan.geometry.relation(e)
            assert a + b == -2
            assert normal_degrees(fan, e)[0] < 2  # sorted first entry


def test_boundary_edge_rejected():
    g, fan = fan_of("1/3(1,1,1)")
    boundary = next(e for e in fan.edges if not e.interior)
    with pytest.raises(DegenerateEdgeError):
        fan.geometry.relation(boundary)
    with pytest.raises(DegenerateEdgeError):
        line_ratio(fan, boundary, g)


def test_flip_involution_and_invalid():
    g, fan = fan_of("1/6(1,1,4)+1/2(1,0,1)")
    e = fan.edge(fan.vindex[(2, 2, 8)], fan.vindex[(8, 2, 2)])
    v1, v2 = opposite_vertices(fan, e)
    fan2 = flip(fan, e)
    assert fan2.key != fan.key
    assert len(fan2.triangles) == g.r
    e_new = fan2.edge(v1, v2)
    fan3 = flip(fan2, e_new)
    assert fan3.key == fan.key
    # flipping a non-(-1,-1) edge raises
    with pytest.raises(InvalidFlipError):
        flip(fan, fan.edge(fan.vindex[(8, 2, 2)], fan.vindex[(4, 4, 4)]))


def test_flip_preserves_vertex_set_and_unimodularity():
    g, fan = fan_of("1/11(1,2,8)")
    for e in list(fan.interior_edges):
        if normal_degrees(fan, e) == (-1, -1):
            fan2 = flip(fan, e)  # constructor validates everything
            assert fan2.vertices == fan.vertices


def test_line_ratio_examples():
    g, fan = fan_of("1/3(1,1,1)")
    c, e3 = fan.vindex[(1, 1, 1)], fan.vindex[(0, 0, 3)]
    m1, m2, rho = line_ratio(fan, fan.edge(c, e3), g)
    assert {m1, m2} == {(1, 0, 0), (0, 1, 0)}  # ratio x : y
    assert rho == Character((1,))

    g12, fan12 = fan_of("1/6(1,1,4)+1/2(1,0,1)")
    e = fan12.edge(fan12.vindex[(8, 2, 2)], fan12.vindex[(4, 4, 4)])
    m1, m2, rho = line_ratio(fan12, e, g12)
    assert {m1, m2} == {(0, 2, 0), (0, 0, 2)}  # ratio y^2 : z^2
    assert rho == Character((2, 0))


def test_line_ratio_primitive_in_invariant_lattice():
    for spec in GROUPS:
        g, fan = fan_of(spec)
        for e in fan.interior_edges:
            m1, m2, rho = line_ratio(fan, e, g)
            m = tuple(a - b for a, b in zip(m1, m2))
            assert g.weight(m) == g.trivial
            # primitivity in M: no proper invariant divisor of m
            from math import gcd

            gg = 0
            for x in m:
                gg = gcd(gg, abs(x))
            for d in range(2, gg + 1):
                if gg % d == 0:
                    shrunk = tuple(x // d for x in m)
                    assert g.weight(shrunk) != g.trivial


def test_flop_marks_1_11():
    g, fan = fan_of("1/11(1,2,8)")
    marks = set()
    for e in fan.interior_edges:
        if normal_degrees(fan, e) == (-1, -1):
            marks.add(line_ratio(fan, e, g)[2])
    assert marks == {Character((1,)), Character((5,)), Character((6,))}


def test_star_surface_p2():
    g, fan = fan_of("1/3(1,1,1)")
    s = fan.geometry.stars[fan.vindex[(1, 1, 1)]]
    assert len(s.rays) == 3
    assert s.selfint == (1, 1, 1)


def test_star_surface_f4_on_1_11():
    g, fan = fan_of("1/11(1,2,8)")
    s = fan.geometry.stars[fan.vindex[(1, 2, 8)]]
    assert sorted(s.selfint) == [-4, 0, 0, 4]


def closure_fans():
    """(spec, fan) for every fan in the flip closures of the sweep groups'
    G-Hilb fans, of 1/11(1,2,8) and of 1/6(1,1,4)+1/2(1,0,1)."""
    return [
        (spec, fan)
        for spec in sweep_groups() + ["1/11(1,2,8)", "1/6(1,1,4)+1/2(1,0,1)"]
        for _, fan in sorted(flip_reachable_fans(fan_of(spec)[1]).items())
    ]


def test_star_wall_relation_exact():
    # The defining property of a star, on every interior vertex of every
    # fan in the flip closures: consecutive rays span a triangle with the
    # center, the rays are exactly its neighbours, and u_prev + u_next +
    # b_i u_i is an integer multiple of the center.
    stars = 0
    for spec, fan in closure_fans():
        triangles = set(fan.triangles)
        for v in fan.interior_vertices():
            s = fan.geometry.stars[v]
            n = len(s.rays)
            nbrs = {i for ti in fan.triangles_at_vertex(v) for i in fan.triangles[ti]} - {v}
            assert len(set(s.rays)) == n and set(s.rays) == nbrs, (spec, v)
            c_v = fan.vertices[v]
            k = next(k for k in range(3) if c_v[k])
            for i in range(n):
                pair = (s.rays[i - 1], s.rays[i])
                assert tuple(sorted((v,) + pair)) in triangles, (spec, v, pair)
                u_prev = fan.vertices[s.rays[i - 1]]
                u_i = fan.vertices[s.rays[i]]
                u_next = fan.vertices[s.rays[(i + 1) % n]]
                combo = [u_prev[j] + u_next[j] + s.selfint[i] * u_i[j] for j in range(3)]
                m, rem = divmod(combo[k], c_v[k])
                assert rem == 0 and combo == [m * x for x in c_v], (spec, v, i)
            stars += 1
    assert stars == 395  # interior vertices over all the closures' fans


def test_subsets_match_the_mask_scan():
    # The connected divisor sets, grown from the singletons, come in mask
    # order with the parents, vertices and joins of a scan over all 2^n
    # masks: on every fan of the flip closures above and of 1/13(1,3,9),
    # and on the G-Hilb fan of 1/25(1,3,21) (1,664 sets).
    fans = [fan for _, fan in closure_fans()]
    fans += [fan for _, fan in sorted(flip_reachable_fans(fan_of("1/13(1,3,9)")[1]).items())]
    fans.append(fan_of("1/25(1,3,21)")[1])
    sets = 0
    for fan in fans:
        geo = fan.geometry
        assert [s[:4] for s in geo.subsets] == mask_scan_subsets(geo), fan.key
        sets += len(geo.subsets)
    assert (len(fans), sets, len(fans[-1].geometry.subsets)) == (131, 3194, 1664)


def test_triangle_solves_match_fraction_reference():
    # Edge relations and star-ray coordinates are read off the fans'
    # per-triangle inverses, and star self-intersections off the edge
    # relations; an independent rational solve of each defining relation
    # must give the same integers.  The opposite vertices of an edge are
    # read off the triangles here.
    edges = rays = 0
    for spec, fan in closure_fans():
        vert = fan.vertices
        geo = fan.geometry
        for e in fan.edges:
            if not e.interior:
                with pytest.raises(DegenerateEdgeError):
                    geo.relation(e)
                continue
            # v1 + v2 + a w1 + b w2 = 0
            w1, w2 = e.endpoints
            v1, v2 = opposite_vertices(fan, e)
            a, b, k = in_basis([vert[w1], vert[w2], vert[v1]], [-x for x in vert[v2]])
            assert k == 1 and geo.relation(e) == (a, b), (spec, e.endpoints)
            edges += 1
        for v in fan.interior_vertices():
            star = geo.stars[v]
            n = len(star.rays)
            for i in range(n):
                # u_prev + u_next + b_i u_i = m c
                u_prev, u_i, u_next = (vert[star.rays[j % n]] for j in (i - 1, i, i + 1))
                b, _, k = in_basis([u_i, vert[v], u_prev], [-x for x in u_next])
                assert k == 1 and star.selfint[i] == b, (spec, v, i)
            t, terms = geo._star_terms[v]
            assert [u for u, _ in terms] == list(star.rays)
            for u, alpha in terms:
                assert alpha == in_basis([vert[w] for w in t], vert[u]), (spec, v, u)
                rays += 1
    assert (edges, rays) == (1490, 1851)  # over all the closures' fans


def test_triangle_exponent_matches_fraction_reference():
    # The exponent pairing to given values at a triangle's vertices, from
    # the fan's inverse, is the rational solution when that is integral
    # and None otherwise.
    rng = random.Random(1)
    hits = misses = 0
    for spec in GROUPS:
        g, fan = fan_of(spec)
        for ti, t in enumerate(fan.triangles):
            rows = [fan.vertices[i] for i in t]
            for _ in range(20):
                m = tuple(rng.randrange(-5, 6) for _ in range(3))
                values = [sum(a * b for a, b in zip(m, row)) for row in rows]
                if rng.random() < 0.5:
                    values[rng.randrange(3)] += rng.randrange(1, g.r + 1)
                x = fraction_solve(rows, values)
                if all(a.denominator == 1 for a in x):
                    assert fan.exponent(ti, values) == tuple(map(int, x))
                    hits += 1
                else:
                    assert fan.exponent(ti, values) is None
                    misses += 1
    assert hits and misses


@pytest.mark.parametrize(
    "spec,count", [("1/3(1,1,1)", 1), ("1/2(1,0,1)", 1), ("1/6(1,2,3)", 5)]
)
def test_flip_reachable_counts(spec, count):
    g, fan = fan_of(spec)
    assert len(flip_reachable_fans(fan)) == count


@pytest.mark.parametrize("spec,count", [("1/5(1,1,3)", 1), ("1/6(1,2,3)", 5)])
def test_flip_reachable_cap_counts_the_start_fan(spec, count):
    # the cap bounds the closure's size, start fan included
    g, fan = fan_of(spec)
    assert len(flip_reachable_fans(fan, cap=count)) == count
    with pytest.raises(CapError):
        flip_reachable_fans(fan, cap=count - 1)


def test_flip_reachable_1_11():
    # The three (-1,-1) curves bound a single chart's triangle, so the
    # flips interact: the explicit BFS closure has five fans, with the
    # neighbours of any one flip no longer carrying (-1,-1) transforms.
    g, fan = fan_of("1/11(1,2,8)")
    fans = flip_reachable_fans(fan)
    assert len(fans) == 5
    flops = [e for e in fan.interior_edges if normal_degrees(fan, e) == (-1, -1)]
    assert len(flops) == 3
    vset = set()
    for e in flops:
        vset.update(e.endpoints)
    assert len(vset) == 3  # the curves pairwise share their endpoints
    central = tuple(sorted(vset))
    assert central in fan.triangles


# Enumerates the chamber graph and the flip closure of each group named in
# argv[1], twice.  Prints, per round, every relation solve as (group, fan
# key, edge endpoints) and the number of FanGeometry builds, and the
# interior edges of every closure fan in the same form.
_COUNT_SOLVES = """
import json, sys
from crepant import fans
from crepant.chambers import enumerate_chambers
from crepant.ggraphs import ghilb_fan
from crepant.groups import parse_group

solved, built = [], []
curve, init = fans._curve, fans.FanGeometry.__init__

def counting_curve(t, e):
    solved.append((str(t.group), t.key, e.endpoints))
    return curve(t, e)

def counting_init(self, fan):
    built.append(fan)
    init(self, fan)

fans._curve, fans.FanGeometry.__init__ = counting_curve, counting_init
rounds, edges = [], []
for _ in range(2):
    solved.clear()
    built.clear()
    edges.clear()
    for spec in json.loads(sys.argv[1]):
        g = parse_group(spec)
        graph = enumerate_chambers(g)
        closure = fans.flip_reachable_fans(ghilb_fan(g).fan)
        assert graph.fans() == set(closure), spec
        edges += [(spec, k, e.endpoints) for k, t in closure.items() for e in t.interior_edges]
    rounds.append({"solved": sorted(solved), "built": len(built)})
print(json.dumps({"rounds": rounds, "edges": sorted(edges)}))
"""


def test_relations_solved_once_per_fan():
    # Every fan that the chamber enumeration and the flip closure touch has
    # its geometry built once, and each of its edge relations solved once
    # there: flips and wall classification read them.  A fresh interpreter
    # starts with no fan built.
    p = subprocess.run(
        [sys.executable, "-c", _COUNT_SOLVES, json.dumps(sweep_groups())],
        capture_output=True,
        text=True,
    )
    assert p.returncode == 0, p.stderr
    out = json.loads(p.stdout)
    first, second = out["rounds"]
    assert first == {"solved": out["edges"], "built": 38}  # the 38 closure fans
    assert len(out["edges"]) == 215
    assert second == {"solved": [], "built": 0}
