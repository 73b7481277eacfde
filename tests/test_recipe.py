import pytest

from crepant.bundles import ghilb_taut
from crepant.ggraphs import ghilb_fan
from crepant.groups import Character, parse_group
from crepant.recipe import check_partition, is_del_pezzo6_vertex, mark_divisors, mark_lines, marking
from curves import bundle_degrees, normal_degrees

GROUPS = ["1/2(1,0,1)", "1/3(1,1,1)", "1/6(1,2,3)", "1/11(1,2,8)", "1/6(1,1,4)+1/2(1,0,1)"]


def test_divisor_marks_1_11():
    g = parse_group("1/11(1,2,8)")
    gh = ghilb_fan(g)
    marks = mark_divisors(gh, g)
    flat = {gh.fan.vertices[v]: ms for v, ms in marks.items()}
    assert flat == {
        (1, 2, 8): frozenset({Character((10,))}),
        (2, 4, 5): frozenset({Character((7,))}),
        (3, 6, 2): frozenset({Character((4,))}),
        (6, 1, 4): frozenset({Character((9,))}),
        (7, 3, 1): frozenset({Character((3,))}),
    }


def test_line_marks_1_11():
    g = parse_group("1/11(1,2,8)")
    gh = ghilb_fan(g)
    lines = mark_lines(gh, g)
    flop_marks = set()
    fiber_marks = set()
    for e in gh.fan.interior_edges:
        d = normal_degrees(gh.fan, e)
        if d == (-1, -1):
            flop_marks.add(lines[e.endpoints])
        # the F4 fibers: edges at (1,2,8) with vanishing far coefficient
    assert flop_marks == {Character((1,)), Character((5,)), Character((6,))}

    v128 = gh.fan.vindex[(1, 2, 8)]
    for e in gh.fan.interior_edges:
        if v128 in e.endpoints:
            a, b = gh.fan.geometry.relation(e)
            far_is_zero = (b == 0 and e.endpoints[0] == v128) or (
                a == 0 and e.endpoints[1] == v128
            )
            if far_is_zero:
                fiber_marks.add(lines[e.endpoints])
    assert fiber_marks == {Character((8,))}


def test_line_marks_1_3():
    g = parse_group("1/3(1,1,1)")
    gh = ghilb_fan(g)
    lines = mark_lines(gh, g)
    assert set(lines.values()) == {Character((1,))}


def test_collinear_edges_share_marks():
    # straight lines through several vertices carry one character
    g = parse_group("1/11(1,2,8)")
    gh = ghilb_fan(g)
    fan = gh.fan
    lines = mark_lines(gh, g)
    from crepant.intlin import primitive, sub

    for e1 in fan.interior_edges:
        for e2 in fan.interior_edges:
            if e1.endpoints >= e2.endpoints:
                continue
            shared = set(e1.endpoints) & set(e2.endpoints)
            if len(shared) != 1:
                continue
            (s,) = shared
            a = next(i for i in e1.endpoints if i != s)
            b = next(i for i in e2.endpoints if i != s)
            da = primitive(sub(fan.vertices[a], fan.vertices[s]))
            db = primitive(sub(fan.vertices[b], fan.vertices[s]))
            if da == tuple(-x for x in db):
                assert lines[e1.endpoints] == lines[e2.endpoints]


@pytest.mark.parametrize("spec", GROUPS)
def test_partition_property(spec):
    g = parse_group(spec)
    gh = ghilb_fan(g)
    check_partition(gh, g, marking(gh, g))


@pytest.mark.parametrize("spec", GROUPS)
def test_marking_uniqueness_on_divisors(spec):
    # if T_sigma and T_rho restrict isomorphically to a marked divisor
    # and rho marks it, then sigma = rho; isomorphism is tested through
    # degrees on the divisor's curves
    g = parse_group(spec)
    gh = ghilb_fan(g)
    taut = ghilb_taut(g, gh)
    fan = gh.fan
    for v, marks in mark_divisors(gh, g).items():
        degrees = [bundle_degrees(taut, e) for e in fan.interior_edges if v in e.endpoints]
        for rho in marks:
            for sigma in g.characters:
                same = all(d[g.char_index[sigma]] == d[g.char_index[rho]] for d in degrees)
                if same:
                    assert sigma == rho


@pytest.mark.parametrize("spec", GROUPS)
def test_del_pezzo6_pair_relation(spec):
    # when a vertex carries two marks, their product matches the product
    # of the three straight-line characters through the vertex
    g = parse_group(spec)
    gh = ghilb_fan(g)
    m = marking(gh, g)
    lines = m.line_marks
    for v, marks in m.divisor_marks.items():
        if len(marks) != 2:
            continue
        assert is_del_pezzo6_vertex(gh, v)
        rays = gh.fan.geometry.stars[v].rays
        chars = []
        for i in range(3):
            e = gh.fan.edge(v, rays[i])
            chars.append(lines[e.endpoints])
        prod_lines = g.trivial
        for c in chars:
            prod_lines = g.char_add(prod_lines, c)
        a, b = sorted(marks, key=lambda c: c.index)
        assert g.char_add(a, b) == prod_lines
