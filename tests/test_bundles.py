import itertools
from fractions import Fraction

import pytest

from crepant.bundles import TautBundle, ghilb_taut
from crepant.chambers import ChamberState, ClassTable, compute_chamber, cross_wall, ghilb_state
from crepant.errors import InternalError, PreconditionError, UserError
from crepant.fans import flip
from crepant.ggraphs import ghilb_fan
from crepant.groups import Character, invariant_lattice_basis, parse_group
from crepant.intlin import dot, sub
from crepant.lp import LPCounter
from curves import bundle_degrees, curve_class, opposite_vertices
from ktheory_reference import theta_from_nontrivial
from solve_reference import integral_solve

GROUPS = ["1/2(1,0,1)", "1/3(1,1,1)", "1/6(1,2,3)", "1/11(1,2,8)", "1/6(1,1,4)+1/2(1,0,1)"]


def setup(spec):
    g = parse_group(spec)
    gh = ghilb_fan(g)
    return g, gh, ghilb_taut(g, gh)


def class_table(g, gh, taut):
    return ClassTable(ChamberState(g, gh.fan, taut))


def divisor_classes(table):
    """(kr, verts) -> (sub class, quot class) for any nonempty set of
    compact divisors.  ClassTable.subset_classes lists the connected sets;
    a disconnected set's classes are the sums of its components'."""
    by_verts = {frozenset(vs): (subs, quots) for vs, subs, quots in table.subset_classes()}
    fan = table.state.fan

    def classes(kr, verts):
        parts = [by_verts[frozenset(c)] for c in components(fan, verts)]
        return tuple(tuple(map(sum, zip(*(p[i][kr] for p in parts)))) for i in (0, 1))

    return classes


# Reference implementation: the bundle as per-triangle chart generators,
# with degrees, divisor generators and star restrictions read off the
# charts directly.  The library reads the same quantities from ray
# coefficients through per-fan linear maps.


def euler_char_surface(star, coeffs) -> int:
    """Euler characteristic of a line bundle on a complete smooth toric
    surface, from its ray coefficients and the surface's self-intersections:
    the reference for the chi expansion of ClassTable.

    Uses chi(L) = chi(O) + (L.L - L.K)/2 with the intersection form read
    off the cyclic fan: adjacent boundary curves meet once and the i-th
    has self-intersection b_i.
    """
    b = star.selfint
    n = len(b)
    if len(coeffs) != n:
        raise UserError("coefficient data does not match the star's rays")
    degs = [
        coeffs[(i - 1) % n] + b[i] * coeffs[i] + coeffs[(i + 1) % n]
        for i in range(n)
    ]
    l2 = sum(c * d for c, d in zip(coeffs, degs))
    lk = -sum(degs)  # K = -sum of boundary curves
    num = l2 - lk
    if num % 2:
        raise InternalError("odd Riemann-Roch numerator on a smooth surface")
    return 1 + num // 2


def modulo_regular(cls):
    """A class shifted by a multiple of the regular class (1,...,1) so its
    trivial-character coefficient is zero."""
    return tuple(c - cls[0] for c in cls)


def ref_degree(fan, per_tri, e):
    t1, t2 = e.triangles
    v2 = opposite_vertices(fan, e)[1]
    num = dot(sub(per_tri[t1], per_tri[t2]), fan.vertices[v2])
    assert num % fan.group.r == 0
    return num // fan.group.r


def ref_divisor_gens(fan, verts):
    r = fan.group.r
    return [
        integral_solve([fan.vertices[i] for i in t], [-r if i in verts else 0 for i in t])
        for t in fan.triangles
    ]


def ref_star_restriction(fan, per_tri, star):
    # Normalise to vanish on the first chart at the center, then read the
    # coefficient of each ray off any chart containing it and the center.
    r = fan.group.r
    tris_at_v = fan.triangles_at_vertex(star.center)
    m0 = per_tri[tris_at_v[0]]
    out = []
    for u in star.rays:
        ti = next(t for t in tris_at_v if u in fan.triangles[t])
        num = -dot(sub(per_tri[ti], m0), fan.vertices[u])
        assert num % r == 0
        out.append(num // r)
    return tuple(out)


def ref_chi_on_divisor(fan, stars, per_tri, verts):
    """chi on a reduced normal-crossing union of star surfaces, by
    inclusion-exclusion over components, double curves and triple points."""
    total = 0
    for v in verts:
        total += euler_char_surface(stars[v], ref_star_restriction(fan, per_tri, stars[v]))
    for e in fan.interior_edges:
        a, b = e.endpoints
        if a in verts and b in verts:
            total -= ref_degree(fan, per_tri, e) + 1
    for t in fan.triangles:
        if all(i in verts for i in t):
            total += 1
    return total


def test_trivial_character_bundle_trivial():
    for spec in GROUPS:
        g, gh, taut = setup(spec)
        k0 = g.char_index[g.trivial]
        assert all(c == 0 for c in taut.coeffs[k0])
        for e in gh.fan.interior_edges:
            assert bundle_degrees(taut, e)[k0] == 0


def test_ghilb_taut_generators_1_3():
    g, gh, taut = setup("1/3(1,1,1)")
    k1 = g.char_index[Character((1,))]
    assert sorted(taut.gens[k1]) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_degrees_1_3():
    g, gh, taut = setup("1/3(1,1,1)")
    for e in gh.fan.interior_edges:
        degrees = bundle_degrees(taut, e)
        assert degrees[g.char_index[Character((1,))]] == 1
        assert degrees[g.char_index[Character((2,))]] == 2


def test_degree_nonnegative_on_ghilb():
    for spec in GROUPS:
        g, gh, taut = setup(spec)
        for e in gh.fan.interior_edges:
            assert min(bundle_degrees(taut, e)) >= 0


def test_degree_two_on_the_twelve_group():
    g, gh, taut = setup("1/6(1,1,4)+1/2(1,0,1)")
    fan = gh.fan
    e = fan.edge(fan.vindex[(8, 2, 2)], fan.vindex[(4, 4, 4)])
    assert bundle_degrees(taut, e)[g.char_index[Character((4, 0))]] == 2


def test_curve_class_examples():
    g, gh, taut = setup("1/3(1,1,1)")
    e = gh.fan.interior_edges[0]
    assert modulo_regular(curve_class(taut, e)) == (0, 1, 2)

    g11, gh11, t11 = setup("1/11(1,2,8)")
    classes = {
        modulo_regular(curve_class(t11, e)) for e in gh11.fan.interior_edges
    }
    f1 = (0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0)
    f5 = (0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0)
    f8 = (0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1)
    assert {f1, f5, f8} <= classes


def test_euler_char_surface_p2():
    g, gh, taut = setup("1/3(1,1,1)")
    star = gh.fan.geometry.stars[gh.fan.vindex[(1, 1, 1)]]
    assert euler_char_surface(star, (0, 0, 0)) == 1
    assert euler_char_surface(star, (1, 0, 0)) == 3  # O(1) on P^2
    assert euler_char_surface(star, (-1, -1, -1)) == 1  # omega


def test_euler_char_every_star_structure_sheaf_and_canonical():
    for spec in ["1/11(1,2,8)", "1/6(1,1,4)+1/2(1,0,1)"]:
        g, gh, taut = setup(spec)
        for v in gh.fan.interior_vertices():
            star = gh.fan.geometry.stars[v]
            n = len(star.rays)
            assert euler_char_surface(star, (0,) * n) == 1
            assert euler_char_surface(star, (-1,) * n) == 1


def test_restriction_class_marked_divisors():
    g, gh, taut = setup("1/3(1,1,1)")
    classes = divisor_classes(class_table(g, gh, taut))
    c = gh.fan.vindex[(1, 1, 1)]
    assert classes(g.char_index[Character((2,))], [c])[0] == (0, 0, 1)
    assert classes(g.char_index[g.trivial], [c])[0] == (1, 3, 6)


def test_canonical_class_examples():
    g, gh, taut = setup("1/3(1,1,1)")
    classes = divisor_classes(class_table(g, gh, taut))
    c = gh.fan.vindex[(1, 1, 1)]
    assert classes(g.char_index[g.trivial], [c])[1] == (1, 0, 0)


def test_restriction_vs_inclusion_exclusion_cross_check():
    # ClassTable's sub and quot classes against chi computed component by
    # component from chart generators, on G-Hilb and one crossed state per
    # wall type.
    g = parse_group("1/11(1,2,8)")
    s0 = ghilb_state(g)
    facets = compute_chamber(s0, LPCounter()).facets
    states = [s0] + [
        cross_wall(s0, next(f for f in facets if f.wall_type == wt))
        for wt in ("0", "I", "III")
    ]
    for state in states:
        fan = state.fan
        gens = state.taut.gens
        classes = divisor_classes(ClassTable(state))
        interior = fan.interior_vertices()
        stars = fan.geometry.stars
        subsets = [
            frozenset(v for i, v in enumerate(interior) if mask >> i & 1)
            for mask in range(1, 1 << len(interior))
        ]
        assert any(len(components(fan, verts)) > 1 for verts in subsets)
        for verts in subsets:
            dv = ref_divisor_gens(fan, verts)
            for kr in range(g.r):
                sub_ref, quot_ref = [], []
                for ks in range(g.r):
                    diff = [sub(a, b) for a, b in zip(gens[ks], gens[kr])]
                    twisted = [tuple(x + y for x, y in zip(m, d)) for m, d in zip(diff, dv)]
                    sub_ref.append(ref_chi_on_divisor(fan, stars, diff, verts))
                    quot_ref.append(ref_chi_on_divisor(fan, stars, twisted, verts))
                assert classes(kr, verts) == (tuple(sub_ref), tuple(quot_ref))


def components(fan, verts):
    """Connected components of a set of interior vertices, joined by
    interior edges."""
    comps = [{v} for v in verts]
    for e in fan.interior_edges:
        a, b = e.endpoints
        ca = next((c for c in comps if a in c), None)
        cb = next((c for c in comps if b in c), None)
        if ca is not None and cb is not None and ca is not cb:
            comps.remove(cb)
            ca |= cb
    return comps


def test_disjoint_divisor_union_is_sum_of_parts():
    # For a disconnected divisor set, the inclusion-exclusion reference on
    # the whole set (twisted by O(D) of the whole set) equals the sum of
    # ClassTable's classes of its components.
    g = parse_group("1/11(1,2,8)")
    s0 = ghilb_state(g)
    states = [s0] + [cross_wall(s0, f) for f in compute_chamber(s0, LPCounter()).facets]
    assert len(states) == 17
    states += [ghilb_state(parse_group(spec)) for spec in ("1/13(1,3,9)", "1/15(1,2,12)")]
    checked = 0
    for state in states:
        g = state.group
        fan = state.fan
        gens = state.taut.gens
        classes = divisor_classes(ClassTable(state))
        interior = fan.interior_vertices()
        stars = fan.geometry.stars
        for k in range(2, len(interior) + 1):
            for verts in itertools.combinations(interior, k):
                comps = components(fan, verts)
                if len(comps) == 1:
                    continue
                dv = ref_divisor_gens(fan, set(verts))
                for kr in range(g.r):
                    sub_sum, quot_sum = classes(kr, verts)
                    for ks in range(g.r):
                        diff = [sub(a, b) for a, b in zip(gens[ks], gens[kr])]
                        twisted = [tuple(x + y for x, y in zip(m, d)) for m, d in zip(diff, dv)]
                        assert ref_chi_on_divisor(fan, stars, diff, verts) == sub_sum[ks]
                        assert ref_chi_on_divisor(fan, stars, twisted, verts) == quot_sum[ks]
                checked += 1
    assert checked >= 17 * 5


def test_fan_geometry_maps_match_chart_reference():
    # Degrees and star restrictions read off ray coefficients equal those
    # read off chart generators, for the tautological bundles and for the
    # divisors of the interior vertices, on every state one crossing from
    # G-Hilb.
    for spec in ["1/11(1,2,8)", "1/6(1,1,4)+1/2(1,0,1)"]:
        g = parse_group(spec)
        s0 = ghilb_state(g)
        states = [s0] + [cross_wall(s0, f) for f in compute_chamber(s0, LPCounter()).facets]
        for state in states:
            fan = state.fan
            geo = fan.geometry
            stars = fan.geometry.stars
            for row, per_tri in zip(state.taut.coeffs, state.taut.gens):
                assert geo.edge_degrees(row) == [
                    ref_degree(fan, per_tri, e) for e in fan.interior_edges
                ]
                for v, star in stars.items():
                    assert geo.restrict_to_star(v, row) == ref_star_restriction(
                        fan, per_tri, star
                    )
            for u in stars:
                dv = ref_divisor_gens(fan, {u})
                assert geo.div_edge_deg[u] == [
                    ref_degree(fan, dv, e) for e in fan.interior_edges
                ]
                for v, star in stars.items():
                    assert geo.div_star_coeffs[v][u] == ref_star_restriction(fan, dv, star)


def test_twist_identity_and_inverse():
    g, gh, taut = setup("1/3(1,1,1)")
    c = gh.fan.vindex[(1, 1, 1)]
    # a zero multiplier twists nothing
    assert taut.twist([c], (0, 0, 0)).key == taut.key
    # the multiplier has one entry per character
    with pytest.raises(ValueError):
        taut.twist([c], (0, 1))
    t2 = taut.twist([c], (0, 0, 1))
    e = gh.fan.interior_edges[0]
    assert bundle_degrees(t2, e) == (0, 1, -1)
    assert t2.twist([c], (0, 0, -1)).key == taut.key


def test_twist_rejects_corner_vertices():
    # The reducer pivots on the corner columns, so only a twist off the
    # corners keeps the rows canonical without reducing them again.
    g, gh, taut = setup("1/3(1,1,1)")
    c = gh.fan.vindex[(1, 1, 1)]
    corner = gh.fan.vindex[(3, 0, 0)]
    with pytest.raises(PreconditionError, match="corner"):
        taut.twist([c, corner], (0, 0, 1))


def test_proper_transform_negates_flopped_degrees():
    g, gh, taut = setup("1/6(1,1,4)+1/2(1,0,1)")
    fan = gh.fan
    e = fan.edge(fan.vindex[(2, 2, 8)], fan.vindex[(8, 2, 2)])
    old = bundle_degrees(taut, e)
    v1, v2 = opposite_vertices(fan, e)
    fan2 = flip(fan, e)
    t2 = taut.proper_transform(fan2)
    new = bundle_degrees(t2, fan2.edge(v1, v2))
    assert all(a == -b for a, b in zip(old, new))
    # ray coefficients unchanged
    assert t2.coeffs == taut.coeffs


def test_fiber_twist_roundtrip_1_2():
    # Crossing the type-III wall twists each bundle by its degree on the
    # fiber times the swept divisor; the negated twist undoes it.
    g, gh, taut = setup("1/2(1,0,1)")
    fan = gh.fan
    (e,) = fan.interior_edges
    w = fan.vindex[(1, 0, 1)]
    degrees = bundle_degrees(taut, e)
    assert degrees == (0, 1)
    t2 = taut.twist([w], degrees)
    assert bundle_degrees(t2, e)[1] == -1
    assert t2.twist([w], (0, -1)).key == taut.key


def test_pl_consistency_preserved_by_operations():
    g, gh, taut = setup("1/11(1,2,8)")
    fan = gh.fan
    c = fan.interior_vertices()[0]
    mark = Character((10,))
    # from_coeffs solves and checks every chart; no exception means pass
    t2 = taut.twist([c], [1 if ch == mark else 0 for ch in g.characters])
    t3 = TautBundle.from_coeffs(g, fan, t2.coeffs)
    assert t3.key == t2.key


def test_line_bundle_of_theta_degrees():
    # The theta-weighted sum of the tautological bundles' coefficient rows
    # is a line bundle for integral theta; the per-fan degree map is linear,
    # so its degree on a curve is the theta pairing with the curve class.
    g, gh, taut = setup("1/11(1,2,8)")
    theta = theta_from_nontrivial(g, [1] * (g.r - 1))  # interior of Theta+
    weights = [int(t) for t in theta.values]
    coeffs = [
        sum(t * row[w] for t, row in zip(weights, taut.coeffs))
        for w in range(len(gh.fan.vertices))
    ]
    for d, e in zip(gh.fan.geometry.edge_degrees(coeffs), gh.fan.interior_edges):
        degs = bundle_degrees(taut, e)
        assert d == sum(t * x for t, x in zip(weights, degs))
        # positivity on G-Hilb for theta in Theta+ unless all degrees vanish
        if any(degs):
            assert d > 0
        # pairing identity with the curve class
        cc = curve_class(taut, e)
        pair = sum(theta.values[k] * cc[k] for k in range(g.r))
        assert d == pair


def test_divisor_pl_degree_adjunction():
    g, gh, taut = setup("1/3(1,1,1)")
    fan = gh.fan
    c = fan.vindex[(1, 1, 1)]
    # O(D)|_D = omega of P^2 on its lines
    assert fan.geometry.div_edge_deg[c] == [-3] * len(fan.interior_edges)


def test_curve_class_pairing_invariant_under_canonicalization():
    # Coefficient rows that differ from the canonical ones by the pairing
    # of an invariant exponent give the same degrees, hence the same curve
    # classes and theta pairings.
    g, gh, taut = setup("1/6(1,2,3)")
    fan = gh.fan
    geo = fan.geometry
    basis = invariant_lattice_basis(g)
    raw = [
        [c - dot(basis[k % len(basis)], w) * (k - 2) for c, w in zip(row, fan.vertices)]
        for k, row in enumerate(taut.coeffs)
    ]
    assert raw != [list(row) for row in taut.coeffs]
    assert TautBundle.from_coeffs(g, fan, raw).key == taut.key
    theta = theta_from_nontrivial(g, [Fraction(k, 2) for k in (1, -3, 5, 7, -2)])
    for i, e in enumerate(fan.interior_edges):
        raw_class = [geo.edge_degrees(row)[i] + 1 for row in raw]
        assert tuple(raw_class) == curve_class(taut, e)
        a = sum(t * c for t, c in zip(theta.values, curve_class(taut, e)))
        b = sum(t * c for t, c in zip(theta.values, raw_class))
        assert a == b


def test_quotient_class_is_rigid_quotient_indicator():
    # on the G-Hilb chamber the canonical class of an unstable divisor at a
    # trivial-character twist is exactly the 0/1 class of the quotient side
    g, gh, taut = setup("1/11(1,2,8)")
    fan = gh.fan
    v4 = fan.vindex[(3, 6, 2)]  # divisor marked rho4
    cls = divisor_classes(class_table(g, gh, taut))(g.char_index[g.trivial], [v4])[1]
    assert set(cls) <= {0, 1}
    assert cls[0] == 1  # the trivial character lies in the quotient
