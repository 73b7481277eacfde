import random

from hypothesis import given, settings
from hypothesis import strategies as st

from crepant.groups import invariant_lattice_basis, parse_group
from crepant.intlin import (
    det3,
    dot,
    hnf_rows,
    integer_kernel,
    inverse3,
    primitive,
    solve3,
)


def reduce_mod_lattice(v, hnf):
    """Canonical coset representative of v modulo the row span of an HNF,
    one pivot column at a time: the reference for the principal reducer."""
    w = list(v)
    for row in hnf:
        pcol = next(j for j, a in enumerate(row) if a != 0)
        q = w[pcol] // row[pcol]
        if q:
            for j in range(len(w)):
                w[j] -= q * row[j]
    return tuple(w)


def test_det3():
    assert det3((1, 0, 0), (0, 1, 0), (0, 0, 1)) == 1
    assert det3((2, 0, 0), (0, 3, 0), (0, 0, 4)) == 24
    assert det3((1, 2, 3), (4, 5, 6), (7, 8, 9)) == 0


def test_solve3_matches_cramer():
    rng = random.Random(1)
    for _ in range(100):
        rows = [tuple(rng.randrange(-5, 6) for _ in range(3)) for _ in range(3)]
        if det3(*rows) == 0:
            continue
        x = tuple(rng.randrange(-7, 8) for _ in range(3))
        rhs = [sum(r[i] * x[i] for i in range(3)) for r in rows]
        inverse = inverse3(*rows)
        assert inverse[1] == det3(*rows)
        assert solve3(inverse, rhs) == x


def test_solve3_int_rejects_fractional():
    assert solve3(inverse3((2, 0, 0), (0, 1, 0), (0, 0, 1)), [1, 0, 0]) is None


def test_primitive():
    assert primitive((2, 4, -6)) == (1, 2, -3)
    assert primitive((0, 0, 0)) == (0, 0, 0)
    assert primitive((5,)) == (1,)


def test_hnf_rows_and_reduce():
    rows = hnf_rows([[2, 0], [0, 3], [2, 3]])
    # lattice is 2Z x 3Z... plus (2,3): gcd structure gives full index 6 sublattice?
    # the span of (2,0),(0,3),(2,3) is 2Z x 3Z
    assert len(rows) == 2
    v = reduce_mod_lattice([5, 7], rows)
    assert v == (1, 1)
    # reduction is idempotent
    assert reduce_mod_lattice(list(v), rows) == v


def test_integer_kernel():
    # kernel of (1, 1, 1) is rank 2
    k = integer_kernel([[1, 1, 1]])
    assert len(k) == 2
    for v in k:
        assert sum(v) == 0
    # kernel of an invertible map is trivial
    assert integer_kernel([[1, 0], [0, 1]]) == []
    # mixed example: x + 2y = 0 over Z
    k2 = integer_kernel([[1, 2]])
    assert len(k2) == 1
    assert primitive(k2[0]) in ((2, -1), (-2, 1))


def test_hnf_randomized_span_preserved():
    rng = random.Random(9)
    for _ in range(50):
        rows = [[rng.randrange(-4, 5) for _ in range(4)] for _ in range(3)]
        h = hnf_rows(rows)
        # every original row reduces to zero against the HNF
        for r in rows:
            assert reduce_mod_lattice(list(r), h) == (0, 0, 0, 0)


@settings(max_examples=150)
@given(st.data())
def test_principal_reducer_matches_reduce_mod_lattice(data):
    # The reducer works in vertex order; the reference reduces the row
    # permuted into HNF column order (corners first) against the HNF of the
    # principal pairings.
    g = parse_group(
        data.draw(st.sampled_from(["1/6(1,2,3)", "1/11(1,2,8)", "1/6(1,1,4)+1/2(1,0,1)"]))
    )
    verts = [p.c for p in g.junior_points]
    r = g.r
    corners = [verts.index((r, 0, 0)), verts.index((0, r, 0)), verts.index((0, 0, r))]
    order = corners + [i for i in range(len(verts)) if i not in corners]
    hnf = hnf_rows([[dot(b, verts[i]) for i in order] for b in invariant_lattice_basis(g)])
    row = data.draw(st.lists(st.integers(-4 * r, 4 * r), min_size=len(verts), max_size=len(verts)))
    out = g.principal_reducer(row)
    assert tuple(out[i] for i in order) == reduce_mod_lattice([row[i] for i in order], hnf)
    assert g.principal_reducer(out) == out
