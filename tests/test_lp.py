import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crepant.errors import PreconditionError
from crepant.lp import LPCounter, _phase1, cone_membership, find_point


def reference_phase1(A, b, steps=None):
    """The phase-I kernel updated one tableau entry at a time: the same
    fraction-free tableau, Bland's entering rule and ratio-test tie-break
    as crepant.lp._phase1, on the whole tableau.  Returns (its result, the
    number of pivots); each pivot's (pivot element, denominator) is
    appended to steps when given."""
    m = len(A)
    n = len(A[0]) if m else 0
    ncols = n + m
    rhs = ncols
    T = [list(map(int, A[i])) + [1 if k == i else 0 for k in range(m)] + [int(b[i])] for i in range(m)]
    obj = [0] * (ncols + 1)
    for j in range(n):
        obj[j] = -sum(T[i][j] for i in range(m))
    obj[rhs] = -sum(T[i][rhs] for i in range(m))
    D = 1
    basis = [n + i for i in range(m)]
    pivots = 0
    while True:
        enter = -1
        for j in range(ncols):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        for i in range(m):
            tic = T[i][enter]
            if tic > 0:
                if leave < 0:
                    leave = i
                else:
                    lhs = T[i][rhs] * T[leave][enter]
                    rhs_v = T[leave][rhs] * tic
                    if lhs < rhs_v or (lhs == rhs_v and basis[i] < basis[leave]):
                        leave = i
        assert leave >= 0, "phase-I objective unbounded below"
        piv_row = T[leave]
        piv = piv_row[enter]
        if steps is not None:
            steps.append((piv, D))
        for i in range(m):
            if i == leave:
                continue
            row = T[i]
            f = row[enter]
            for j in range(ncols + 1):
                row[j] = (row[j] * piv - f * piv_row[j]) // D
        f = obj[enter]
        for j in range(ncols + 1):
            obj[j] = (obj[j] * piv - f * piv_row[j]) // D
        D = piv
        basis[leave] = enter
        pivots += 1
    if obj[rhs] == 0:
        x = [Fraction(0)] * n
        for i, bi in enumerate(basis):
            if bi < n:
                x[bi] = Fraction(T[i][rhs], D)
        return (True, x), pivots
    return (False, ([D - obj[n + i] for i in range(m)], D)), pivots


def full_width(rows, rhs):
    """The standard form of rows . x >= rhs (rhs >= 0) written out in full:
    x = x+ - x- and one surplus slack per row, so the columns are
    [P | -P | -I]."""
    m = len(rows)
    A = [
        list(row) + [-v for v in row] + [-1 if k == i else 0 for k in range(m)]
        for i, row in enumerate(rows)
    ]
    return A, list(rhs)


def reference_find_point(rows, rhs):
    """(point or None, pivots) of the full-width system through the
    entry-by-entry reference kernel."""
    (ok, res), pivots = reference_phase1(*full_width(rows, rhs))
    d = len(rows[0])
    return (tuple(res[j] - res[d + j] for j in range(d)) if ok else None), pivots


def reference_cone_membership(c, gens):
    """Cone membership by one phase-I solve of the whole system, with no
    presolve: the row-sign-normalised system {sum_j x_j g_j = c, x >= 0}
    goes to the entry-by-entry reference kernel.  Returns (decision,
    Farkas witness or None)."""
    d = len(c)
    if not gens:
        if any(c):
            return False, tuple(-v for v in c)
        return True, None
    sign = [1 if v >= 0 else -1 for v in c]
    A = [[sign[i] * g[i] for g in gens] for i in range(d)]
    b = [sign[i] * c[i] for i in range(d)]
    (ok, res), _ = reference_phase1(A, b)
    if ok:
        return True, None
    nums, den = res
    return False, tuple(-sign[i] * nums[i] for i in range(d))


def assert_farkas(c, gens, t):
    assert all(isinstance(v, int) for v in t)
    assert all(sum(a * b for a, b in zip(g, t)) >= 0 for g in gens)
    assert sum(a * b for a, b in zip(c, t)) < 0


def assert_membership_matches_reference(c, gens):
    """Same decision as the reference, at most one kernel solve, and a
    witness that passes the Farkas check on every infeasible answer."""
    counter = LPCounter()
    ok, t = cone_membership(c, gens, counter)
    assert ok == reference_cone_membership(c, gens)[0]
    assert counter.count <= 1
    if ok:
        assert t is None
    else:
        assert_farkas(c, gens, t)
    return counter.count


def assert_matches_reference(A, b):
    counter = LPCounter()
    assert (_phase1(A, b, counter), counter.pivots) == reference_phase1(A, b)
    assert counter.count == 1


@st.composite
def standard_form_systems(draw):
    """Integer systems {A x = b, x >= 0} with b >= 0."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 8))
    A = draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(st.integers(0, 9), min_size=m, max_size=m))
    return A, b


@st.composite
def cone_membership_systems(draw):
    """The system cone_membership solves for a target c and 0/+-1
    generators in dimension d <= 10: columns are the generators, rows are
    sign-normalised so that b = |c|."""
    d = draw(st.integers(1, 10))
    vec = st.lists(st.integers(-1, 1), min_size=d, max_size=d)
    gens = draw(st.lists(vec, min_size=1, max_size=12))
    if draw(st.booleans()):
        c = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    else:
        coeffs = draw(st.lists(st.integers(0, 3), min_size=len(gens), max_size=len(gens)))
        c = [sum(k * g[i] for k, g in zip(coeffs, gens)) for i in range(d)]
    sign = [1 if v >= 0 else -1 for v in c]
    A = [[sign[i] * g[i] for g in gens] for i in range(d)]
    b = [sign[i] * c[i] for i in range(d)]
    return A, b


@st.composite
def integer_cone_systems(draw):
    """A target and integer generators in dimension d <= 6, entries in
    [-3, 3]; the target is a nonnegative combination half of the time."""
    d = draw(st.integers(1, 6))
    vec = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    gens = draw(st.lists(vec, max_size=8))
    if draw(st.booleans()):
        c = draw(vec)
    else:
        coeffs = draw(st.lists(st.integers(0, 3), min_size=len(gens), max_size=len(gens)))
        c = [sum(k * g[i] for k, g in zip(coeffs, gens)) for i in range(d)]
    return c, gens


@st.composite
def single_signed_cone_systems(draw):
    """0/+-1 generators whose rows mostly carry one sign (all entries 0 or
    +1, or all 0 or -1), so the forcing and singleton rules of the presolve
    fire often and chain; a target of zeros on many rows."""
    d = draw(st.integers(1, 8))
    row_signs = draw(st.lists(st.sampled_from([1, -1, 0]), min_size=d, max_size=d))
    entries = [st.sampled_from([0, s]) if s else st.integers(-1, 1) for s in row_signs]
    gens = draw(st.lists(st.tuples(*entries), max_size=10))
    if draw(st.booleans()):
        c = draw(st.lists(st.sampled_from([0, 0, 1, -1, 2]), min_size=d, max_size=d))
    else:
        coeffs = draw(st.lists(st.integers(0, 2), min_size=len(gens), max_size=len(gens)))
        c = [sum(k * g[i] for k, g in zip(coeffs, gens)) for i in range(d)]
    return c, gens


@st.composite
def inequality_systems(draw):
    """Systems rows . x >= rhs in dimension d <= 4 with entries in [-3, 3]
    and positive right-hand sides, as chamber_cone asks; half of them get
    the reverse of one row, so they are infeasible."""
    d = draw(st.integers(1, 4))
    row = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    rhs = draw(st.lists(st.integers(1, 4), min_size=len(rows), max_size=len(rows)))
    if draw(st.booleans()):
        k = draw(st.integers(0, len(rows) - 1))
        rows.append([-v for v in rows[k]])
        rhs.append(draw(st.integers(1, 4)))
    return rows, rhs


@settings(max_examples=300)
@given(inequality_systems())
def test_find_point_matches_full_width_reference(system):
    rows, rhs = system
    counter = LPCounter()
    assert (find_point(rows, rhs, counter), counter.pivots) == reference_find_point(rows, rhs)
    assert counter.count == 1
    # The half-width kernel returns what the full-width one does, dual
    # vector of an infeasible system included.
    assert _phase1(rows, rhs, None, split=True) == reference_phase1(*full_width(rows, rhs))[0]


def test_small_entry_systems_take_both_pivot_updates():
    # Seeded systems {A x = b, x >= 0} with entries in [-3, 3] match the
    # reference and make unit-step pivots with D != 1 as well as whole-row
    # pivots (piv != D).
    rng = random.Random(5)
    steps = []
    for _ in range(200):
        m, n = rng.randint(1, 6), rng.randint(1, 8)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(0, 3) for _ in range(m)]
        assert_matches_reference(A, b)
        reference_phase1(A, b, steps)
    assert any(piv == D != 1 for piv, D in steps)
    assert any(piv != D for piv, D in steps)


def test_find_point_matches_full_width_reference_on_fixed_systems():
    # a tight rational point, a system needing x- and slack columns, a
    # negative point, an infeasible pair and a system found infeasible
    # after pivots; slack columns enter in the first and second, x- columns
    # in the second and third
    for rows, rhs in [
        ([(2, -1), (-1, 2), (1, 1)], [1, 3, 2]),
        ([(-2, 1), (1, -1), (-1, -3)], [1, 2, 1]),
        ([(-1, 0), (0, -1)], [1, 1]),
        ([(1,), (-1,)], [1, 1]),
        ([(-1, 2), (3, -1), (-1, -1)], [1, 1, 2]),
    ]:
        counter = LPCounter()
        assert (find_point(rows, rhs, counter), counter.pivots) == reference_find_point(rows, rhs)


@settings(max_examples=300)
@given(standard_form_systems())
def test_phase1_matches_reference_on_random_systems(system):
    assert_matches_reference(*system)


@settings(max_examples=300)
@given(cone_membership_systems())
def test_phase1_matches_reference_on_cone_membership_systems(system):
    assert_matches_reference(*system)


@settings(max_examples=300)
@given(integer_cone_systems())
def test_cone_membership_matches_reference_on_integer_systems(system):
    assert_membership_matches_reference(*system)


@settings(max_examples=300)
@given(single_signed_cone_systems())
def test_cone_membership_matches_reference_on_single_signed_systems(system):
    assert_membership_matches_reference(*system)


def test_presolve_forcing_row():
    # c_1 = 0 and both generators are >= 0 there, so both take weight 0 and
    # row 2 has no generator left; -e_2 becomes (1, -1) with M = 1
    c, gens = (0, 1), [(1, 1), (2, 1)]
    assert assert_membership_matches_reference(c, gens) == 0
    assert cone_membership(c, gens) == (False, (1, -1))


def test_presolve_singleton_substitution():
    # row 1 fixes x_1 = 2, then row 2 fixes x_2 = 1: feasible with no LP
    assert assert_membership_matches_reference((2, 3), [(1, 1), (0, 1)]) == 0
    # row 1 fixes x_1 = 2 and leaves -3 on row 2, where no generator is
    # negative; the witness e_2 is replayed with g_1 . t = 0, once as is and
    # once scaled by g_1[1] = 2
    assert cone_membership((2, -1), [(1, 1), (0, 1)]) == (False, (-1, 1))
    assert cone_membership((4, -1), [(2, 1), (0, 1)]) == (False, (-1, 2))
    # 2 does not divide 3 or 1, so the singleton rule waits: the kernel
    # decides the first system; in the second, row 2 forces both generators
    # out and leaves row 1 with no generator
    assert assert_membership_matches_reference((3, 3), [(2, 2), (0, 1)]) == 1
    assert cone_membership((1, 0), [(2, 2), (0, 1)]) == (False, (-1, 1))


def test_presolve_witness_replayed_through_both_rules():
    # Row 1 forces out g_1 and g_3, row 2 fixes x_2 = 1, and row 3 is then
    # left at -2 with no generator; e_3 is replayed through the singleton
    # row (t_2 = -1) and then the forcing row, where g_3 . t = -6 sets M = 6.
    c, gens = (0, 1, -1), [(1, 0, -1), (0, 1, 1), (1, 1, -5)]
    assert assert_membership_matches_reference(c, gens) == 0
    assert cone_membership(c, gens) == (False, (6, -1, 1))
    # Row 1 forces out g_1, and rows 2 and 3 (x - y = 1, y - x = 1) go to
    # the kernel, whose witness is replayed through the forcing row.
    c, gens = (0, 1, 1), [(1, 5, 0), (0, 1, -1), (0, -1, 1)]
    counter = LPCounter()
    ok, t = cone_membership(c, gens, counter)
    assert not ok and counter.count == 1 and t[0] > 0
    assert_farkas(c, gens, t)


def test_phase1_matches_reference_on_degenerate_systems():
    # no rows; a zero right-hand side (feasible at once, no pivot); an
    # infeasible system whose dual certificate is returned
    assert_matches_reference([], [])
    assert_matches_reference([[1, -1], [2, 0]], [0, 0])
    assert_matches_reference([[1, 1], [-1, -1]], [1, 1])


def test_find_point_simple():
    # x >= 1, y >= 1, x + y >= 3
    x = find_point([(1, 0), (0, 1), (1, 1)], [1, 1, 3])
    assert x is not None
    assert x[0] >= 1 and x[1] >= 1 and x[0] + x[1] >= 3


def test_find_point_infeasible():
    # x >= 1 and -x >= 1
    assert find_point([(1,), (-1,)], [1, 1]) is None


def test_find_point_negative_rhs():
    # the kernel starts from b >= 0, so negative bounds are refused
    with pytest.raises(PreconditionError):
        find_point([(1, 1), (-1, 0)], [-5, -2])


def test_cone_membership_inside():
    ok, w = cone_membership((2, 2), [(1, 0), (0, 1)])
    assert ok and w is None


def test_cone_membership_outside_witness():
    ok, w = cone_membership((-1, 0), [(1, 0), (0, 1)])
    assert not ok
    assert sum(a * b for a, b in zip((-1, 0), w)) < 0


def test_cone_membership_empty_gens():
    ok, w = cone_membership((1, 2), [])
    assert not ok and w is not None
    ok, w = cone_membership((0, 0), [])
    assert ok


def test_cone_membership_randomized():
    rng = random.Random(11)
    for _ in range(60):
        d = rng.randrange(2, 6)
        gens = [tuple(rng.randrange(-3, 4) for _ in range(d)) for _ in range(rng.randrange(1, 7))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        # random nonnegative combination must be inside
        coeffs = [rng.randrange(0, 4) for _ in gens]
        c = tuple(sum(k * g[i] for k, g in zip(coeffs, gens)) for i in range(d))
        ok, _ = cone_membership(c, gens)
        assert ok
        # a random vector: whatever the answer, certificates must verify
        c2 = tuple(rng.randrange(-5, 6) for _ in range(d))
        ok2, w = cone_membership(c2, gens)
        if not ok2:
            assert sum(a * b for a, b in zip(c2, w)) < 0
            for gvec in gens:
                assert sum(a * b for a, b in zip(gvec, w)) >= 0


def test_exactness_fractions():
    # A system with a tight rational solution
    x = find_point([(2, -1), (-1, 2), (1, 1)], [1, 3, 2])
    assert x == (Fraction(5, 3), Fraction(7, 3))
    assert 2 * x[0] - x[1] == 1 and -x[0] + 2 * x[1] == 3
