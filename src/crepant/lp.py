"""Exact rational linear programming for cone computations.

One phase-I simplex kernel runs on a fraction-free integer tableau with
Bland's rule, so results are exact and termination is guaranteed; each
pivot updates the tableau a whole row at a time, with the same pivots as
an entry-by-entry update.  Two entry points matter: feasibility of a
system of inequalities (used for interior and wall sample points), and
membership of a vector in the conic hull of others (used for redundancy
elimination).  Cone membership returns a Farkas witness on failure: an
exact point weakly inside the cone's dual and strictly negative on the
tested vector, which doubles as a separation certificate.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .errors import InternalError


class LPCounter:
    """Counts simplex solves and pivots."""

    def __init__(self):
        self.count = 0
        self.pivots = 0


def _phase1(A, b, counter=None):
    """Phase-I simplex for {A x = b, x >= 0} with b >= 0 and integer data.

    Fraction-free integer pivoting: the tableau stays integral with a
    single positive denominator (the previous pivot), so every entry is an
    exact minor ratio.  Bland's rule picks the entering column (the first
    with negative reduced cost) and the ratio test breaks ties on the
    smallest basic index, which guarantees termination and fixes the
    basis sequence, hence the returned point.  A pivot rewrites each
    non-pivot row, and the objective row, as one whole-row update
    (a*piv - f*p) // D against the pivot row p, f the row's entry in the
    entering column; a row with f = 0 is only rescaled, and left alone
    when piv = D.

    Returns (True, x) on feasibility or (False, y) with the dual vector y
    satisfying y . A_j <= 0 for every column j and y . b > 0.
    """
    if counter is not None:
        counter.count += 1
    m = len(A)
    n = len(A[0]) if m else 0
    ncols = n + m
    rhs = ncols
    # Integer tableau [A | I_art | b], denominator D = 1, basis = artificials.
    T = [list(map(int, A[i])) + [1 if k == i else 0 for k in range(m)] + [int(b[i])] for i in range(m)]
    # Phase-I objective: minus the column sums, with the artificial columns
    # at reduced cost 0 (c_j = 1, basic).
    obj = [-s for s in map(sum, zip(*T))] if m else [0]
    obj[n:ncols] = [0] * m
    D = 1
    basis = [n + i for i in range(m)]
    pivots = 0
    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), -1)
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
        if leave < 0:
            raise InternalError("phase-I objective unbounded below")
        piv_row = T[leave]
        piv = piv_row[enter]
        for i, row in enumerate(T):
            if i == leave:
                continue
            f = row[enter]
            if f:
                T[i] = [(a * piv - f * p) // D for a, p in zip(row, piv_row)]
            elif piv != D:
                T[i] = [a * piv // D for a in row]
        f = obj[enter]
        obj = [(a * piv - f * p) // D for a, p in zip(obj, piv_row)]
        D = piv
        basis[leave] = enter
        pivots += 1
    if counter is not None:
        counter.pivots += pivots
    # Real objective value is obj[rhs] / D (negated).
    if obj[rhs] == 0:
        x = [Fraction(0)] * n
        for i, bi in enumerate(basis):
            if bi < n:
                x[bi] = Fraction(T[i][rhs], D)
        return True, x
    # Dual vector from the artificial columns' reduced costs:
    # y_i = 1 - obj_real[art_i] = (D - obj[art_i]) / D with D > 0.
    return False, ([D - obj[n + i] for i in range(m)], D)


def find_point(rows, rhs, counter=None):
    """Exact rational x with rows . x >= rhs, or None.

    Free variables are split into positive parts; slack variables complete
    the standard form.
    """
    m = len(rows)
    if m == 0:
        return ()
    d = len(rows[0])
    A = []
    b = []
    for row, t in zip(rows, rhs):
        sign = 1 if t >= 0 else -1
        arow = [sign * v for v in row] + [-sign * v for v in row]
        # a.x - s = t (after sign normalisation)
        A.append(arow + [0] * m)
        b.append(sign * t)
    for i in range(m):
        A[i][2 * d + i] = -1 if rhs[i] >= 0 else 1
    ok, res = _phase1(A, b, counter)
    if not ok:
        return None
    return tuple(res[j] - res[d + j] for j in range(d))


def cone_membership(c, gens, counter=None):
    """Is c a nonnegative rational combination of gens?

    Returns (True, None) or (False, witness) where the witness t is an
    integer vector with dot(g, t) >= 0 for every generator and
    dot(c, t) < 0, all verified exactly.
    """
    d = len(c)
    if not gens:
        if any(c):
            t = tuple(-v for v in c)
            return False, t
        return True, None
    sign = [1 if v >= 0 else -1 for v in c]
    A = [[sign[i] * g[i] for g in gens] for i in range(d)]
    b = [sign[i] * c[i] for i in range(d)]
    ok, res = _phase1(A, b, counter)
    if ok:
        return True, None
    # res = (numerators, positive denominator) of the dual vector; the
    # witness only matters up to positive scale, so stay integral.
    nums, den = res
    t = tuple(-sign[i] * nums[i] for i in range(d))
    # Exactness paranoia: verify the Farkas certificate.
    for g in gens:
        if sum(map(mul, g, t)) < 0:
            raise InternalError("invalid Farkas witness (generator side)")
    if sum(map(mul, c, t)) >= 0:
        raise InternalError("invalid Farkas witness (target side)")
    return False, t
