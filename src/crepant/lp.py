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

Cone membership first runs an exact sign presolve on bit masks of each
coordinate row's generator signs.  A forcing row (target 0, generators of
one sign) drops the generators that are nonzero on it; a singleton row
(one nonzero generator) fixes that generator's weight and substitutes it.
A row whose target has no generator of its sign proves infeasibility, and
a target reduced to 0 proves feasibility; only what is left undecided
reaches the kernel, on the reduced rows and columns.  A Farkas witness of
the reduced system is carried back through the dropped rows in reverse
order, so every infeasible answer has a full witness, checked exactly.
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

    The system sum_j x_j g_j = c, x >= 0, has one row per coordinate.  An
    exact presolve runs first, on bit masks over the generators of each
    row's signs, and applies two rules until neither fires:

    - forcing row: c_i = 0 and every live generator is >= 0 on row i (or
      every one is <= 0), so those nonzero there have weight 0; they and
      the row are dropped;
    - singleton row: c_i != 0, exactly one live generator g_j is nonzero
      on row i and divides c_i, so x_j = c_i / g_j[i] (positive, as the
      sign test below runs first); x_j g_j is subtracted from c and the
      row and the column are dropped.

    A row with c_i != 0 and no live generator of its sign proves the
    system infeasible; once c has become 0 it is feasible, and the
    substituted combination is recomputed exactly.  Otherwise the phase-I
    kernel decides the reduced rows and columns, and only this case counts
    as an LP solve.

    Returns (True, None) or (False, witness) where the witness t is an
    integer vector with dot(g, t) >= 0 for every generator and
    dot(c, t) < 0, all verified exactly.  It starts as the reduced
    system's witness (or -sign(c_i) e_i for a row with no generator of its
    sign), zero on the dropped rows, and is rebuilt through the dropped
    rows in reverse order: a forcing row of sign s gets t_i = s*M with M
    just large enough that every generator dropped there has g . t >= 0;
    a singleton row gets the t_i with g_j . t = 0, t first scaled by
    |g_j[i]| when needed.  Generators still live after a row's elimination
    vanish on it, so neither step moves their products, and c vanishes on
    the row once it is eliminated, so c . t keeps its sign.
    """
    d = len(c)
    pos = [0] * d  # per row: bit j set when g_j is > 0 there
    neg = [0] * d  # per row: bit j set when g_j is < 0 there
    for j, g in enumerate(gens):
        bit = 1 << j
        for i, v in enumerate(g):
            if v > 0:
                pos[i] |= bit
            elif v < 0:
                neg[i] |= bit
    target = c
    c = list(c)
    live = (1 << len(gens)) - 1
    left = list(range(d))  # live rows
    steps = []  # ("force", row, sign, dropped mask) | ("single", row, generator, weight)
    t = None
    changed = True
    while changed and t is None:
        changed = False
        for i in left[:]:
            p = pos[i] & live
            q = neg[i] & live
            ci = c[i]
            if ci == 0:
                if p and q:
                    continue
                if p or q:
                    steps.append(("force", i, 1 if p else -1, p | q))
                    live &= ~(p | q)
            elif not (p if ci > 0 else q):
                t = [0] * d
                t[i] = -1 if ci > 0 else 1
                break
            else:
                nz = p | q
                if nz & (nz - 1):
                    continue
                j = nz.bit_length() - 1
                g = gens[j]
                x, rem = divmod(ci, g[i])
                if rem:
                    continue
                c = [a - x * b for a, b in zip(c, g)]
                steps.append(("single", i, j, x))
                live ^= nz
            left.remove(i)
            changed = True
    if t is None:
        if not any(c):
            # Feasible, with weight 0 on every generator still live.
            total = [0] * d
            for kind, _, j, x in steps:
                if kind == "single":
                    total = [a + x * b for a, b in zip(total, gens[j])]
            if total != list(target):
                raise InternalError("invalid presolve combination")
            return True, None
        cols = [g for j, g in enumerate(gens) if live >> j & 1]
        sign = [1 if c[i] >= 0 else -1 for i in left]
        A = [[s * g[i] for g in cols] for i, s in zip(left, sign)]
        b = [s * c[i] for i, s in zip(left, sign)]
        ok, res = _phase1(A, b, counter)
        if ok:
            return True, None
        # res = (numerators, positive denominator) of the dual vector; the
        # witness only matters up to positive scale, so stay integral.
        t = [0] * d
        for i, s, y in zip(left, sign, res[0]):
            t[i] = -s * y
    for step in reversed(steps):
        if step[0] == "force":
            _, i, s, mask = step
            m = 0
            while mask:
                low = mask & -mask
                mask ^= low
                g = gens[low.bit_length() - 1]
                base = sum(map(mul, g, t))
                if base < 0:
                    m = max(m, -(base // abs(g[i])))
            t[i] = s * m
        else:
            _, i, j, _ = step
            g = gens[j]
            base = sum(map(mul, g, t))
            if base % g[i]:
                k = abs(g[i])
                t = [k * v for v in t]
                base *= k
            t[i] = -base // g[i]
    t = tuple(t)
    # Exactness paranoia: verify the Farkas certificate.
    for g in gens:
        if sum(map(mul, g, t)) < 0:
            raise InternalError("invalid Farkas witness (generator side)")
    if sum(map(mul, target, t)) >= 0:
        raise InternalError("invalid Farkas witness (target side)")
    return False, t
