"""Exact rational linear programming for cone computations.

One phase-I simplex kernel runs on a fraction-free integer tableau with
Bland's rule, so results are exact and termination is guaranteed.  Two
entry points matter: feasibility of a system of inequalities (used for
interior and wall sample points), and membership of a vector in the conic
hull of others (used for redundancy elimination).  Cone membership returns
a Farkas witness on failure: an exact point weakly inside the cone's dual
and strictly negative on the tested vector, which doubles as a separation
certificate.

A pivot whose pivot element equals the current denominator (almost every
pivot, most with denominator 1) is a unit step: a row changes only in the
pivot row's nonzero columns, so only those entries are updated, in place.
Other pivots update whole rows.  Both give the entries of the
entry-by-entry update, so the pivots are the same.

Feasibility of rows . x >= rhs with rhs >= 0 splits each free variable
into x+ and x- and subtracts one surplus slack per row.  Row operations
keep every x- column the negative of its x+ column and every slack column
the negative of its row's artificial column, so the kernel stores only
[A | I_art | b] and prices the mirrored columns from the stored ones in
Bland order; the basis sequence is that of the full-width tableau.

Cone membership first runs an exact sign presolve on bit masks of each
coordinate row's generator signs.  A forcing row (target 0, generators of
one sign) drops the generators that are nonzero on it; a singleton row
(one nonzero generator) fixes that generator's weight and substitutes it.
A row whose target has no generator of its sign proves infeasibility, and
a target reduced to 0 proves feasibility; only what is left undecided
reaches the kernel, on the reduced rows and columns.  A Farkas witness of
the reduced system is carried back through the dropped rows in reverse
order, so every infeasible answer has a full witness, checked exactly.
The mask table can be built once for a list of generators and shared by
tests over any subset of them, given as a bit mask of live generators:
a redundancy scan tests each candidate against the kept list minus that
candidate with one table.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .errors import InternalError, PreconditionError


class LPCounter:
    """Counts simplex solves and pivots."""

    def __init__(self):
        self.count = 0
        self.pivots = 0


def _phase1(A, b, counter=None, split=False):
    """Phase-I simplex for {A' x = b, x >= 0} with b >= 0 and integer data,
    where A' is A, or [A | -A | -I] when split (free variables split into
    x+ and x-, and one surplus slack per row).

    Fraction-free integer pivoting: the tableau stays integral with a
    single positive denominator (the previous pivot), so every entry is an
    exact minor ratio.  Bland's rule picks the entering column (the first
    with negative reduced cost) and the ratio test breaks ties on the
    smallest basic index, which guarantees termination and fixes the
    basis sequence, hence the returned point.  A pivot rewrites each
    non-pivot row, and the objective row, as (a*piv - f*p) // D against the
    pivot row p, f the row's entry in the entering column.  When piv = D
    this is a - f*p // D, exact since D divides f*p, so only the pivot
    row's nonzero columns of the rows with f != 0 change; otherwise every
    row changes, one with f = 0 by rescaling.

    Only [A | I_art | b] is stored.  The columns of -A and -I stay the
    negatives of A's columns and of the artificial columns; their reduced
    costs are -obj[j] and D - obj[art_i], the latter since an artificial's
    is D - D*y_i and a slack's D*y_i for the dual y.  Column indices
    (basis, Bland order, the returned x) are those of the full-width
    system [A' | I_art | b].

    Returns (True, x) on feasibility or (False, y) with the dual vector y
    satisfying y . A'_j <= 0 for every column j and y . b > 0.
    """
    if counter is not None:
        counter.count += 1
    m = len(A)
    n = len(A[0]) if m else 0
    full = 2 * n + m if split else n  # columns of A'
    rhs = n + m
    # Integer tableau [A | I_art | b], denominator D = 1, basis = artificials.
    T = [list(map(int, A[i])) + [1 if k == i else 0 for k in range(m)] + [int(b[i])] for i in range(m)]
    # Phase-I objective: minus the column sums, with the artificial columns
    # at reduced cost 0 (c_j = 1, basic).
    obj = [-s for s in map(sum, zip(*T))] if m else [0]
    obj[n:rhs] = [0] * m
    D = 1
    basis = [full + i for i in range(m)]
    pivots = 0
    while True:
        # Bland's rule on the full-width columns: s times stored column col
        # enters, with full-width index enter.
        s = 1
        col = enter = next((j for j in range(n) if obj[j] < 0), -1)
        if col < 0 and split:
            # An x- column, then a slack; both mirror stored column col and
            # have full-width index n + col.
            col = next((j for j in range(n) if obj[j] > 0), -1)
            if col < 0:
                col = next((j for j in range(n, rhs) if obj[j] > D), -1)
            if col >= 0:
                s, enter = -1, n + col
        if col < 0:
            col = next((j for j in range(n, rhs) if obj[j] < 0), -1)
            if col < 0:
                break
            enter = full + col - n
        # Its reduced cost; a slack's is offset by D from its artificial's.
        cost = s * (obj[col] - D) if n <= col and enter < full else s * obj[col]
        cv = [s * row[col] for row in T]
        leave = -1
        for i, tic in enumerate(cv):
            if tic > 0:
                if leave < 0:
                    leave = i
                else:
                    lhs = T[i][rhs] * cv[leave]
                    rhs_v = T[leave][rhs] * tic
                    if lhs < rhs_v or (lhs == rhs_v and basis[i] < basis[leave]):
                        leave = i
        if leave < 0:
            raise InternalError("phase-I objective unbounded below")
        piv_row = T[leave]
        piv = cv[leave]
        if piv == D:
            nz = [(j, p) for j, p in enumerate(piv_row) if p]
            for i, f in enumerate(cv):
                if f and i != leave:
                    row = T[i]
                    for j, p in nz:
                        row[j] -= f * p // D
            for j, p in nz:
                obj[j] -= cost * p // D
        else:
            for i, f in enumerate(cv):
                if i == leave:
                    continue
                row = T[i]
                if f:
                    T[i] = [(a * piv - f * p) // D for a, p in zip(row, piv_row)]
                else:
                    T[i] = [a * piv // D for a in row]
            obj = [(a * piv - cost * p) // D for a, p in zip(obj, piv_row)]
        D = piv
        basis[leave] = enter
        pivots += 1
    if counter is not None:
        counter.pivots += pivots
    # Real objective value is obj[rhs] / D (negated).
    if obj[rhs] == 0:
        x = [Fraction(0)] * full
        for i, bi in enumerate(basis):
            if bi < full:
                x[bi] = Fraction(T[i][rhs], D)
        return True, x
    # Dual vector from the artificial columns' reduced costs:
    # y_i = 1 - obj_real[art_i] = (D - obj[art_i]) / D with D > 0.
    return False, ([D - obj[n + i] for i in range(m)], D)


def find_point(rows, rhs, counter=None):
    """Exact rational x with rows . x >= rhs, or None; rhs >= 0.

    Each row becomes the equation row . (x+ - x-) - s = t with a slack
    s >= 0, so the kernel stores only the rows themselves.
    """
    if any(t < 0 for t in rhs):
        raise PreconditionError("find_point needs nonnegative right-hand sides")
    m = len(rows)
    if m == 0:
        return ()
    d = len(rows[0])
    ok, res = _phase1(rows, rhs, counter, split=True)
    if not ok:
        return None
    return tuple(res[j] - res[d + j] for j in range(d))


def sign_masks(gens, d):
    """Per coordinate row 0..d-1, the bit masks of the generators that are
    positive and negative there; bit j stands for gens[j]."""
    pos = [0] * d
    neg = [0] * d
    for j, g in enumerate(gens):
        bit = 1 << j
        for i, v in enumerate(g):
            if v > 0:
                pos[i] |= bit
            elif v < 0:
                neg[i] |= bit
    return pos, neg


def cone_membership(c, gens, counter=None, masks=None, live=None):
    """Is c a nonnegative rational combination of gens?

    Only the generators in the bit mask live take part (all by default);
    masks is sign_masks(gens, len(c)), built here unless given, so one table
    serves tests over many subsets of one generator list.  Column order,
    hence the reduced system and its pivots, is the order of gens.

    The system sum_j x_j g_j = c, x >= 0, has one row per coordinate.  An
    exact presolve runs first, on the sign masks, and applies two rules
    until neither fires:

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
    integer vector with dot(g, t) >= 0 for every generator taking part and
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
    pos, neg = masks or sign_masks(gens, d)
    if live is None:
        live = (1 << len(gens)) - 1
    tested = live  # the presolve narrows live; the witness covers these
    target = c
    c = list(c)
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
    for j, g in enumerate(gens):
        if tested >> j & 1 and sum(map(mul, g, t)) < 0:
            raise InternalError("invalid Farkas witness (generator side)")
    if sum(map(mul, target, t)) >= 0:
        raise InternalError("invalid Farkas witness (target side)")
    return False, t
