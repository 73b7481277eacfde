"""The chamber engine: inequalities, facets, wall types, crossings, graphs.

A chamber of the stability space is presented by a moduli state: a fan
(triangulation) plus its tautological bundle.  The defining inequalities
come in three families: one per exceptional curve (interior edge), and two
per (character, connected set of interior vertices) pair, from restricting
the inverse tautological bundle to the reduced divisor and from twisting
by its canonical sheaf.  A set of interior vertices that is not connected
through interior edges gives a divisor whose parts share no double curve
or triple point, so its classes are the sums of its parts' classes; its
inequalities, sums of theirs, are implied and left out.  The inequalities
of a state are held compactly (InequalityFamily: senses in one string,
each source computed from its index, and raw classes only for the curves
and the facet candidates, those with at most two values, picked out while
the divisor sets are walked); the exactness guard checks every inequality
at the interior point through linear scalars per divisor set, and the
full list of raw classes is regenerated only for the readers that need
it.  functional(raw, sense) gives an inequality's > 0 form.
Exact LP reduces the candidates to the irredundant facet set; each facet is
classified by the curves its wall contracts (none: type 0, isolated rigid
curves: type I, ruling fibers of a divisor: type III; type II cannot
occur and raises), and crossing a facet produces the adjacent state with
the matching tautological update.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from math import lcm
from operator import add, mul, sub

from .bundles import TautBundle, ghilb_taut
from .errors import (
    AmbiguousSplittingError,
    CapError,
    EmptyChamberError,
    InternalError,
    TypeIIWallError,
    UserError,
)
from .fans import Triangulation, flip
from .ggraphs import ghilb_fan
from .groups import GroupSpec
from .lp import LPCounter, cone_membership, find_point, sign_masks
from .recipe import mark_divisors


# ---------------------------------------------------------------------------
# Inequalities


def functional(raw, sense):
    """Functional on nontrivial-character coordinates of the inequality
    theta(raw) > 0 (sense ">") or < 0 (sense "<"), in > 0 form."""
    c = raw if sense == ">" else tuple(-x for x in raw)
    return tuple(c[i] - c[0] for i in range(1, len(c)))


class InequalityFamily:
    """A state's defining inequalities, stored compactly.  The curve
    inequalities come first, one per entry of curves (curve endpoints, in
    order), with their raw classes in curve_raws; the source of a later
    index i is tail_source(i - len(curves)), where a source is ("curve",
    endpoints), ("sub", char, verts) or ("quot", char, verts).  senses
    holds every sense, and candidates maps the index of each facet
    candidate (raw class with at most two values) to its raw class; no
    other raw class is kept.

    A generated family keeps the ClassTable it came from: all_raws()
    regenerates every raw class from it, once, and first_violation()
    checks every inequality at a point by the table's linear guard.  A
    family given all its raw classes (raws) keeps them and checks them one
    by one."""

    __slots__ = ("curves", "curve_raws", "candidates", "senses", "table", "_tail_source", "_raws")

    def __init__(self, curves, curve_raws, candidates, senses, tail_source, table=None, raws=None):
        self.curves = curves
        self.curve_raws = curve_raws
        self.candidates = candidates
        self.senses = senses
        self.table = table
        self._tail_source = tail_source
        self._raws = raws

    def __len__(self):
        return len(self.senses)

    def source(self, i):
        nc = len(self.curves)
        return ("curve", self.curves[i]) if i < nc else self._tail_source(i - nc)

    def all_raws(self) -> list:
        """Every raw class, in family order.  A generated family rebuilds
        them from its table on the first call and keeps them."""
        if self._raws is None:
            raws = list(self.curve_raws)
            for _, subs, quots in self.table.subset_classes():
                for pair in zip(subs, quots):
                    raws += pair
            self._raws = raws
        return self._raws

    def first_violation(self, pt):
        """The index of the first inequality that does not hold strictly
        at the rational point pt, or None.  The functional of a class c is
        c[1:] - c[0], so at den * pt, with den the common denominator, it
        is c . w for w = (-sum(den * pt), den * pt)."""
        den = lcm(*(x.denominator for x in pt))
        ipt = [int(x * den) for x in pt]
        w = [-sum(ipt)] + ipt
        if self.table is not None:
            return self.table.first_violation(w)
        senses = self.senses
        for i, raw in enumerate(self._raws):
            s = sum(map(mul, raw, w))
            if (s <= 0) if senses[i] == ">" else (s >= 0):
                return i
        return None


def _candidates(raws) -> dict:
    """The raw classes with at most two values, by index (one value means
    the zero functional, which chamber_cone rejects)."""
    return {i: raw for i, raw in enumerate(raws) if len(set(raw)) <= 2}


@dataclass(frozen=True)
class Facet:
    """A facet of a chamber: primitive supporting functional plus the
    classification data of the wall it spans."""

    normal: tuple  # primitive functional, > 0 into the chamber
    wall_type: str  # "0" | "I" | "III"
    tight: tuple  # indices into the chamber's inequality list
    contracted: tuple  # interior-edge endpoint pairs with degree 0 on the wall
    splitting: tuple | None = None  # (r1 chars, r2 chars) for type 0
    divisor: tuple | None = None  # unstable-divisor vertex indices (type 0)
    swept: int | None = None  # swept divisor vertex (type III)


@dataclass(frozen=True)
class ChamberState:
    """A moduli state: fan and tautological bundle."""

    group: GroupSpec
    fan: Triangulation
    taut: TautBundle

    @property
    def key(self):
        return (self.fan.key, self.taut.key)


def ghilb_state(g: GroupSpec) -> ChamberState:
    gh = ghilb_fan(g)
    return ChamberState(g, gh.fan, ghilb_taut(g, gh))


# ---------------------------------------------------------------------------
# Fast class assembly per state


class ClassTable:
    """Per-state tables for assembling R(G)-classes of restricted bundles.

    The inequality family takes two classes per character and per
    connected set S of compact divisors (the fan's geometry.subsets, built
    once per fan); each S is assembled from an earlier set's sums plus one
    vertex's terms.  With c_k the star restriction of T_k on a component
    and M the star's intersection operator, Riemann-Roch gives the chi of
    T_s tensor T_r^(-1) on the star as 1 + (A_s + B_r - 2 c_s.Mc_r)/2 with
    A_s = c_s.Mc_s + 1.Mc_s and B_r = c_r.Mc_r - 1.Mc_r (Gram form);
    inclusion-exclusion over the double curves and triple points inside S
    gives the restriction class, and twisting by O(S) adds per component
    the linear term c_k.Mt (t the restriction of O(S)) plus fan-only
    constants.  A set that is not connected meets no double curve or
    triple point between its parts, so its classes are the sums of its
    components' classes and its inequalities are implied by theirs.
    """

    def __init__(self, state: ChamberState):
        taut = state.taut
        self.state = state
        geo = state.fan.geometry
        self.geo = geo
        self.edges = geo.edges
        # Per compact curve, the degrees of every character's bundle on it.
        self.edge_cols = list(zip(*(geo.edge_degrees(row) for row in taut.coeffs)))
        star_coeffs = {
            v: [geo.restrict_to_star(v, row) for row in taut.coeffs]
            for v in geo.interior
        }
        # chi[v][kr][ks] = chi of T_ks tensor T_kr^(-1) on the star of v.
        self._chi = {}
        # Twist products c_k.Mt: per vertex for O(D_v) on its own star, and
        # per double curve (u, v) for O(D_u) on the star of v plus O(D_v)
        # on the star of u.
        self._self_twist = {}
        self._edge_twist = [[0] * len(taut.coeffs) for _ in self.edges]
        for v, cs in star_coeffs.items():
            mc = [geo.apply_op(v, c) for c in cs]
            a = [sum(map(mul, c, m)) + sum(m) for c, m in zip(cs, mc)]
            b = [sum(map(mul, c, m)) - sum(m) for c, m in zip(cs, mc)]
            table = []
            for kr, mcr in enumerate(mc):
                shift = b[kr]
                nums = [x + shift - 2 * sum(map(mul, c, mcr)) for x, c in zip(a, cs)]
                if any(x & 1 for x in nums):
                    raise InternalError("odd Riemann-Roch numerator on a star")
                table.append([1 + (x >> 1) for x in nums])
            self._chi[v] = table
            ops = geo.twist_ops[v]
            self._self_twist[v] = [sum(map(mul, c, ops[v])) for c in cs]
            for u in geo.neighbours[v]:
                ei = geo.edge_idx[min(u, v), max(u, v)]
                row = self._edge_twist[ei]
                self._edge_twist[ei] = [x + sum(map(mul, c, ops[u])) for x, c in zip(row, cs)]

    def set_sums(self):
        """Per connected divisor set, in the fan's geometry.subsets order:
        (rows, esum, tsum), where rows[kr] sums chi[v][kr] over the set's
        vertices, esum sums edge_cols over its double curves and tsum its
        twist products.  A set's sums come from its parent's plus one
        vertex's terms, and are dropped after its last child."""
        chi = self._chi
        edge_cols = self.edge_cols
        edge_twist = self._edge_twist
        subsets = self.geo.subsets
        last = [-1] * len(subsets)  # per set: position of its last child
        for q, s in enumerate(subsets):
            if s.parent is not None:
                last[s.parent] = q
        r = self.state.group.r
        sums = []  # per set: (rows, esum, tsum) while a child is to come
        for q, (_, parent, v, joins, _, _) in enumerate(subsets):
            chi_v = chi[v]
            if parent is None:
                rows = chi_v
                esum = [0] * r
                tsum = self._self_twist[v]
            else:
                rows0, esum, tsum = sums[parent]
                if last[parent] == q:
                    sums[parent] = None
                rows = [list(map(add, row, chi_row)) for row, chi_row in zip(rows0, chi_v)]
                tsum = map(add, tsum, self._self_twist[v])
                for ei in joins:
                    esum = map(add, esum, edge_cols[ei])
                    tsum = map(add, tsum, edge_twist[ei])
                esum = list(esum)
                tsum = list(tsum)
            sums.append((rows, esum, tsum) if last[q] > q else None)
            yield rows, esum, tsum

    def subset_classes(self):
        """Per connected divisor set, in geometry.subsets order:
        (verts, sub classes, quot classes), one class per character."""
        for s, (rows, esum, tsum) in zip(self.geo.subsets, self.set_sums()):
            # sub[ks] = chi[ks] - esum[ks] + esum[kr] + c_sub, and
            # quot[ks] = sub[ks] + tsum[ks] - tsum[kr] + c_quot.
            subs = [
                tuple(map(sub, row, map(sub, esum, repeat(esum[kr] + s.sub_const))))
                for kr, row in enumerate(rows)
            ]
            quots = [
                tuple(map(add, cls, map(add, tsum, repeat(s.quot_const - tsum[kr]))))
                for kr, cls in enumerate(subs)
            ]
            yield s.verts, subs, quots

    def first_violation(self, w):
        """The linear exactness guard: the index, in generate_inequalities
        order, of the first inequality whose class c has c . w <= 0 for a
        sub or curve class, or >= 0 for a quot class; None when all hold.

        The entries of w sum to 0, so every constant term of a class drops
        out.  A curve's class has value edge_cols[e] . w.  For a connected
        set, let R[kr] be the sum over its vertices of chi[v][kr] . w, E
        the sum over its double curves of edge_cols[e] . w, and T the value
        of its twist sums tsum; then the sub class of character kr has
        value R[kr] - E and its quot class R[kr] - E + T.  These scalars
        grow from the parent's as the sums do, at O(r) work per set."""

        def value(c):
            return sum(map(mul, c, w))

        ew = [value(c) for c in self.edge_cols]
        for e, x in enumerate(ew):
            if x <= 0:
                return e
        chiw = {v: [value(row) for row in rows] for v, rows in self._chi.items()}
        sw = {v: value(c) for v, c in self._self_twist.items()}
        tw = [value(c) for c in self._edge_twist]
        scalars = []  # per set: (R, E, T)
        i = len(ew)
        for _, parent, v, joins, _, _ in self.geo.subsets:
            if parent is None:
                rs, e, t = chiw[v], 0, sw[v]
            else:
                rs, e, t = scalars[parent]
                rs = list(map(add, rs, chiw[v]))
                t += sw[v]
                for ei in joins:
                    e += ew[ei]
                    t += tw[ei]
            scalars.append((rs, e, t))
            if min(rs) <= e or max(rs) + t >= e:
                for kr, x in enumerate(rs):
                    if x <= e:
                        return i + 2 * kr
                    if x + t >= e:
                        return i + 2 * kr + 1
            i += 2 * len(rs)
        return None


def generate_inequalities(state: ChamberState, table: ClassTable | None = None):
    """The defining inequality family of a state, before redundancy work:
    one per compact curve and two per character and connected divisor
    set (a disconnected set's classes are sums of its components', so its
    inequalities are implied).  A curve's class is 1 plus the degree of
    each character's bundle on it.  After the curves come, per connected
    set in geometry.subsets order and per character, the sub (">") and
    quot ("<") inequalities, so a source is read off the index.

    Only the facet candidates' raw classes are built, while the sets are
    walked: the sub class of character kr is rows[kr] - esum plus a
    constant and its quot class rows[kr] - esum + tsum plus a constant
    (ClassTable.set_sums), so each takes two values exactly when that
    difference does."""
    table = table or ClassTable(state)
    chars = state.group.characters
    subsets = table.geo.subsets
    curves = tuple(e.endpoints for e in table.edges)
    tail_source = partial(_subset_source, chars, subsets)
    curve_raws = [tuple(d + 1 for d in col) for col in table.edge_cols]
    candidates = _candidates(curve_raws)
    i = len(curves)
    for s, (rows, esum, tsum) in zip(subsets, table.set_sums()):
        tdiff = list(map(sub, tsum, esum))
        for kr, row in enumerate(rows):
            if len(set(map(sub, row, esum))) <= 2:
                candidates[i] = tuple(x - y + esum[kr] + s.sub_const for x, y in zip(row, esum))
            if len(set(map(add, row, tdiff))) <= 2:
                c = esum[kr] + s.sub_const - tsum[kr] + s.quot_const
                candidates[i + 1] = tuple(x + y + c for x, y in zip(row, tdiff))
            i += 2
    return InequalityFamily(
        curves,
        curve_raws,
        candidates,
        ">" * len(curves) + "><" * (len(chars) * len(subsets)),
        tail_source,
        table=table,
    )


def _subset_source(chars, subsets, j):
    """Source of the j-th inequality after the curves: 2r per connected
    set, a sub then a quot per character."""
    q, k = divmod(j, 2 * len(chars))
    return ("quot" if k & 1 else "sub", chars[k >> 1], subsets[q].verts)


# ---------------------------------------------------------------------------
# Facet extraction


def _sum_free(vecs):
    """The members of a list of distinct nonzero integer vectors that are
    not the sum of two others, in list order (a conic combination of other
    valid inequalities is never extreme, hence never a facet).

    Each vector is packed into one integer key, its entries the digits in
    base 2^k with k = (6m + 1).bit_length() for m the largest |entry|.  The
    packing is linear, and f - a - b for members f, a, b has entries of
    size at most 3m < 2^(k-1), so its key is 0 only when it is 0: f = a + b
    exactly when key(f) - key(a) is a member's key.  (a = f gives 0, which
    is no member's key.)"""
    k = (6 * max((abs(x) for f in vecs for x in f), default=0) + 1).bit_length()
    keys = []
    for f in vecs:
        key = 0
        for x in reversed(f):
            key = (key << k) + x
        keys.append(key)
    members = set(keys)
    return [f for f, kf in zip(vecs, keys) if members.isdisjoint([kf - ka for ka in keys])]


def _foot_certificate(f, probe, candidates):
    """Facet certificate without LP.  For the probe point e, the point
    q = (f.f) e - (f.e) f is (f.f) times the orthogonal projection of e
    onto the hyperplane {f = 0}, so it is integral and lies on that
    hyperplane.  Returns True when q strictly satisfies every other
    candidate, which certifies that f spans a facet."""
    ff = sum(map(mul, f, f))
    fe = sum(map(mul, f, probe))
    q = tuple(ff * e - fe * x for e, x in zip(probe, f))
    if not any(q):
        return False
    for g in candidates:
        if g is not f and sum(map(mul, g, q)) <= 0:
            return False
    return True


def _facet_normals(prims, counter: LPCounter):
    """Irredundant members of a set of nonzero primitive functionals: the
    extreme rays of their cone, sorted.

    Cheap exact certificates go first: a candidate equal to the sum of two
    others is never extreme (screened on packed integer keys by _sum_free),
    and a point on a candidate's hyperplane strictly inside all other
    candidates certifies a facet.  One pass over the rest, in support-size
    order, then settles each with one exact cone-membership test: a
    candidate lying in the cone of the candidates still kept is dropped.  The test starts with the exact sign presolve of
    lp.cone_membership, which decides most candidates with no simplex; only
    what it leaves undecided costs an LP.  Dropping a generator that lies
    in the cone of the others leaves the cone unchanged, and the cone of a
    subset only shrinks, so a candidate kept at its turn stays irredundant
    and the pass ends on the facet set.  The presolve's sign masks are
    built once per scan over the undecided candidates; each test passes the
    bit mask of the kept candidates other than its own, so the generators
    keep their list order and the reduced systems are those of a fresh
    test on the kept list minus the candidate.
    """
    uniq = sorted(
        set(prims),
        key=lambda f: (sum(1 for x in f if x), sum(abs(x) for x in f), f),
    )
    undecided = _sum_free(uniq)
    if not undecided:
        return []
    # Probe point for foot certificates: an exact interior point of the
    # undecided system would do, but any strictly-positive point works as
    # a heuristic; verification is exact either way.
    d = len(undecided[0])
    probe = tuple(sum(g[i] for g in undecided) for i in range(d))
    masks = sign_masks(undecided, d)
    kept = (1 << len(undecided)) - 1
    for j, f in enumerate(undecided):
        if _foot_certificate(f, probe, undecided):
            continue
        others = kept & ~(1 << j)
        ok, _ = cone_membership(f, undecided, counter, masks, others)
        if ok:
            kept = others
    return sorted(f for j, f in enumerate(undecided) if kept >> j & 1)


@dataclass
class Chamber:
    """A computed chamber: inequalities, facets and an interior point."""

    state: ChamberState
    inequalities: InequalityFamily
    facets: list
    interior_point: tuple

    @property
    def redundant(self) -> list:
        """Indices of the inequalities that span no facet: those in no
        facet's tight set."""
        tight = set().union(*(f.tight for f in self.facets))
        return [i for i in range(len(self.inequalities)) if i not in tight]

    def facet_by_normal(self, normal):
        for f in self.facets:
            if f.normal == tuple(normal):
                return f
        raise UserError(f"no facet with normal {normal}")


def chamber_cone(state: ChamberState, ineqs: InequalityFamily, counter: LPCounter) -> Chamber:
    """Facets, tight inequality sets and a rational interior point.

    Only inequalities that can span a wall are facet candidates: with the
    trivial character's coefficient eliminated, a wall's functional is a
    0/1 or -1/0 vector, so its raw class takes exactly two values (one
    value is the zero functional).  The others are implied by the
    candidates whenever the system cuts out a chamber, so the family keeps
    only the candidates' raw classes; the tests certify this on every
    chamber they walk (each excluded functional lies in the cone of the
    facet normals), and the exactness guard checks every inequality at
    the interior point.  The classification reads candidates, senses and
    sources off the family.
    """
    senses = ineqs.senses
    tight = {}  # primitive functional -> candidate indices
    for i, raw in ineqs.candidates.items():
        # The functional raw[1:] - raw[0] takes the values 0 and
        # d = other - raw[0], so its primitive form has entries 0 and
        # the sign of d, negated for sense "<".
        c0 = raw[0]
        hi = max(raw)
        if hi == min(raw):
            raise InternalError(f"vanishing inequality functional from {ineqs.source(i)}")
        s = 1 if (hi > c0) == (senses[i] == ">") else -1
        tight.setdefault(tuple(0 if x == c0 else s for x in raw[1:]), []).append(i)
    normals = _facet_normals(list(tight), counter)
    pt = find_point(normals, [1] * len(normals), counter)
    if pt is None:
        raise EmptyChamberError(
            "inequality system has empty interior; inconsistent state"
        )
    # Exactness guard: every generated inequality, including any excluded
    # from the facet scan, must hold strictly at the interior point.
    i = ineqs.first_violation(pt)
    if i is not None:
        raise InternalError(f"inequality from {ineqs.source(i)} violated at the interior point")
    curves = dict(zip(ineqs.curves, ineqs.curve_raws))
    facets = [_classify(state, nrm, ineqs, tuple(tight[nrm]), curves) for nrm in normals]
    return Chamber(state, ineqs, facets, pt)


# ---------------------------------------------------------------------------
# Wall classification


def _classify(state: ChamberState, normal, ineqs, tight, curves) -> Facet:
    """Classify the wall spanned by a facet via its contracted curves, the
    curve inequalities in its tight set.  curves maps the endpoints of
    each compact curve to its class."""
    fan = state.fan
    contracted = [
        fan.edge_map[src[1]] for src in map(ineqs.source, tight) if src[0] == "curve"
    ]
    if not contracted:
        sub = _splitting_from_normal(normal)
        chars = [c.index for c in state.group.characters]
        return Facet(
            normal,
            "0",
            tight,
            (),
            splitting=(
                tuple(c for c, x in zip(chars, sub) if x),
                tuple(c for c, x in zip(chars, sub) if not x),
            ),
            divisor=_unstable_divisor(state, ineqs, tight, sub, curves),
        )
    fiber_edges = []
    flop_edges = []
    swept = set()
    geo = fan.geometry
    for e in contracted:
        a, b = geo.relation(e)
        if (a, b) == (-1, -1):
            flop_edges.append(e)
        elif 0 in (a, b):
            fiber_edges.append(e)
            swept.add(e.endpoints[0] if b == 0 else e.endpoints[1])
        else:
            raise TypeIIWallError(
                f"wall contracts a curve with degrees {(a, b)}; the"
                " contraction would drop a divisor to a point"
            )
    for v, at_v in geo.edges_at.items():
        if at_v and all(e in contracted for e in at_v):
            raise TypeIIWallError(
                f"wall contracts every curve at vertex {fan.vertices[v]}"
            )
    if fiber_edges:
        if flop_edges:
            raise InternalError(
                "wall contracts both rigid curves and ruling fibers"
            )
        if len(swept) != 1:
            raise InternalError(
                f"wall sweeps {len(swept)} divisors; expected exactly one"
            )
        # Crossing twists each bundle by its degree on the fibers, which is
        # (0, normal) when every fiber's class is 1 + (0, normal): degrees
        # equal on all fibers, and all in {0,1} or all in {0,-1}.
        fiber_class = tuple(1 + x for x in (0,) + normal)
        if any(curves[e.endpoints] != fiber_class for e in fiber_edges):
            raise InternalError(f"fiber degrees are not the facet normal {normal}")
        return Facet(
            normal,
            "III",
            tight,
            tuple(e.endpoints for e in fiber_edges),
            swept=next(iter(swept)),
        )
    # Simultaneous flops must not share a triangle.
    tris = [set(e.triangles) for e in flop_edges]
    for i in range(len(tris)):
        for j in range(i + 1, len(tris)):
            if tris[i] & tris[j]:
                raise InternalError("flop curves of one wall share a chart")
    return Facet(normal, "I", tight, tuple(e.endpoints for e in flop_edges))


def _splitting_from_normal(normal):
    """The 0/1 indicator of the sub characters R1 of a type-0 wall, read
    off its normal.

    The normal, as a class with zero coefficient at the trivial character,
    is the indicator of R1 (trivial character outside R1) or minus the
    indicator of R2 (trivial character inside R1)."""
    cls = (0,) + tuple(normal)
    values = set(cls)
    if values <= {0, 1}:
        sub = cls
    elif values <= {-1, 0}:
        sub = tuple(x + 1 for x in cls)
    else:
        raise AmbiguousSplittingError(
            f"type-0 facet normal {normal} is not a 0/1 class up to complement"
        )
    if all(sub) or not any(sub):
        raise AmbiguousSplittingError("degenerate character split at a type-0 wall")
    return sub


def _unstable_divisor(state, ineqs, tight, sub, curves):
    """Recover the unstable divisor of a type-0 wall from tight divisor
    inequalities whose class is exactly the sub/quotient indicator and on
    whose divisor that side's bundles restrict isomorphically: equal
    degrees on every compact curve at it (faithful on Pic)."""
    quot = tuple(1 - x for x in sub)
    candidates = set()
    for i in tight:
        raw = ineqs.candidates[i]
        kind, _, verts = ineqs.source(i)
        if kind == "sub" and raw == sub:
            candidates.add((sub, verts))
        elif kind == "quot" and raw == quot:
            candidates.add((quot, verts))
    edges_at = state.fan.geometry.edges_at
    valid = set()
    for side, verts in candidates:
        classes = [curves[e.endpoints] for v in verts for e in edges_at[v]]
        restricted = {tuple(c[k] for c in classes) for k, x in enumerate(side) if x}
        if len(restricted) == 1:
            valid.add(verts)
    if len(valid) != 1:
        raise AmbiguousSplittingError(
            f"type-0 wall with {len(valid)} candidate unstable divisors"
        )
    return next(iter(valid))


# ---------------------------------------------------------------------------
# Crossing


def cross_wall(state: ChamberState, facet: Facet) -> ChamberState:
    """The adjacent state across a classified facet: a flop's proper
    transform (type I), or a twist of the k-th bundle by the k-th
    coefficient of (0, normal) times the unstable or swept divisor.  At a
    type-0 wall that twists R1 by +D when the trivial character is in R2,
    and R2 by -D when it is in R1; at a type-III wall it twists each
    bundle by its fiber degree."""
    g = state.group
    if facet.wall_type == "I":
        fan = state.fan
        for endpoints in facet.contracted:
            fan = flip(fan, fan.edge(*endpoints))
        taut = state.taut.proper_transform(fan)
        return ChamberState(g, fan, taut)
    if facet.wall_type in ("0", "III"):
        divisor = facet.divisor if facet.wall_type == "0" else (facet.swept,)
        taut = state.taut.twist(divisor, (0,) + facet.normal)
        return ChamberState(g, state.fan, taut)
    raise InternalError(f"unknown wall type {facet.wall_type}")


def compute_chamber(state: ChamberState, counter: LPCounter) -> Chamber:
    return chamber_cone(state, generate_inequalities(state), counter)


# ---------------------------------------------------------------------------
# Enumeration


@dataclass
class ChamberGraph:
    """BFS result: canonical states, their facet data, typed adjacency.

    Nodes are sorted by canonical state key, so identical inputs give
    identical graphs regardless of traversal order.
    """

    group: GroupSpec
    nodes: list  # list of (state, facets tuple, interior point)
    edges: list  # sorted (from_id, to_id, facet normal, wall type)
    lp_count: int
    pivot_count: int  # simplex pivots over all LP solves

    def fans(self):
        return {st.fan.key for st, _, _ in self.nodes}


def _expand(state: ChamberState):
    """One BFS step on its own LP counter: (facets, interior point,
    [(facet normal, wall type, neighbour state)], LP solves, pivots)."""
    counter = LPCounter()
    chamber = compute_chamber(state, counter)
    crossings = [(f.normal, f.wall_type, cross_wall(state, f)) for f in chamber.facets]
    return (
        tuple(chamber.facets),
        chamber.interior_point,
        crossings,
        counter.count,
        counter.pivots,
    )


def enumerate_chambers(
    g: GroupSpec,
    max_chambers: int = 10_000,
    max_lp: int = 100_000,
    verify_crossings: bool = True,
    workers: int = 1,
) -> ChamberGraph:
    """BFS over chambers from the G-Hilb chamber across all facets.

    The graph is expanded one BFS level at a time, by map or, with
    workers > 1, by a process pool's imap, which returns results in level
    order.  Each state is numbered the first time its key is seen, and
    edges are kept by those numbers.  After each expansion the loop checks
    the LP cap (0 or None disables it) and the chamber cap, so where a
    capped run stops does not depend on the pool.  Nodes are then
    renumbered by sorted state key.
    """
    s0 = ghilb_state(g)
    index = {s0.key: 0}  # state key -> discovery index
    nodes = []  # by discovery index: (state, facets, interior point)
    edges = []  # (from index, to index, normal, type)
    lp_count = pivot_count = 0
    level = [s0]
    pool = None
    if workers > 1:
        from multiprocessing import get_context  # serial runs skip the import

        pool = get_context("fork").Pool(workers)
    with pool or nullcontext():
        expand = pool.imap if pool else map
        while level:
            next_level = []
            for state, result in zip(level, expand(_expand, level)):
                facets, pt, crossings, nlp, npiv = result
                i = len(nodes)  # levels run in discovery order
                nodes.append((state, facets, pt))
                for normal, wtype, nstate in crossings:
                    new = len(index)
                    j = index.setdefault(nstate.key, new)
                    if j == new:
                        next_level.append(nstate)
                    edges.append((i, j, normal, wtype))
                lp_count += nlp
                pivot_count += npiv
                if max_lp and lp_count > max_lp:
                    raise CapError(f"LP solve cap of {max_lp} exceeded")
                if len(index) > max_chambers:
                    raise CapError(f"chamber cap of {max_chambers} exceeded")
            level = next_level
    # Canonical ids by sorted state key; the index keeps keys in discovery
    # order.
    keys = list(index)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    rank = [0] * len(order)
    for r, i in enumerate(order):
        rank[i] = r
    graph = ChamberGraph(
        g,
        [nodes[i] for i in order],
        sorted((rank[a], rank[b], normal, wtype) for a, b, normal, wtype in edges),
        lp_count,
        pivot_count,
    )
    if verify_crossings:
        _verify_graph(graph)
    return graph


def _verify_graph(graph: ChamberGraph):
    """Wall-crossing coherence from the completed graph: every directed
    edge has its reverse with the negated facet normal and the same wall
    type.  Because the reverse edge was produced by actually crossing the
    adjacent chamber's facet, its presence certifies both the shared-facet
    condition and the double-crossing identity."""
    edge_set = {(a, b, n, t) for a, b, n, t in graph.edges}
    for a, b, normal, wtype in graph.edges:
        neg = tuple(-x for x in normal)
        if (b, a, neg, wtype) not in edge_set:
            raise InternalError(
                f"missing reverse crossing for wall {normal} of type {wtype}"
            )


# ---------------------------------------------------------------------------
# The G-Hilb chamber, with its specialised inequality family


def ghilb_chamber(g: GroupSpec, counter: LPCounter | None = None):
    """The chamber of the G-Hilbert scheme, computed twice: once from the
    generic inequality family and once from the specialised one (curve
    classes, a plain positivity per marked character, quotient inequalities
    at the trivial character only, taken from the generic family).  The
    two facet systems must agree."""
    counter = counter or LPCounter()
    state = ghilb_state(g)
    generic = chamber_cone(state, generate_inequalities(state), counter)

    marks = mark_divisors(ghilb_fan(g), g)
    family = generic.inequalities
    nc = len(family.curves)
    sources = [
        ("sub", rho, (v,))
        for v, chars in sorted(marks.items())
        for rho in sorted(chars, key=lambda c: c.index)
    ]
    raws = family.curve_raws + [
        tuple(1 if c == rho else 0 for c in g.characters) for _, rho, _ in sources
    ]
    senses = ">" * len(raws)
    # Each connected set has 2r entries, a sub then a quot per character.
    k0 = g.characters.index(g.trivial)
    quots = range(nc + 2 * k0 + 1, len(family), 2 * g.r)
    all_raws = family.all_raws()
    raws += [all_raws[i] for i in quots]
    sources += map(family.source, quots)
    special = InequalityFamily(
        family.curves,
        family.curve_raws,
        _candidates(raws),
        senses + "<" * len(quots),
        sources.__getitem__,
        raws=raws,
    )
    specialised = chamber_cone(state, special, counter)
    if {f.normal for f in generic.facets} != {f.normal for f in specialised.facets}:
        raise InternalError(
            "specialised G-Hilb walls disagree with the generic chamber"
        )
    return generic
