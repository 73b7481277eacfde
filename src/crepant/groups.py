"""Finite abelian subgroups of SL(3,C) given by diagonal weights.

A group is entered as a sum of cyclic factors ``1/n(a,b,c)`` meaning the
diagonal action ``(x,y,z) -> (e^a x, e^b y, e^c z)`` for ``e`` a primitive
n-th root of unity; the SL(3) condition is ``a+b+c = 0 mod n`` per factor.
Characters of G are tuples of residues, one per factor, and the weight of a
Laurent monomial x^e1 y^e2 z^e3 is the character by which G scales it.

Lattice conventions: N is the overlattice of Z^3 generated by the vectors
(1/r)(age data) of group elements.  All points of N are stored r-scaled as
integer triples, so the corner e1 of the junior simplex is (r,0,0) and a
group element g = diag(e^a1, e^a2, e^a3) of age 1 is the triple (a1,a2,a3).
The dual lattice M of G-invariant Laurent exponents pairs integrally with
N, i.e. dot(m, c) = 0 mod r for every stored point c.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import gcd, lcm, prod

from .errors import CapError, GroupParseError, GroupValidationError
from .intlin import det3, dot, hnf_rows, integer_kernel

Exponent = tuple[int, int, int]

# Largest group order accepted.  The G-graph search grows fast with the
# order and depends on the weights: `crepant ghilb` took 3.7 s on
# 1/64(1,1,62), 54 s on 1/64(1,2,61), 20 s on 1/100(1,1,98) and more than
# 60 s on 1/100(1,2,97) (2-vCPU host).  The order is checked before any
# character is built, so a huge order costs nothing.
MAX_GROUP_ORDER = 64


@dataclass(frozen=True)
class Character:
    """A character of G as a tuple of residues, one per cyclic factor."""

    index: tuple[int, ...]

    def __str__(self):
        if len(self.index) == 1:
            return f"rho{self.index[0]}"
        return "rho(" + ",".join(str(i) for i in self.index) + ")"


class GroupSpec:
    """An abelian subgroup of SL(3,C) acting diagonally.

    Attributes:
        factors: list of (order, (w1,w2,w3)) cyclic factors, weights reduced
            mod order.
        r: the group order (product of factor orders).
        characters: all characters in lexicographic index order; the trivial
            character is first.

    There is one object per reduced factor tuple: construction returns the
    group already built for the tuple, so identity is equality, and the
    per-group data (junior points, principal reducer) is kept on that one
    object.  Unpickling goes through the constructor as well.  Orders
    above MAX_GROUP_ORDER raise CapError before anything is built.
    """

    _interned: dict = {}

    def __new__(cls, factors):
        cleaned = []
        for order, weights in factors:
            if order < 1:
                raise GroupValidationError(f"factor order must be >= 1, got {order}")
            w = tuple(x % order for x in weights)
            if sum(w) % order != 0:
                raise GroupValidationError(
                    f"weights {weights} do not sum to 0 mod {order}; not in SL(3)"
                )
            cleaned.append((order, w))
        key = tuple(cleaned)
        orders = tuple(order for order, _ in key)
        r = prod(orders)
        if r > MAX_GROUP_ORDER:
            raise CapError(
                f"group order {r} exceeds the G-graph enumeration limit of {MAX_GROUP_ORDER}"
            )
        self = cls._interned.get(key)
        if self is not None:
            return self
        self = super().__new__(cls)
        self.factors = key
        self.r = r
        self.orders = orders
        # Coordinate weights: weight of x, y, z as characters.
        self.coord_weights = tuple(
            Character(tuple(w[i] % n for n, w in self.factors)) for i in range(3)
        )
        self.characters = tuple(
            Character(idx) for idx in product(*(range(n) for n in self.orders))
        )
        self.char_index = {c: i for i, c in enumerate(self.characters)}
        # G -> (C*)^3 is injective exactly when the coordinate characters
        # generate the character group.
        if len(set(group_elements_scaled(self))) != self.r:
            raise GroupValidationError(
                "coordinate weights do not generate all characters; "
                "the diagonal action is not faithful for the stated order"
            )
        cls._interned[key] = self
        return self

    def __reduce__(self):
        return GroupSpec, (self.factors,)

    @property
    def trivial(self) -> Character:
        return Character(tuple(0 for _ in self.orders))

    def char_add(self, a: Character, b: Character) -> Character:
        return Character(tuple((x + y) % n for x, y, n in zip(a.index, b.index, self.orders)))

    def char_order(self, a: Character) -> int:
        return lcm(*(n // gcd(x, n) for x, n in zip(a.index, self.orders))) if a.index else 1

    def weight(self, e: Exponent) -> Character:
        """Character by which G scales the monomial x^e1 y^e2 z^e3."""
        return Character(
            tuple(
                (e[0] * w[0] + e[1] * w[1] + e[2] * w[2]) % n
                for n, w in self.factors
            )
        )

    @cached_property
    def junior_points(self) -> tuple[LatticePointN, ...]:
        """Lattice points of the junior simplex: age-1 elements plus
        corners, sorted, each flagged corner / edge / interior relative to
        the simplex.  Every fan of the group is a triangulation on them."""
        r = self.r
        corners = [(r, 0, 0), (0, r, 0), (0, 0, r)]
        pts = [LatticePointN(c, "corner") for c in corners]
        seen = set(corners)
        for v in group_elements_scaled(self):
            if sum(v) == r and v not in seen:
                seen.add(v)
                kind = "interior" if all(x > 0 for x in v) else "edge"
                pts.append(LatticePointN(v, kind))
        pts.sort(key=lambda p: p.c)
        return tuple(pts)

    @cached_property
    def principal_reducer(self):
        """The function reducing an r-scaled ray-coefficient row over the
        junior points to its canonical representative, the form in which
        every tautological bundle of the group is stored (bundles).

        Two coefficient rows give the same bundle exactly when they differ
        by the pairing of a G-invariant exponent against all vertices (the
        chart generators differ by that exponent).  These pairings form the
        principal sublattice; reduction is by its Hermite normal form with
        the three corner vertices' columns first, so canonical
        representatives are pinned at the corners in a deterministic way.
        The vertices are the group's junior points, so the reducer is the
        group's and serves every fan of it.  Each Hermite step is mapped
        back to the vertex order here, once, so reducing a row permutes
        nothing and a canonical row costs one floor division per step.
        """
        verts = [p.c for p in self.junior_points]
        r = self.r
        corners = [verts.index((r, 0, 0)), verts.index((0, r, 0)), verts.index((0, 0, r))]
        order = corners + [i for i in range(len(verts)) if i not in corners]
        pairings = [[dot(b, verts[i]) for i in order] for b in invariant_lattice_basis(self)]
        steps = []
        for row in hnf_rows(pairings):
            pcol = next(j for j, x in enumerate(row) if x != 0)
            paired = [0] * len(order)
            for j, i in enumerate(order):
                paired[i] = row[j]
            steps.append((order[pcol], row[pcol], paired))

        def reduce_row(row):
            for col, pivot, paired in steps:
                q = row[col] // pivot
                if q:
                    row = [a - q * x for a, x in zip(row, paired)]
            return tuple(row)

        return reduce_row

    def __str__(self):
        return "+".join(
            f"1/{n}({w[0]},{w[1]},{w[2]})" for n, w in self.factors
        )

    __repr__ = __str__


_TERM = re.compile(r"^1/(\d+)\((\d+),(\d+),(\d+)\)$")


def parse_group(text: str) -> GroupSpec:
    """Parse ``1/n(a,b,c)`` terms joined by '+' into a GroupSpec, the one
    object of its reduced factor tuple."""
    squeezed = re.sub(r"\s+", "", text)
    if not squeezed:
        raise GroupParseError("empty group spec")
    factors = []
    for term in squeezed.split("+"):
        m = _TERM.match(term)
        if not m:
            raise GroupParseError(f"malformed term {term!r}; expected 1/INT(INT,INT,INT)")
        try:
            n, a, b, c = (int(x) for x in m.groups())
        except ValueError:  # more digits than int() converts
            raise GroupParseError(
                f"an integer in a term of {len(term)} characters is too long"
            ) from None
        if n == 0:
            raise GroupValidationError("factor order must be >= 1, got 0")
        factors.append((n, (a, b, c)))
    return GroupSpec(factors)


def invariant_lattice_basis(g: GroupSpec) -> list[Exponent]:
    """Basis of the lattice M of G-invariant Laurent exponents.

    M is the kernel of the weight map Z^3 -> G*, computed as an integer
    kernel after clearing the factor moduli.  The basis spans a sublattice
    of index r in Z^3 and contains (1,1,1) in its span.
    """
    if g.r == 1:
        return [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    rows = []
    nf = len(g.factors)
    for k, (n, w) in enumerate(g.factors):
        rows.append(list(w) + [n if j == k else 0 for j in range(nf)])
    kern = integer_kernel(rows)
    basis = [tuple(v[:3]) for v in kern]
    basis = [tuple(r[:3]) for r in hnf_rows([list(b) for b in basis])]
    if len(basis) != 3:
        raise GroupValidationError("invariant lattice does not have rank 3")
    d = abs(det3(*basis))
    if d != g.r:
        raise GroupValidationError(f"invariant lattice index {d} != group order {g.r}")
    for b in basis:
        if g.weight(b) != g.trivial:
            raise GroupValidationError(f"basis vector {b} is not invariant")
    return basis


@dataclass(frozen=True)
class LatticePointN:
    """A point of the overlattice N stored r-scaled as an integer triple."""

    c: tuple[int, int, int]
    kind: str  # "corner" | "edge" | "interior"


def group_elements_scaled(g: GroupSpec):
    """All group elements as r-scaled N-points (entries in [0, r))."""
    out = []
    for idx in product(*(range(n) for n in g.orders)):
        v = [0, 0, 0]
        for (n, w), i in zip(g.factors, idx):
            step = g.r // n
            for j in range(3):
                v[j] += i * w[j] * step
        out.append(tuple(x % g.r for x in v))
    return out
