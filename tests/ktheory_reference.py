"""The K-theory side of the paper, kept as a test reference: Euler
pairings and twists on the representation-ring model of K-theory, and
stability parameters paired with R(G)-classes.  The library never calls
these; the tests use them as an independent check that the classes
crepant.chambers.ClassTable assembles pair correctly with curve classes.

R(G)-valued classes stand for compactly supported K-theory classes of the
resolution, transported through the Fourier-Mukai identification with the
equivariant K-theory of C^3 supported at the origin.  The pairing of two
compactly supported classes is the Koszul alternating sum over exterior
powers of the 3-dimensional representation; with the SL(3) condition this
pairing is skew-symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from crepant.errors import UserError
from crepant.groups import Character, GroupSpec


def char_neg(g: GroupSpec, a: Character) -> Character:
    return Character(tuple((-x) % n for x, n in zip(a.index, g.orders)))


def rclass_regular(g: GroupSpec):
    return tuple(1 for _ in g.characters)


@dataclass(frozen=True)
class ThetaVector:
    """A stability parameter: one rational per character, summing to zero."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        if sum(self.values) != 0:
            raise UserError("stability parameter does not sum to zero")

    def __call__(self, rho_index: int) -> Fraction:
        return self.values[rho_index]


def theta_from_nontrivial(g: GroupSpec, vals) -> ThetaVector:
    """Build a ThetaVector from values on the nontrivial characters."""
    vals = [Fraction(v) for v in vals]
    return ThetaVector(tuple([-sum(vals)] + vals))


def pairing_table(g: GroupSpec):
    """Pairing of bundle classes against compactly supported classes.

    In the bases (rho tensor structure sheaf) and (rho tensor skyscraper),
    only degree-zero maps survive (the source is free), so the matrix is
    the identity; perfectness (unimodularity) is then visible directly.
    """
    n = g.r
    return tuple(
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
    )


def _koszul_weights(g: GroupSpec):
    """Weights of the exterior powers of the 3-dimensional representation.

    The coordinates scale by the coordinate characters, so the
    representation itself carries their inverses.
    """
    wx, wy, wz = g.coord_weights
    add = g.char_add
    lam1 = [char_neg(g, wx), char_neg(g, wy), char_neg(g, wz)]
    lam2 = [add(lam1[0], lam1[1]), add(lam1[0], lam1[2]), add(lam1[1], lam1[2])]
    lam3 = [add(lam2[0], lam1[2])]
    return [[g.trivial], lam1, lam2, lam3]


def compact_euler_coeffs(g: GroupSpec):
    """chi(chi-difference) table: coefficient e[d] with
    Q(beta1, beta2) = sum over characters of beta1(rho) beta2(sigma) e[sigma - rho]."""
    table = {c: 0 for c in g.characters}
    for i, weights in enumerate(_koszul_weights(g)):
        s = 1 if i % 2 == 0 else -1
        for w in weights:
            # [Lambda^i V tensor (sigma - rho)]^G is nonzero iff w = rho - sigma.
            table[char_neg(g, w)] += s
    return table


def compact_pairing(g: GroupSpec, beta1, beta2) -> int:
    """Euler pairing of two compactly supported classes via the Koszul
    alternating sum; exact integer, skew-symmetric."""
    coeffs = compact_euler_coeffs(g)
    chars = g.characters
    total = 0
    for i, rho in enumerate(chars):
        b1 = beta1[i]
        if not b1:
            continue
        for j, sigma in enumerate(chars):
            b2 = beta2[j]
            if not b2:
                continue
            c = coeffs[g.char_add(sigma, char_neg(g, rho))]
            if c:
                total += b1 * b2 * c
    return total


def twist_class(g: GroupSpec, e_class, y):
    """Action of a spherical twist on compactly supported classes:
    y maps to y - chi([E], y) [E]."""
    chi = compact_pairing(g, e_class, y)
    return tuple(a - chi * b for a, b in zip(y, e_class))


def untwist_class(g: GroupSpec, e_class, y):
    """Inverse of twist_class: y maps to y + chi([E], y) [E]."""
    chi = compact_pairing(g, e_class, y)
    return tuple(a + chi * b for a, b in zip(y, e_class))


def theta_pairing(theta, cls) -> Fraction:
    """Pairing of a stability parameter with an R(G)-class; insensitive to
    shifting the class by multiples of the regular class."""
    return sum(t * c for t, c in zip(theta.values, cls))
