"""References for the chamber engine's compact paths: the inequality
family spelled out as (raw, sense, source) triples, one per index, the
exactness guard as a check of every triple at a point, and the two-term
sum screen as a scan of the pool with tuple arithmetic."""

from math import lcm
from operator import mul, sub

from crepant.chambers import ClassTable


def reference_inequalities(state):
    """One (raw, sense, source) triple per compact curve, then two per
    character and connected divisor set (sub, then quot), in
    geometry.subsets order."""
    table = ClassTable(state)
    chars = state.group.characters
    out = [
        (tuple(d + 1 for d in col), ">", ("curve", e.endpoints))
        for e, col in zip(table.edges, table.edge_cols)
    ]
    for verts, subs, quots in table.subset_classes():
        for rho, sub_cls, quot_cls in zip(chars, subs, quots):
            out.append((sub_cls, ">", ("sub", rho, verts)))
            out.append((quot_cls, "<", ("quot", rho, verts)))
    return out


def triples(family):
    """The (raw, sense, source) triple of every index of a family, its raw
    classes regenerated."""
    raws = family.all_raws()
    return [(raws[i], family.senses[i], family.source(i)) for i in range(len(family))]


def literal_violation(triples, pt):
    """The index of the first triple whose inequality does not hold
    strictly at the rational point pt, or None: each raw class c is dotted
    with w = (-sum(p), p) for p = den * pt, den the common denominator, as
    c[1:] - c[0] at p is c . w."""
    den = lcm(*(x.denominator for x in pt))
    p = [int(x * den) for x in pt]
    w = [-sum(p)] + p
    for i, (raw, sense, _) in enumerate(triples):
        value = sum(map(mul, raw, w))
        if (value <= 0) if sense == ">" else (value >= 0):
            return i
    return None


def two_term_sum(f, pool):
    """Is f = a + b for members a, b of the pool other than f?"""
    for a in pool:
        if a == f:
            continue
        b = tuple(map(sub, f, a))
        if any(b) and b != f and b in pool:
            return True
    return False
