"""References for the chamber engine's compact paths: the inequality
family spelled out as (raw, sense, source) triples, one per index, and
the two-term sum screen as a scan of the pool with tuple arithmetic."""

from operator import sub

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
    """The (raw, sense, source) triple of every index of a family."""
    return [(family.raws[i], family.senses[i], family.source(i)) for i in range(len(family))]


def two_term_sum(f, pool):
    """Is f = a + b for members a, b of the pool other than f?"""
    for a in pool:
        if a == f:
            continue
        b = tuple(map(sub, f, a))
        if any(b) and b != f and b in pool:
            return True
    return False
