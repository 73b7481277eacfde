"""Reference for FanGeometry.subsets: a scan of all 2^n bit masks over
the interior vertices, in mask order.  A mask is connected exactly when
removing one of its vertices leaves an earlier connected mask joined to
that vertex; the last such vertex is the one added to the parent."""


def mask_scan_subsets(geo):
    """(verts, parent, vertex, joins) of every connected set of compact
    divisors, in the order of their bit masks."""
    interior = geo.interior
    bit = {v: 1 << i for i, v in enumerate(interior)}
    adj = {v: sum(bit[u] for u in nbrs) for v, nbrs in geo.neighbours.items()}
    position = {}
    out = []
    for mask in range(1, 1 << len(interior)):
        verts = tuple(v for v in interior if mask & bit[v])
        parent = None
        if len(verts) > 1:
            for vertex in reversed(verts):
                rest = mask ^ bit[vertex]
                if adj[vertex] & rest and rest in position:
                    parent = position[rest]
                    break
            else:
                continue
        else:
            vertex = verts[0]
        joins = tuple(
            geo.edge_idx[min(u, vertex), max(u, vertex)]
            for u in geo.neighbours[vertex]
            if mask & bit[u]
        )
        position[mask] = len(out)
        out.append((verts, parent, vertex, joins))
    return out
