"""Small exact integer linear algebra helpers.

Everything in the geometry layer works with r-scaled integer lattice points,
so the only primitives needed are cross products and 3x3 determinants, 3x3
inverses and the exact solves that read them, Hermite reduction of a handful
of generators, and integer kernels.  The fan and bundle layers keep each
triangle's inverse on its fans.Triangulation.  All arithmetic is over
Python ints (arbitrary precision).
"""

from __future__ import annotations

from math import gcd


Vec3 = tuple[int, int, int]


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def cross(a: Vec3, b: Vec3) -> Vec3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def det3(a: Vec3, b: Vec3, c: Vec3) -> int:
    return dot(a, cross(b, c))


def inverse3(a: Vec3, b: Vec3, c: Vec3):
    """The dual rows (b x c, c x a, a x b) of the rows t = (a, b, c) and
    their determinant d, so that dual[j] . t[i] = d [i == j]."""
    dual = (cross(b, c), cross(c, a), cross(a, b))
    return dual, dot(a, dual[0])


def solve3(inverse, rhs) -> Vec3 | None:
    """The x with t @ x = rhs, from inverse3(*t), or None when it is not
    integral (Cramer's rule over the stored adjugate)."""
    dual, d = inverse
    qr = [divmod(dot(rhs, col), d) for col in zip(*dual)]
    return None if any(rem for _, rem in qr) else tuple(q for q, _ in qr)


def primitive(v):
    """Divide an integer vector by the gcd of its entries (0 stays 0)."""
    g = gcd(*v)
    return tuple(a // g for a in v) if g > 1 else tuple(v)


def hnf_rows(mat: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of an integer matrix.

    Returns the nonzero rows in echelon form with positive pivots and the
    entries above each pivot reduced into [0, pivot).  Columns are processed
    in the given order, so callers control which coordinates get pivots.
    """
    rows = [list(r) for r in mat if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    out: list[list[int]] = []
    for col in range(ncols):
        sel = [r for r in rows if r[col] != 0]
        if not sel:
            continue
        # Euclidean elimination within the column; terminates because the
        # total |.| in the column strictly decreases.
        while len(sel) > 1:
            sel.sort(key=lambda r: abs(r[col]))
            p = sel[0]
            for r in sel[1:]:
                q = r[col] // p[col]
                for j in range(ncols):
                    r[j] -= q * p[j]
            sel = [r for r in sel if r[col] != 0]
        pivot = sel[0]
        rows = [r for r in rows if r is not pivot and any(r)]
        if pivot[col] < 0:
            pivot = [-a for a in pivot]
        out.append(pivot)
    # Reduce entries above pivots.
    for i in reversed(range(len(out))):
        pcol = next(j for j, a in enumerate(out[i]) if a != 0)
        for k in range(i):
            q = out[k][pcol] // out[i][pcol]
            if q:
                for j in range(ncols):
                    out[k][j] -= q * out[i][j]
    return out


def integer_kernel(mat: list[list[int]]) -> list[list[int]]:
    """Basis of the integer kernel {x in Z^n : mat @ x = 0}.

    Runs row HNF on the matrix whose rows are (column j of mat, e_j); the
    row span is {(mat @ x, x)} so the HNF rows with vanishing first block
    form a basis of the kernel, read off from the identity block.
    """
    if not mat:
        return []
    nrows = len(mat)
    ncols = len(mat[0])
    aug = [
        [mat[i][j] for i in range(nrows)] + [1 if k == j else 0 for k in range(ncols)]
        for j in range(ncols)
    ]
    kernel = []
    for row in hnf_rows(aug):
        if all(a == 0 for a in row[:nrows]):
            kernel.append(row[nrows:])
    return kernel
