"""Exact rational solves of small square systems, by Gauss-Jordan
elimination over Fractions: the reference for every solve the library
reads off a triangle's stored inverse (chart generators, star-ray
coordinates, edge relations and star self-intersections)."""

from fractions import Fraction


def fraction_solve(rows, rhs):
    """The rational x with rows @ x = rhs; raises ZeroDivisionError when
    the system is singular."""
    n = len(rows)
    m = [[Fraction(a) for a in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col]), None)
        if piv is None:
            raise ZeroDivisionError("singular system")
        m[col], m[piv] = m[piv], m[col]
        m[col] = [a / m[col][col] for a in m[col]]
        for i in range(n):
            if i != col and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return tuple(row[n] for row in m)


def integral_solve(rows, rhs):
    """The integer x with rows @ x = rhs; raises ValueError when the
    rational solution is not integral."""
    x = fraction_solve(rows, rhs)
    if any(a.denominator != 1 for a in x):
        raise ValueError("no integral solution")
    return tuple(int(a) for a in x)


def in_basis(vectors, x):
    """The integer coordinates of x in the basis of the given vectors."""
    return integral_solve(list(zip(*vectors)), x)
