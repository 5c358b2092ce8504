"""Exact linear algebra over Fractions.

Small dense matrices only (dimension <= ~60 here); plain Gaussian
elimination is more than fast enough and stays exact.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def zeros(nrows, ncols):
    return [[ZERO] * ncols for _ in range(nrows)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = ONE
    return m


def transpose(m):
    return [list(col) for col in zip(*m)]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), ZERO) for col in bt] for row in a]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, s):
    s = Fraction(s)
    return [[x * s for x in row] for row in a]


def is_symmetric(m):
    n = len(m)
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n))


def rref(m):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    a = [row[:] for row in m]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        inv = ONE / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def rank(m):
    if not m:
        return 0
    return len(rref(m)[1])


def nullspace(m):
    """Basis of the right nullspace, as a list of coefficient vectors."""
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    red, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def det(m):
    a = [row[:] for row in m]
    n = len(a)
    sign = ONE
    result = ONE
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c] != 0), None)
        if p is None:
            return ZERO
        if p != c:
            a[c], a[p] = a[p], a[c]
            sign = -sign
        piv = a[c][c]
        result *= piv
        inv = ONE / piv
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return sign * result


def inverse(m):
    n = len(m)
    aug = [row[:] + ident_row for row, ident_row in zip(m, identity(n))]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in red[:n]]


def in_span(vectors, v):
    """Exact membership of v in span(vectors)."""
    if not vectors:
        return all(x == 0 for x in v)
    base = [list(w) for w in vectors]
    return rank(base) == rank(base + [list(v)])
