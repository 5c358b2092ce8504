from fractions import Fraction

import pytest

from cartanforms import exactla as xl

# helpers that only the tests use (inertia in test_algebra too)


def mat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def solve(a, b):
    """Solve a x = b for a single exact solution; raises if singular."""
    n = len(a)
    aug = [row[:] + [bb] for row, bb in zip(a, b)]
    red, pivots = xl.rref(aug)
    if pivots[:n] != list(range(n)) or n in pivots:
        raise ZeroDivisionError("system is singular or inconsistent")
    return [row[n] for row in red[:n]]


def inertia(m):
    """Signature (n_pos, n_neg, n_zero) of an exact symmetric matrix.

    Congruence reduction; zero diagonals with a nonzero off-diagonal entry
    are handled by the usual hyperbolic-pair row/column addition.
    """
    a = [row[:] for row in m]
    pos = neg = zero = 0
    while a:
        n = len(a)
        d = next((i for i in range(n) if a[i][i] != 0), None)
        if d is None:
            found = None
            for i in range(n):
                for j in range(i + 1, n):
                    if a[i][j] != 0:
                        found = (i, j)
                        break
                if found:
                    break
            if found is None:
                zero += n
                return pos, neg, zero
            i, j = found
            for k in range(n):
                a[i][k] = a[i][k] + a[j][k]
            for k in range(n):
                a[k][i] = a[k][i] + a[k][j]
            continue
        piv = a[d][d]
        if piv > 0:
            pos += 1
        else:
            neg += 1
        rest = [i for i in range(n) if i != d]
        a = [[a[i][j] - a[i][d] * a[d][j] / piv for j in rest] for i in rest]
    return pos, neg, zero


def test_rref_and_rank():
    m = mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    red, pivots = xl.rref(m)
    assert pivots == [0, 1]
    assert xl.rank(m) == 2


def test_nullspace_exact():
    m = mat([[1, 2, 3], [2, 4, 6]])
    basis = xl.nullspace(m)
    assert len(basis) == 2
    for v in basis:
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0


def test_det_and_inverse():
    m = mat([[2, 1], [7, 4]])
    assert xl.det(m) == 1
    inv = xl.inverse(m)
    assert xl.mat_mul(m, inv) == xl.identity(2)
    singular = mat([[1, 2], [2, 4]])
    assert xl.det(singular) == 0
    with pytest.raises(ZeroDivisionError):
        xl.inverse(singular)


def test_solve():
    m = mat([[2, 0], [1, 3]])
    x = solve(m, [Fraction(4), Fraction(5)])
    assert x == [Fraction(2), Fraction(1)]


def test_in_span():
    vecs = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]
    assert xl.in_span(vecs, [Fraction(3), Fraction(2)])
    assert not xl.in_span([vecs[0]], [Fraction(0), Fraction(1)])


def test_inertia_diagonal_and_hyperbolic():
    assert inertia(mat([[2, 0], [0, -3]])) == (1, 1, 0)
    assert inertia(mat([[0, 1], [1, 0]])) == (1, 1, 0)
    assert inertia(mat([[0, 0], [0, 0]])) == (0, 0, 2)
    assert inertia(mat([[1, 0, 0], [0, 0, 2], [0, 2, 0]])) == (2, 1, 0)
