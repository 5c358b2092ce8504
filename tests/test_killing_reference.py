"""The Killing gram from one integer einsum equals the Fraction loop it
replaced, on every supported algebra."""

from fractions import Fraction

import pytest

from cartanforms.algebra import ALGEBRA_NAMES, build_algebra


def loop_killing(structure):
    dim = len(structure)
    k = [[Fraction(0)] * dim for _ in range(dim)]
    for a in range(dim):
        for b in range(dim):
            k[a][b] = sum((structure[a][e][c] * structure[b][c][e]
                           for e in range(dim) for c in range(dim)), Fraction(0))
    return k


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_killing_gram_matches_fraction_loop(name):
    alg = build_algebra(name)
    expected = loop_killing(alg.structure)
    assert [list(row) for row in alg.killing] == expected
    assert all(type(x) is Fraction for row in alg.killing for x in row)
