"""The variations of criteria 5 and 6 are exact identities, not only
float agreements.

S_CS^beta(A + tB) is cubic in t, so the central difference at the
rational step h equals the exact variation Int beta(B ^ F) plus
h^2 / 6 Int beta(B ^ [B, B]), with no rounding.  The topological terms
of a 4d stabilizer connection vanish identically, so their values and
their central differences are exactly 0.
"""

from fractions import Fraction

from cartanforms.actions import cs_variation, topological_variation_check
from cartanforms.algebra import build_algebra, invariant_form
from cartanforms.calculus import lie_bracket_forms, pair_integral, random_form


def test_central_difference_is_exact_plus_the_cubic_remainder():
    """Criterion 6's 100 (seed, direction) pairs, compared exactly."""
    alg = build_algebra("so31")
    form = invariant_form(alg, 2, 3)
    h = Fraction(1, 10000)
    nonzero = 0
    for seed in range(10):
        a = random_form(seed, 1, alg)
        for direction in range(10):
            b = random_form(1000 + 97 * seed + direction, 1, alg)
            exact, fd = cs_variation(a, b, form)
            cubic = pair_integral(form, b, lie_bracket_forms(b, b))
            assert fd == exact + h ** 2 * cubic / 6, (seed, direction)
            nonzero += cubic != 0
    # on these pairs the difference and the exact variation differ
    assert nonzero == 46


def test_topological_variations_are_exactly_zero():
    """Criterion 5's five so41 seeds: every entry is the rational 0."""
    alg = build_algebra("so41")
    for seed in range(5):
        w = random_form(seed, 1, alg, dim=4, support="h", density=0.4)
        d = random_form(seed + 31, 1, alg, dim=4, support="h", density=0.4)
        rep = topological_variation_check(w, d)
        assert set(rep) == {"tr_RR", "tr_RstarR", "d_tr_RR", "d_tr_RstarR"}
        assert all(v == 0 and isinstance(v, Fraction) for v in rep.values())
