"""Differential test of the contraction kernel against the bilinear loops
it replaced.

Before `calculus._contract`, the bracket, the pairing, the two kinds of
wedge and the internal stars were five separate loops.  They are kept here,
in this file only, as the reference: every operation must produce a form
equal (==, i.e. the same canonical components) to the reference's.
"""

from fractions import Fraction

import pytest

from cartanforms.algebra import (
    build_algebra,
    invariant_form,
    killing_form,
    star_form,
)
from cartanforms.calculus import (
    DegreeError,
    LieForm,
    ScalarForm,
    beta_pair,
    covariant_d,
    exterior_d,
    lie_bracket_forms,
    random_form,
    random_scalar_form,
    wedge,
    _acc_add,
    _finish,
    _merge_indices,
    _mul_nums,
)

ZERO = Fraction(0)
# (algebra, torus dimension, cutoff, density) as appendix_forms draws them
APPENDIX_PLANS = [(name, 3, 2, 0.6) for name in ("so31", "iso21", "so22",
                                                  "so4", "iso3")] \
    + [(name, 4, 1, 0.35) for name in ("so41", "so32")]


# ---------------------------------------------------------------------------
# the reference loops
# ---------------------------------------------------------------------------

def _scalar_comps(s):
    return {idx: poly for (_, idx), poly in s.comps.items()}


def ref_bracket(w, m):
    table = w.algebra.bracket_table
    acc = {}
    for (alpha, i_idx), f in w.comps.items():
        row = table[alpha]
        for (beta, j_idx), g in m.comps.items():
            targets = row[beta]
            if not targets:
                continue
            sign, merged = _merge_indices(i_idx, j_idx)
            if sign == 0:
                continue
            prod = _mul_nums(f.nums, g.nums)
            if not prod:
                continue
            pden = f.den * g.den
            for gamma, coeff in targets:
                c = coeff if sign == 1 else -coeff
                slot = acc.setdefault((gamma, merged), [1, {}])
                _acc_add(slot, pden, prod, c.numerator, c.denominator)
    return LieForm(w.algebra, w.dim, w.degree + m.degree, _finish(w.dim, acc))


def ref_beta_pair(form, w, m):
    gram = form.gram
    acc = {}
    for (alpha, i_idx), f in w.comps.items():
        row = gram[alpha]
        for (beta, j_idx), g in m.comps.items():
            coeff = row[beta]
            if coeff == 0:
                continue
            sign, merged = _merge_indices(i_idx, j_idx)
            if sign == 0:
                continue
            prod = _mul_nums(f.nums, g.nums)
            if not prod:
                continue
            c = coeff if sign == 1 else -coeff
            slot = acc.setdefault(merged, [1, {}])
            _acc_add(slot, f.den * g.den, prod, c.numerator, c.denominator)
    return ScalarForm(w.dim, w.degree + m.degree, _finish(w.dim, acc))


def ref_scalar_wedge(s, t):
    acc = {}
    for i_idx, f in _scalar_comps(s).items():
        for j_idx, g in _scalar_comps(t).items():
            sign, merged = _merge_indices(i_idx, j_idx)
            if sign == 0:
                continue
            prod = _mul_nums(f.nums, g.nums)
            if not prod:
                continue
            slot = acc.setdefault(merged, [1, {}])
            _acc_add(slot, f.den * g.den, prod, sign, 1)
    return ScalarForm(s.dim, s.degree + t.degree, _finish(s.dim, acc))


def ref_scalar_wedge_lie(s, lie, flip):
    sign_flip = (-1) ** (s.degree * lie.degree) if flip else 1
    acc = {}
    for i_idx, f in _scalar_comps(s).items():
        for (alpha, j_idx), g in lie.comps.items():
            sign, merged = _merge_indices(i_idx, j_idx)
            if sign == 0:
                continue
            prod = _mul_nums(f.nums, g.nums)
            if not prod:
                continue
            slot = acc.setdefault((alpha, merged), [1, {}])
            _acc_add(slot, f.den * g.den, prod, sign * sign_flip, 1)
    return LieForm(lie.algebra, lie.dim, s.degree + lie.degree,
                   _finish(lie.dim, acc))


def ref_apply_matrix(w, s):
    acc = {}
    for (alpha, idx), poly in w.comps.items():
        for beta in range(w.algebra.dim):
            c = s[beta][alpha]
            if c == 0:
                continue
            c = Fraction(c)
            slot = acc.setdefault((beta, idx), [1, {}])
            _acc_add(slot, poly.den, poly.nums, c.numerator, c.denominator)
    return LieForm(w.algebra, w.dim, w.degree, _finish(w.dim, acc))


def ref_h_block_star(w):
    alg = w.algebra
    s = [[ZERO] * alg.dim for _ in range(alg.dim)]
    for j, col in enumerate(alg.h_indices):
        for i, row in enumerate(alg.h_indices):
            s[row][col] = alg.h_star_matrix[i][j]
    return ref_apply_matrix(w, s)


# ---------------------------------------------------------------------------
# differential checks
# ---------------------------------------------------------------------------

def _appendix_operands(name, dim, cutoff, density, seed):
    alg = build_algebra(name)

    def draw(offset, degree=1):
        return random_form(seed + offset, degree, alg, dim=dim, cutoff=cutoff,
                           density=density)

    return alg, draw(0), draw(101), draw(202), draw(303), draw(404, 2), \
        draw(505, 2)


@pytest.mark.parametrize("name,dim,cutoff,density", APPENDIX_PLANS)
def test_bracket_and_pairing_match_reference_on_appendix_operands(
        name, dim, cutoff, density):
    for seed in range(3):
        alg, w, m, lam, a, w2, m2 = _appendix_operands(name, dim, cutoff,
                                                       density, seed)
        pairs = [(w, m), (m, w), (lam, w), (w, m2), (w2, m), (a, w),
                 (exterior_d(w), m), (w, exterior_d(m))]
        wm = lie_bracket_forms(w, m)
        pairs += [(lam, wm), (a, wm), (covariant_d(a, w), m)]
        for x, y in pairs:
            assert lie_bracket_forms(x, y) == ref_bracket(x, y)
        form = invariant_form(alg, 1, Fraction(1, 2)) \
            if alg.star_matrix is not None else killing_form(alg)
        for x, y in [(w, m), (lie_bracket_forms(lam, w), m),
                     (w, lie_bracket_forms(lam, m)), (covariant_d(a, w), m),
                     (w, m2)]:
            got = beta_pair(form, x, y)
            assert got == ref_beta_pair(form, x, y)
            assert isinstance(got, ScalarForm)


@pytest.mark.parametrize("name,dim", [("so31", 3), ("so41", 4)])
def test_wedges_with_a_scalar_factor_match_reference(name, dim):
    alg = build_algebra(name)
    cutoff = 2 if dim == 3 else 1
    for p in range(3):
        for q in range(3):
            s = random_scalar_form(10 * p + q, p, dim, cutoff=cutoff)
            t = random_scalar_form(10 * p + q + 5, q, dim, cutoff=cutoff)
            lie = random_form(10 * p + q, q, alg, dim=dim, cutoff=cutoff)
            if p + q > dim:
                for x, y in [(s, lie), (lie, s), (s, t)]:
                    with pytest.raises(DegreeError):
                        wedge(x, y)
                continue
            assert wedge(s, t) == ref_scalar_wedge(s, t)
            assert wedge(s, lie) == ref_scalar_wedge_lie(s, lie, flip=False)
            assert wedge(lie, s) == ref_scalar_wedge_lie(s, lie, flip=True)


@pytest.mark.parametrize("name", ["so31", "iso21", "so22", "so4", "iso3"])
def test_star_matches_reference(name):
    alg = build_algebra(name)
    for seed in range(3):
        for degree in (1, 2):
            w = random_form(seed, degree, alg, cutoff=2)
            assert w.star() == ref_apply_matrix(w, alg.star_matrix)


@pytest.mark.parametrize("name", ["so41", "so32"])
def test_h_block_star_matches_reference(name):
    alg = build_algebra(name)
    for seed in range(3):
        for degree in (1, 2):
            w = random_form(seed, degree, alg, support="h", density=0.5)
            assert w.h_block_star() == ref_h_block_star(w)


@pytest.mark.parametrize("name", ["so31", "iso21", "so22", "so4", "iso3",
                                  "so41", "so32"])
def test_beta_pair_matches_reference_for_every_form_kind(name):
    alg = build_algebra(name)
    forms = [killing_form(alg), star_form(alg), invariant_form(alg, 0, 0)]
    assert forms[2].degenerate
    dim = alg.spacetime_dim
    for seed in range(2):
        w = random_form(seed, 1, alg, density=0.5)
        m = random_form(seed + 7, dim - 1, alg, density=0.5)
        for form in forms:
            assert beta_pair(form, w, m) == ref_beta_pair(form, w, m)
            assert beta_pair(form, m, w) == ref_beta_pair(form, m, w)
