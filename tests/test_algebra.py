import json
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from cartanforms import algebra as alg_mod
from cartanforms import exactla as xl
from cartanforms.algebra import (
    ALGEBRA_NAMES,
    AlgebraError,
    UnsupportedStar,
    bracket,
    build_algebra,
    descriptor_to_json,
    hodge_star,
    invariant_form,
    invariant_form_space,
    involution,
    killing_form,
    killing_gram,
    selfdual_split,
    sl2_isomorphism,
    star_form,
)
from cartanforms.calculus import _rng_for

from test_exactla import inertia

GOLDEN = pathlib.Path(__file__).parent / "golden"


def random_element(alg, rng):
    return alg.element([Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                        for _ in range(alg.dim)])


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_dimensions_and_splits():
    for name in ALGEBRA_NAMES:
        alg = build_algebra(name)
        n = alg.spacetime_dim
        assert len(alg.p_indices) == n
        assert alg.dim == (6 if n == 3 else 10)
        assert alg.matrix_dim == n + 1


def test_so31_is_a_3d_model():
    alg = build_algebra("so31")
    assert alg.dim == 6 and len(alg.p_indices) == 3 and alg.spacetime_dim == 3
    assert alg.lambda_sign == 1


def test_iso21_translations_commute():
    alg = build_algebra("iso21")
    for a in alg.p_indices:
        for b in alg.p_indices:
            assert all(c == 0 for c in alg.structure[a][b])


def test_so41_jacobi_brute_force():
    # brute force over all basis triples with exact matrix commutators
    alg = build_algebra("so41")

    def comm(x, y):
        d = alg.matrix_dim
        return tuple(tuple(
            sum(x[i][k] * y[k][j] - y[i][k] * x[k][j] for k in range(d))
            for j in range(d)) for i in range(d))

    def add(x, y):
        return tuple(tuple(a + b for a, b in zip(rx, ry))
                     for rx, ry in zip(x, y))

    zero = tuple(tuple(Fraction(0) for _ in range(5)) for _ in range(5))
    for a in range(alg.dim):
        for b in range(alg.dim):
            for c in range(alg.dim):
                total = add(add(comm(comm(alg.basis[a], alg.basis[b]), alg.basis[c]),
                                comm(comm(alg.basis[b], alg.basis[c]), alg.basis[a])),
                            comm(comm(alg.basis[c], alg.basis[a]), alg.basis[b]))
                assert total == zero


def test_unsupported_name():
    with pytest.raises(AlgebraError, match="unsupported algebra"):
        build_algebra("so99")


# ---------------------------------------------------------------------------
# bracket
# ---------------------------------------------------------------------------

def test_bracket_matches_matrix_commutator():
    rng = _rng_for(0, "bracket-oracle")
    for name in ALGEBRA_NAMES:
        alg = build_algebra(name)
        d = alg.matrix_dim
        for _ in range(10):
            x, y = random_element(alg, rng), random_element(alg, rng)
            xm, ym = x.matrix(), y.matrix()
            comm = [[sum(xm[i][k] * ym[k][j] - ym[i][k] * xm[k][j]
                         for k in range(d)) for j in range(d)]
                    for i in range(d)]
            assert bracket(x, y).matrix() == tuple(tuple(r) for r in comm)


def test_iso3_rotation_block_is_cyclic():
    # J1 = M12, J2 = M02, J3 = M01 give [J1,J2]=J3 cyclically (exact commutators)
    alg = build_algebra("iso3")
    j1 = alg.basis_element(alg.basis_index("M12"))
    j2 = alg.basis_element(alg.basis_index("M02"))
    j3 = alg.basis_element(alg.basis_index("M01"))
    assert bracket(j1, j2).coeffs == j3.coeffs
    assert bracket(j2, j3).coeffs == j1.coeffs
    assert bracket(j3, j1).coeffs == j2.coeffs


def test_bracket_antisymmetry_and_grading():
    rng = _rng_for(1, "grading")
    for name in ALGEBRA_NAMES:
        alg = build_algebra(name)
        x = random_element(alg, rng)
        assert bracket(x, x).is_zero()
        h = random_element(alg, rng).h_part()
        p = random_element(alg, rng).p_part()
        hp = bracket(h, p)
        assert all(hp.coeffs[i] == 0 for i in alg.h_indices)
        pp = bracket(p, p.scale(2) + random_element(alg, rng).p_part())
        assert all(pp.coeffs[i] == 0 for i in alg.p_indices)


def test_bracket_algebra_mismatch():
    a = build_algebra("so31")
    b = build_algebra("so22")
    with pytest.raises(AlgebraError, match="different algebras"):
        bracket(a.basis_element(0), b.basis_element(0))


# ---------------------------------------------------------------------------
# Killing form
# ---------------------------------------------------------------------------

def test_killing_so31_nondegenerate():
    k = killing_gram(build_algebra("so31"))
    assert xl.det([list(r) for r in k]) != 0


def test_killing_iso21_translation_block_zero():
    # independent double contraction over structure constants
    alg = build_algebra("iso21")
    c = alg.structure
    for a in alg.p_indices:
        for b in alg.p_indices:
            total = Fraction(0)
            for g in range(alg.dim):
                for d in range(alg.dim):
                    total += c[a][d][g] * c[b][g][d]
            assert total == 0
            assert alg.killing[a][b] == 0


def test_killing_ad_invariance():
    # raw gram: the h-block BilinearForm on 4d algebras is H-invariant only
    rng = _rng_for(2, "killing-inv")

    def pair(gram, x, y):
        return sum(xc * gram[i][j] * yc
                   for i, xc in enumerate(x.coeffs) if xc
                   for j, yc in enumerate(y.coeffs) if yc)

    for name in ALGEBRA_NAMES:
        alg = build_algebra(name)
        for _ in range(10):
            z, x, y = (random_element(alg, rng) for _ in range(3))
            assert pair(alg.killing, bracket(z, x), y) \
                + pair(alg.killing, x, bracket(z, y)) == 0


def test_killing_involution_invariance():
    rng = _rng_for(3, "killing-involution")
    for name in ("so31", "iso21", "so22", "so4", "iso3"):
        alg = build_algebra(name)
        kf = killing_form(alg)
        for i in range(alg.dim):
            for j in range(alg.dim):
                x, y = alg.basis_element(i), alg.basis_element(j)
                assert kf.pair(involution(x), involution(y)) == kf.pair(x, y)


# ---------------------------------------------------------------------------
# Hodge star
# ---------------------------------------------------------------------------

def test_star_squares():
    assert build_algebra("so31").star_square == -1
    assert build_algebra("so22").star_square == 1
    assert build_algebra("so4").star_square == 1
    for name in ("so31", "so22", "so4"):
        alg = build_algebra(name)
        for i in range(alg.dim):
            x = alg.basis_element(i)
            assert hodge_star(hodge_star(x)).coeffs == x.scale(alg.star_square).coeffs


def test_star_contraction_sign_choice():
    for name in ("iso3", "iso21"):
        plus = build_algebra(name)
        minus = build_algebra(name, contraction_star_square=-1)
        assert plus.star_square == 1 and minus.star_square == -1
        x = plus.basis_element(0)
        assert hodge_star(hodge_star(x)).coeffs == x.coeffs
        y = minus.basis_element(0)
        assert hodge_star(hodge_star(y)).coeffs == (-y).coeffs


def test_star_exchanges_blocks_and_bracket_compat():
    rng = _rng_for(4, "star")
    for name in ("so31", "so22", "so4"):
        alg = build_algebra(name)
        hset = set(alg.h_indices)
        for i in range(alg.dim):
            sx = hodge_star(alg.basis_element(i))
            dead = alg.h_indices if i in hset else alg.p_indices
            assert all(sx.coeffs[j] == 0 for j in dead)
        for _ in range(100):
            x, y = random_element(alg, rng), random_element(alg, rng)
            assert hodge_star(bracket(x, y)).coeffs == bracket(x, hodge_star(y)).coeffs


def test_star_trace_symmetry_and_involution_flip():
    rng = _rng_for(5, "star-sym")
    for name in ("so31", "so22", "so4", "iso21", "iso3"):
        alg = build_algebra(name)
        sf = star_form(alg)
        for _ in range(100):
            x, y = random_element(alg, rng), random_element(alg, rng)
            assert sf.pair(x, y) == sf.pair(y, x)
            assert sf.pair(involution(x), involution(y)) == -sf.pair(x, y)


def test_star_unsupported_on_4d_algebras():
    for name in ("so41", "so32"):
        alg = build_algebra(name)
        with pytest.raises(UnsupportedStar, match="stabilizer"):
            hodge_star(alg.basis_element(0))


def test_contraction_star_stabilizer_equivariance():
    # on iso3/iso21 the star is ad(h)-equivariant; that is what a stabilizer
    # connection commuting with the star needs
    rng = _rng_for(6, "contraction-star")
    for name in ("iso3", "iso21"):
        alg = build_algebra(name)
        for _ in range(100):
            x = random_element(alg, rng).h_part()
            y = random_element(alg, rng)
            assert hodge_star(bracket(x, y)).coeffs == bracket(x, hodge_star(y)).coeffs


# ---------------------------------------------------------------------------
# involution
# ---------------------------------------------------------------------------

def test_involution_fixes_stabilizer_and_is_involutive():
    rng = _rng_for(7, "involution")
    for name in ALGEBRA_NAMES:
        alg = build_algebra(name)
        h = random_element(alg, rng).h_part()
        assert involution(h).coeffs == h.coeffs
        x = random_element(alg, rng)
        assert involution(involution(x)).coeffs == x.coeffs


def test_involution_is_automorphism_100_pairs():
    rng = _rng_for(8, "involution-auto")
    for name in ALGEBRA_NAMES:
        alg = build_algebra(name)
        for _ in range(100):
            x, y = random_element(alg, rng), random_element(alg, rng)
            lhs = involution(bracket(x, y))
            rhs = bracket(involution(x), involution(y))
            assert lhs.coeffs == rhs.coeffs


# ---------------------------------------------------------------------------
# invariant forms
# ---------------------------------------------------------------------------

def test_degeneracy_loci():
    so22 = build_algebra("so22")
    assert invariant_form(so22, 1, 1).degenerate
    assert invariant_form(so22, 1, -1).degenerate
    assert not invariant_form(so22, 1, 0).degenerate
    iso21 = build_algebra("iso21")
    assert invariant_form(iso21, 1, 0).degenerate
    assert invariant_form(iso21, 3, 0).degenerate
    assert not invariant_form(iso21, 0, 1).degenerate


def test_degenerate_flag_against_rank_oracle():
    rng = _rng_for(9, "degeneracy-rank")
    for name in ("so31", "iso21", "so22", "so4", "iso3"):
        alg = build_algebra(name)
        for _ in range(50):
            c0 = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            c1 = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            form = invariant_form(alg, c0, c1)
            rank_deficient = xl.rank([list(r) for r in form.gram]) < alg.dim
            assert form.degenerate == rank_deficient


def test_invariant_form_ad_invariance():
    rng = _rng_for(10, "form-invariance")
    for name in ("so31", "iso21", "so22", "so4", "iso3"):
        alg = build_algebra(name)
        form = invariant_form(alg, 2, Fraction(1, 3))
        for _ in range(20):
            z, x, y = (random_element(alg, rng) for _ in range(3))
            assert form.pair(bracket(z, x), y) + form.pair(x, bracket(z, y)) == 0


def test_invariant_form_space_dimensions():
    for name in ("so31", "iso21", "so22", "so4", "iso3"):
        alg = build_algebra(name)
        space = invariant_form_space(alg)
        assert len(space) == 2
        vecs = [[x for row in g for x in row] for g in space]
        k_vec = [x for row in alg.killing for x in row]
        s_vec = [x for row in alg.star_gram for x in row]
        assert xl.in_span(vecs, k_vec)
        assert xl.in_span(vecs, s_vec)
        assert xl.rank([k_vec, s_vec]) == 2
    assert len(invariant_form_space(build_algebra("so41"))) == 1
    assert len(invariant_form_space(build_algebra("so32"))) == 1


# ---------------------------------------------------------------------------
# self-dual splitting
# ---------------------------------------------------------------------------

def test_selfdual_split_recombines_and_projects():
    rng = _rng_for(11, "selfdual")
    for name in ("so22", "so4"):
        alg = build_algebra(name)
        for _ in range(20):
            x = random_element(alg, rng)
            plus, minus = selfdual_split(x)
            assert (plus + minus).coeffs == x.coeffs
            assert hodge_star(plus).coeffs == plus.coeffs
            assert hodge_star(minus).coeffs == (-minus).coeffs


def test_selfdual_killing_orthogonal_and_closed():
    for name in ("so22", "so4"):
        alg = build_algebra(name)
        kf = killing_form(alg)
        halves = [selfdual_split(alg.basis_element(i)) for i in range(alg.dim)]
        for xp, _ in halves:
            for _, ym in halves:
                assert kf.pair(xp, ym) == 0
        for xp, _ in halves:
            for yp, _ in halves:
                b = bracket(xp, yp)
                assert hodge_star(b).coeffs == b.coeffs  # still self dual


def test_selfdual_unsupported_on_lorentzian_star():
    alg = build_algebra("so31")
    with pytest.raises(UnsupportedStar, match="star\\^2"):
        selfdual_split(alg.basis_element(0))


def test_sl2_isomorphism():
    alg = build_algebra("so22")
    split = sl2_isomorphism(alg)
    assert len(split.plus_basis) == 3 and len(split.minus_basis) == 3
    for xp in split.plus_basis:
        for ym in split.minus_basis:
            assert bracket(xp, ym).is_zero()
    kf = killing_form(alg)
    for factor in (split.plus_basis, split.minus_basis):
        gram = [[kf.pair(a, b) for b in factor] for a in factor]
        assert xl.det(gram) != 0
        pos, neg, zero = inertia(gram)
        assert zero == 0 and {pos, neg} == {1, 2}
    # factor structure constants close within each factor
    for struct in (split.plus_structure, split.minus_structure):
        assert len(struct) == 3
    with pytest.raises(AlgebraError):
        sl2_isomorphism(build_algebra("so31"))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["so31", "iso21"])
def test_descriptor_golden_file(name):
    text = descriptor_to_json(build_algebra(name))
    golden = (GOLDEN / f"{name}_descriptor.json").read_text()
    assert text == golden


def test_descriptor_json_parses():
    doc = json.loads(descriptor_to_json(build_algebra("so32")))
    assert doc["schema"] == 1
    assert doc["matrix_dim"] == 5
    assert all(len(t) == 4 for t in doc["structure_constants"])


# ---------------------------------------------------------------------------
# structure-table validation (integer numpy)
# ---------------------------------------------------------------------------

def _so31_tables():
    alg = build_algebra("so31")
    structure = [[list(row) for row in plane] for plane in alg.structure]
    return alg, [[list(r) for r in m] for m in alg.basis], structure


def _break_antisymmetry(s):
    s[0][3][4] += 1                 # [M01, P0] only


def _break_jacobi(s):
    s[0][3][4] += 1                 # [M01, P0] and [P0, M01]: still antisymmetric
    s[3][0][4] -= 1


def _break_grading(s):
    # the Heisenberg table [P0, P1] = P2: a Lie algebra, but [p, p] must lie in h
    for plane in s:
        for row in plane:
            row[:] = [0] * len(row)
    s[3][4][5], s[4][3][5] = 1, -1


def _break_closure(s):
    # the abelian table: a graded Lie algebra the so31 matrices do not span
    for plane in s:
        for row in plane:
            row[:] = [0] * len(row)


DAMAGES = [
    (_break_antisymmetry, "antisymmetry failure"),
    (_break_jacobi, "Jacobi identity failure"),
    (_break_grading, r"grading violated by \[P0,P1\]"),
    (_break_closure, r"commutator \[M01,M02\] does not match the structure"),
]


@pytest.mark.parametrize("damage, message", DAMAGES,
                         ids=["antisymmetry", "jacobi", "grading", "closure"])
def test_damaged_structure_table_fails_validation(damage, message):
    alg, basis, structure = _so31_tables()
    damage(structure)
    with pytest.raises(AlgebraError, match=f"so31: {message}"):
        alg_mod._validate("so31", np.array(basis, dtype=np.int64),
                          np.array(structure, dtype=np.int64),
                          alg.h_indices, alg.labels)


def test_valid_tables_pass_validation():
    for name in ALGEBRA_NAMES:
        alg = build_algebra(name)
        alg_mod._validate(name, alg_mod._integer_array(name, alg.basis),
                          alg_mod._integer_array(name, alg.structure),
                          alg.h_indices, alg.labels)


def test_non_integral_table_refused():
    _, basis, _ = _so31_tables()
    halved = [[[x * Fraction(1, 2) for x in r] for r in m] for m in basis]
    with pytest.raises(AlgebraError, match="so31: table entries must be integers"):
        alg_mod._integer_array("so31", halved)
    huge = [[[x * 2 ** 20 for x in r] for r in m] for m in basis]
    with pytest.raises(AlgebraError, match="so31: table entries must be integers"):
        alg_mod._integer_array("so31", huge)
