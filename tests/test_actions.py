import math
from fractions import Fraction

import numpy as np
import pytest

from cartanforms.algebra import AlgebraError, build_algebra, invariant_form, \
    killing_form, star_form
from cartanforms.calculus import (
    LieForm,
    TrigPoly,
    beta_pair,
    covariant_d,
    exterior_d,
    integrate,
    lie_bracket_forms,
    random_form,
)
from cartanforms.cartan import CartanConnection, CartanError, coframe_check
from cartanforms.actions import (
    CouplingConstants,
    IdentityError,
    analytic_coframe,
    cs_action,
    cs_action_numeric,
    cs_omega_torsion_action,
    cs_variation,
    couplings_from_immirzi,
    identity_residual,
    levi_civita_connection,
    mm_action,
    palatini_action,
    tmg_action,
    topological_terms,
    topological_variation_check,
    torsion_pairing,
    _bracket,
)

from lattice_reference import _lattice
from tmg_refinement import tmg_refinement_report, tmg_value

HALF = Fraction(1, 2)


def identity_coframe(alg):
    n = alg.spacetime_dim
    comps = {(alg.p_indices[a], (a,)): TrigPoly.constant(n, 1) for a in range(n)}
    return LieForm(alg, n, 1, comps)


# ---------------------------------------------------------------------------
# Chern-Simons functional
# ---------------------------------------------------------------------------

def test_cs_action_zero_field():
    alg = build_algebra("so31")
    val = cs_action(LieForm.zero(alg, 3, 1), killing_form(alg))
    assert val.exact == 0 and val.mode == "exact"


def oracle_pairing_integral(gram, w, m):
    """Independent expansion of Int beta(w ^ m) straight from components."""
    from cartanforms.calculus import _merge_indices
    total = Fraction(0)
    for (alpha, i_idx), f in w.comps.items():
        for (beta, j_idx), g in m.comps.items():
            coeff = gram[alpha][beta]
            if coeff == 0:
                continue
            sign, merged = _merge_indices(i_idx, j_idx)
            if sign == 0 or merged != (0, 1, 2):
                continue
            prod = f * g
            total += coeff * sign * prod.constant_term()
    return total


def test_cs_action_term_by_term_oracle():
    alg = build_algebra("so22")
    form = invariant_form(alg, 2, 3)
    for seed in range(10):
        a = random_form(seed, 1, alg, cutoff=2)
        expected = (HALF * oracle_pairing_integral(form.gram, a, exterior_d(a))
                    + Fraction(1, 6) * oracle_pairing_integral(
                        form.gram, a, lie_bracket_forms(a, a)))
        assert cs_action(a, form).exact == expected


def test_cs_action_requires_3_torus():
    alg = build_algebra("so41")
    a = random_form(0, 1, alg, dim=4)
    with pytest.raises(CartanError, match="3-torus"):
        cs_action(a, killing_form(build_algebra("so41")))


def test_cs_numeric_matches_exact_within_1e10():
    alg = build_algebra("so31")
    form = invariant_form(alg, 1, 2)
    for seed in range(3):
        a = random_form(seed, 1, alg, cutoff=1)
        exact = cs_action(a, form)
        num = cs_action_numeric(a, form, grid=8)
        scale = max(1.0, abs(exact.numeric))
        assert abs(num.numeric - exact.numeric) / scale < 1e-10


def test_cs_numeric_refuses_a_form_of_another_degree():
    alg = build_algebra("so31")
    with pytest.raises(CartanError, match="must be a 1-form"):
        cs_action_numeric(random_form(0, 2, alg), killing_form(alg), grid=4)


def test_cs_numeric_needs_a_3d_algebra():
    # the moment matrix has 3-wide h | p blocks; the exact action has none
    alg = build_algebra("so41")
    a = random_form(0, 1, alg, dim=3)
    cs_action(a, killing_form(alg))
    with pytest.raises(CartanError, match="needs a 3d algebra"):
        cs_action_numeric(a, killing_form(alg), grid=4)


def test_cs_numeric_refuses_a_form_of_another_algebra():
    # an so31 invariant form on an so22 connection, as cs_action refuses it
    a = random_form(0, 1, build_algebra("so22"))
    form = invariant_form(build_algebra("so31"), 1, 2)
    with pytest.raises(AlgebraError, match="different algebra"):
        cs_action(a, form)
    with pytest.raises(AlgebraError, match="different algebra"):
        cs_action_numeric(a, form, grid=4)


@pytest.mark.parametrize("grid", [0, -3, 2.5, True, "4"])
def test_quadratures_refuse_a_grid_that_is_not_a_positive_int(grid):
    alg = build_algebra("so31")
    refusal = f"grid must be a positive int, got {grid!r}"
    with pytest.raises(ValueError, match=refusal):
        coframe_check(analytic_coframe(alg), grid_size=grid)
    with pytest.raises(ValueError, match=refusal):
        tmg_action(analytic_coframe(alg), 5, grid=grid)
    with pytest.raises(ValueError, match=refusal):
        cs_action_numeric(random_form(0, 1, alg), killing_form(alg), grid=grid)
    with pytest.raises(ValueError, match=refusal):
        identity_residual("CS_TMG", alg, 0, CouplingConstants(mu=5), grid=grid)


# ---------------------------------------------------------------------------
# Palatini-style and stabilizer-CS functionals
# ---------------------------------------------------------------------------

def test_palatini_zero_coframe():
    alg = build_algebra("so22")
    w = random_form(0, 1, alg, support="h")
    assert palatini_action(w, LieForm.zero(alg, 3, 1)).exact == 0


def test_palatini_iso21_cubic_term_vanishes():
    alg = build_algebra("iso21")
    sf = star_form(alg)
    for seed in range(5):
        w = random_form(seed, 1, alg, support="h")
        e = random_form(seed, 1, alg, support="p")
        assert lie_bracket_forms(e, e).is_zero()
        r = exterior_d(w) + lie_bracket_forms(w, w).scale(HALF)
        assert palatini_action(w, e).exact == integrate(beta_pair(sf, e, r))


def test_palatini_is_odd_involution_combination():
    for name in ("so22", "so31", "iso21"):
        alg = build_algebra(name)
        c1 = Fraction(3, 2)
        form = invariant_form(alg, 2, c1)
        for seed in range(5):
            w = random_form(seed, 1, alg, support="h")
            e = random_form(seed, 1, alg, support="p")
            a = w + e
            at = w - e
            combo = HALF * (cs_action(a, form).exact - cs_action(at, form).exact)
            assert palatini_action(w, e).exact == combo / c1


def test_cs_omega_torsion_is_even_involution_combination():
    for name in ("so22", "so31", "iso21"):
        alg = build_algebra(name)
        c0 = Fraction(5, 3)
        form = invariant_form(alg, c0, 1)
        for seed in range(5):
            w = random_form(seed, 1, alg, support="h")
            e = random_form(seed, 1, alg, support="p")
            a = w + e
            at = w - e
            combo = HALF * (cs_action(a, form).exact + cs_action(at, form).exact)
            assert cs_omega_torsion_action(w, e).exact == combo / c0


def test_cs_omega_torsion_reductions():
    alg = build_algebra("so31")
    w = random_form(1, 1, alg, support="h")
    zero = LieForm.zero(alg, 3, 1)
    # torsion part drops when e = 0
    assert cs_omega_torsion_action(w, zero).exact \
        == cs_action(w, killing_form(alg)).exact
    # stabilizer part drops when omega = 0
    e = random_form(2, 1, alg, support="p")
    assert cs_omega_torsion_action(zero, e).exact == torsion_pairing(zero, e).exact


# ---------------------------------------------------------------------------
# identity reports
# ---------------------------------------------------------------------------

def test_einstein_cs_spec_example_seed7():
    alg = build_algebra("so31")
    rep = identity_residual("EINSTEIN_CS", alg, 7, CouplingConstants(c0=2, c1=3))
    assert rep.mode == "exact" and rep.residual == 0 and rep.passed


def test_quartic_zero_spec_example():
    alg = build_algebra("so41")
    rep = identity_residual("QUARTIC_ZERO", alg, 0)
    assert rep.residual == 0 and rep.passed


def test_identity_hypothesis_validation():
    alg = build_algebra("so31")
    with pytest.raises(IdentityError, match="CS_NULL"):
        identity_residual("CS_NULL", alg, 0, CouplingConstants(c0=1, c1=1))
    with pytest.raises(IdentityError, match="CS_PERP"):
        identity_residual("CS_PERP", alg, 0, CouplingConstants(c0=1, c1=1))
    with pytest.raises(IdentityError, match="needs a 3d algebra"):
        identity_residual("CS_NULL", build_algebra("so41"), 0,
                          CouplingConstants(c0=0, c1=1))
    with pytest.raises(IdentityError, match="unknown identity"):
        identity_residual("NOT_AN_ID", alg, 0)


def test_mm_expansion_with_immirzi_labeling():
    alg = build_algebra("so32")
    cc = couplings_from_immirzi(Fraction(5, 2))
    assert (cc.c0, cc.c1) == (1, Fraction(2, 5))
    rep = identity_residual("MM_EXPANSION", alg, 2, cc)
    assert rep.residual == 0 and rep.passed


# ---------------------------------------------------------------------------
# variations
# ---------------------------------------------------------------------------

def test_variation_matches_finite_difference():
    alg = build_algebra("so31")
    form = invariant_form(alg, 2, 3)
    for seed in range(10):
        a = random_form(seed, 1, alg)
        da = random_form(seed + 500, 1, alg)
        exact, fd = cs_variation(a, da, form)
        rel = abs(float(exact - fd)) / max(1.0, abs(float(exact)))
        assert rel < 1e-6


def test_flat_connection_is_stationary():
    # constant translation-valued connection on iso21 is exactly flat
    alg = build_algebra("iso21")
    a = identity_coframe(alg)
    f = exterior_d(a) + lie_bracket_forms(a, a).scale(HALF)
    assert f.is_zero()
    form = invariant_form(alg, 1, 2)
    for seed in range(10):
        da = random_form(seed, 1, alg)
        exact, _ = cs_variation(a, da, form)
        assert exact == 0


def test_variation_splits_by_field():
    # delta e = 0 pairs delta omega against the stabilizer-side expression
    alg = build_algebra("so22")
    form = star_form(alg)
    for seed in range(5):
        w = random_form(seed, 1, alg, support="h")
        e = random_form(seed, 1, alg, support="p")
        a = w + e
        dw = random_form(seed + 900, 1, alg, support="h")
        exact, _ = cs_variation(a, dw, form)
        torsion = covariant_d(w, e)
        assert exact == integrate(beta_pair(form, dw, torsion))


# ---------------------------------------------------------------------------
# torsion-free spin connection
# ---------------------------------------------------------------------------

def test_identity_coframe_gives_zero_connection():
    alg = build_algebra("so31")
    lc = levi_civita_connection(identity_coframe(alg))
    pts = np.array([[0.1, 0.2, 0.3], [1.0, 2.0, 3.0]])
    assert np.abs(lc.solve(list(pts.T))["w"]).max() < 1e-14


def test_constant_diagonal_coframe_gives_zero_connection():
    alg = build_algebra("so31")
    n = 3
    lams = (Fraction(3, 2), Fraction(2), Fraction(1, 3))
    comps = {(alg.p_indices[a], (a,)): TrigPoly.constant(n, lams[a])
             for a in range(n)}
    lc = levi_civita_connection(LieForm(alg, 3, 1, comps))
    pts = np.array([[0.4, 1.1, 2.2]])
    assert np.abs(lc.solve(list(pts.T))["w"]).max() < 1e-14


def test_torsion_residual_at_probe_points():
    rng = np.random.default_rng(11)
    for name in ("so31", "so22"):
        alg = build_algebra(name)
        lc = levi_civita_connection(analytic_coframe(alg, seed=2))
        pts = rng.uniform(0.0, 2.0 * math.pi, size=(100, 3))
        assert lc.torsion_residual(pts) < 1e-7


def test_degenerate_coframe_rejected():
    alg = build_algebra("so31")
    with pytest.raises(CartanError, match="degenerate"):
        levi_civita_connection(LieForm.zero(alg, 3, 1))


# ---------------------------------------------------------------------------
# TMG functional
# ---------------------------------------------------------------------------

def test_tmg_identity_coframe_iso21_is_zero():
    alg = build_algebra("iso21")
    val = tmg_action(identity_coframe(alg), Fraction(5), grid=8)
    assert abs(val.numeric) < 1e-14


def tmg_grid_padded(lc, grid):
    """w, e, dw, de on the whole grid^3 lattice, padded to (3, alg.dim, npts)
    so that the full structure table and grams apply."""
    sol = lc.solve(_lattice(grid, 3))
    alg = lc.alg
    out = []
    for key, idx in (("w", alg.h_indices), ("E", alg.p_indices),
                     ("dw", alg.h_indices), ("dE", alg.p_indices)):
        full = np.zeros((3, alg.dim, sol[key].shape[-1]))
        full[:, list(idx)] = sol[key]
        out.append(full)
    return out


def _pair_top(one, two, gram):
    """beta(1-form ^ 2-form) top component per point, gram rows indexing
    the Lie rows of `one`, its columns those of `two`."""
    signed = two[[2, 1, 0]] * np.array([1.0, -1.0, 1.0])[:, None, None]
    return ((gram.T @ one) * signed).sum(axis=(0, 1))


def test_tmg_large_mass_limit_approaches_negated_palatini():
    alg = build_algebra("so31")
    e = analytic_coframe(alg, seed=1)
    lc = levi_civita_connection(e)
    w, e_arr, dw, de = tmg_grid_padded(lc, 16)
    # the full structure table, t[c, b, a] = C_ab^c
    c = np.array(alg.structure, dtype=float).transpose(2, 1, 0).copy()
    s_gram = np.asarray(star_form(alg).gram, dtype=float)
    ww = _bracket(c, w, w)
    r = dw + 0.5 * ww
    ee = _bracket(c, e_arr, e_arr)
    pal = float((_pair_top(e_arr, r, s_gram)
                 + _pair_top(e_arr, ee, s_gram) / 6.0).mean())
    big = tmg_value(lc, Fraction(10 ** 9), 16)
    assert abs(big - (-pal)) < 1e-8


def test_tmg_refinement_errors_at_least_halve():
    alg = build_algebra("so31")
    e = analytic_coframe(alg, seed=1)
    rep = tmg_refinement_report(e, Fraction(5), grids=(4, 8), reference_grid=48)
    errs = [row["error"] for row in rep["rows"]]
    assert errs[1] <= errs[0] / 2


def test_tmg_identities_numeric():
    for name in ("so31", "so22"):
        alg = build_algebra(name)
        rep = identity_residual("CS_TMG", alg, 1, CouplingConstants(mu=5),
                                grid=16)
        assert rep.passed and rep.residual < 1e-8
        rep2 = identity_residual("TWO_CS_TMG", alg, 1,
                                 CouplingConstants(c0=2, mu=5), grid=16)
        assert rep2.passed and rep2.residual < 1e-8


def test_tmg_requires_nonzero_mass():
    alg = build_algebra("so31")
    with pytest.raises(ValueError, match="nonzero"):
        tmg_action(analytic_coframe(alg), 0, grid=8)
    with pytest.raises(ValueError, match="nonzero"):
        CouplingConstants(mu=0)


# ---------------------------------------------------------------------------
# 4d functional
# ---------------------------------------------------------------------------

def test_mm_action_flat_zero():
    alg = build_algebra("so41")
    conn = CartanConnection(LieForm.zero(alg, 4, 1), LieForm.zero(alg, 4, 1))
    val = mm_action(conn, invariant_form(alg, 1, 1))
    assert val.exact == 0


def test_mm_action_zero_connection_kills_plain_trace_part():
    alg = build_algebra("so41")
    for seed in range(5):
        e = random_form(seed, 1, alg, dim=4, support="p", density=0.6)
        conn = CartanConnection(LieForm.zero(alg, 4, 1), e)
        assert mm_action(conn, invariant_form(alg, 1, 0)).exact == 0


def test_mm_action_identity_coframe_cosmological_term():
    alg = build_algebra("so41")
    comps = {(alg.p_indices[a], (a,)): TrigPoly.constant(4, 1) for a in range(4)}
    e = LieForm(alg, 4, 1, comps)
    conn = CartanConnection(LieForm.zero(alg, 4, 1), e)
    assert mm_action(conn, invariant_form(alg, 0, 1)).exact != 0


def test_mm_action_validates_inputs():
    alg3 = build_algebra("so31")
    w = random_form(0, 1, alg3, support="h")
    e = random_form(0, 1, alg3, support="p")
    with pytest.raises(IdentityError, match="so41 or so32"):
        mm_action(CartanConnection(w, e), invariant_form(alg3, 1, 0))


def test_topological_terms_exactly_zero():
    for name in ("so41", "so32"):
        alg = build_algebra(name)
        for seed in range(10):
            w = random_form(seed, 1, alg, dim=4, support="h", density=0.4)
            t1, t2 = topological_terms(w)
            assert t1 == 0 and t2 == 0


def test_topological_variation_check_zero():
    alg = build_algebra("so41")
    w = random_form(0, 1, alg, dim=4, support="h", density=0.4)
    d = random_form(1, 1, alg, dim=4, support="h", density=0.4)
    rep = topological_variation_check(w, d)
    assert rep["tr_RR"] == 0 and rep["tr_RstarR"] == 0
    assert rep["d_tr_RR"] == 0 and rep["d_tr_RstarR"] == 0


# ---------------------------------------------------------------------------
# bundled coframes
# ---------------------------------------------------------------------------

def test_analytic_coframe_is_nondegenerate():
    for name in ("so31", "so22"):
        alg = build_algebra(name)
        for seed in range(5):
            res = coframe_check(analytic_coframe(alg, seed=seed), grid_size=12)
            assert res["nondegenerate"]
            assert res["min_abs_det"] > 0.5
