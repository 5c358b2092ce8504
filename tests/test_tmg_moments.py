"""The TMG quadrature through one moment matrix against the per-term sums.

`actions._tmg_moments` reduces each solved block to a moment matrix M
with rows (w | e) and columns (dw | [w,w] | [e,e] | de | [w,e]), and
S_TMG and every S_CS^beta(A_s) are read off it as gram contractions, the
walks of `CartanConnection.FUNCTIONALS` (see `tmg_refinement.tmg_means`).  The reference below is the quadrature they
replaced: per block, the S_TMG density and one Chern-Simons density per
term, each with A, dA and [A,A] concatenated from the blocks, summed over
the points.  It keeps its own top-pair signs, so a sign slip in the
package does not cancel against it.

Also here: a field set's moment memo (one pass per grid, shared by
CS_TMG and TWO_CS_TMG in a run scope), a fault the memo must still
show, the solve faults both identities miss, and the block coordinates of `_solved_blocks`, which come from
flat lattice indices instead of a grid-sized coordinate array.  Last,
`cs_action_numeric` walks the same blocks, so its memory does not grow
with the grid.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cartanforms import actions
from cartanforms.actions import (
    CouplingConstants,
    FieldSet,
    analytic_coframe,
    cs_action_numeric,
    identity_residual,
    levi_civita_connection,
    _bracket,
    _float_tables,
    _solved_blocks,
)
from cartanforms.algebra import build_algebra, invariant_form, killing_form, \
    star_form
from lattice_reference import _lattice
from tmg_refinement import tmg_means

_TOP_PAIR = [2, 1, 0]
_TOP_SIGN = np.array([1.0, -1.0, 1.0])[:, None, None]


def _pair_top(one, two, gram):
    return ((gram.T @ one) * (two[_TOP_PAIR] * _TOP_SIGN)).sum(axis=(0, 1))


def _cs_density(a, da, aa, gram):
    return 0.5 * _pair_top(a, da, gram) + _pair_top(a, aa, gram) / 6.0


def per_term_means(alg, blocks, mu, cs_terms=()):
    """(S_TMG, [S_CS per term], min |det e|): every density per block."""
    hhh, pph, hpp = _float_tables(alg)
    h, p = list(alg.h_indices), list(alg.p_indices)
    k_hh = killing_form(alg).gram_float[np.ix_(h, h)]
    s_ph = star_form(alg).gram_float[np.ix_(p, h)]
    cs_grams = [(float(s), form.gram_float[np.ix_(h + p, h + p)])
                for s, form in cs_terms]
    inv_mu = float(1 / Fraction(mu))
    sums = np.zeros(1 + len(cs_grams))
    npts, min_det = 0, math.inf
    for w, e, dw, de, block_det in blocks:
        ww = _bracket(hhh, w, w)
        ee = _bracket(pph, e, e)
        pal = _pair_top(e, dw + 0.5 * ww, s_ph) + _pair_top(e, ee, s_ph) / 6.0
        cs_w = _cs_density(w, dw, ww, k_hh)
        sums[0] += (inv_mu * cs_w - pal).sum()
        if cs_grams:
            we = _bracket(hpp, w, e)
        for i, (s, gram) in enumerate(cs_grams, 1):
            a = np.concatenate((w, s * e), axis=1)
            da = np.concatenate((dw, s * de), axis=1)
            aa = np.concatenate((ww + (s * s) * ee, (2.0 * s) * we), axis=1)
            sums[i] += _cs_density(a, da, aa, gram).sum()
        npts += w.shape[-1]
        min_det = min(min_det, block_det)
    means = sums / npts
    return float(means[0]), [float(m) for m in means[1:]], min_det


@pytest.mark.parametrize("name", ["so31", "so22"])
def test_moment_quadrature_equals_per_term_reference(name):
    # grid 17 has 4913 points: two QUADRATURE_BLOCK blocks
    alg = build_algebra(name)
    mu = Fraction(5)
    tmg_form = invariant_form(alg, 1 / mu, -1)      # CS_TMG's beta
    two_form = invariant_form(alg, 2, 1)            # TWO_CS_TMG's, c0 = 2
    terms = [(1, tmg_form), (1, two_form), (-1, two_form)]
    for seed in range(8):
        for cutoff in (1, 2):
            lc = levi_civita_connection(
                analytic_coframe(alg, seed=seed, cutoff=cutoff))
            for grid in (12, 17):
                blocks = list(_solved_blocks(lc, grid))
                for cs in ([], terms):
                    tmg, values, min_det = tmg_means(alg, blocks, mu, cs)
                    ref_tmg, ref_values, ref_det = per_term_means(
                        alg, blocks, mu, cs)
                    assert len(values) == len(cs) and min_det == ref_det
                    for got, want in zip([tmg] + values,
                                         [ref_tmg] + ref_values):
                        assert abs(got - want) <= 1e-14 * abs(want)


def _count_calls(monkeypatch):
    """Counters of moment passes and block solves."""
    passes, solved = [], []
    real_moments = actions._tmg_moments
    real_solve = actions.LeviCivitaConnection.solve

    def moments(alg, blocks):
        passes.append(alg.name)
        return real_moments(alg, blocks)

    def solve(self, axes):
        solved.append(axes[0].size)
        return real_solve(self, axes)

    monkeypatch.setattr(actions, "_tmg_moments", moments)
    monkeypatch.setattr(actions.LeviCivitaConnection, "solve", solve)
    return passes, solved


_PAIR = [("CS_TMG", CouplingConstants(mu=5)),
         ("TWO_CS_TMG", CouplingConstants(c0=2, mu=5))]


def test_tmg_pair_makes_one_moment_pass_in_a_run_scope(monkeypatch):
    passes, solved = _count_calls(monkeypatch)
    alg = build_algebra("so22")
    alone = [identity_residual(i, alg, 3, cc, grid=17).residual
             for i, cc in _PAIR]
    assert len(passes) == 2 and solved == [4096, 817] * 2
    passes.clear()
    solved.clear()
    with actions.run_scope():
        shared = [identity_residual(i, alg, 3, cc, grid=17).residual
                  for i, cc in _PAIR]
    assert len(passes) == 1 and solved == [4096, 817]
    assert shared == alone          # bit for bit


def test_moments_are_kept_per_grid(monkeypatch):
    passes, _ = _count_calls(monkeypatch)
    alg = build_algebra("so31")
    with actions.run_scope():
        first = identity_residual("CS_TMG", alg, 1, _PAIR[0][1], grid=12)
        identity_residual("CS_TMG", alg, 1, _PAIR[0][1], grid=17)
        again = identity_residual("CS_TMG", alg, 1, _PAIR[0][1], grid=12)
    assert len(passes) == 2
    assert again.residual == first.residual


def test_a_solve_fault_fails_both_identities_through_the_memo(monkeypatch):
    # w + 1e-6 cos(x_3) on every entry of every solved block: about 3.5e-8
    real = actions.LeviCivitaConnection.solve

    def faulty(self, axes):
        sol = real(self, axes)
        sol["w"] = sol["w"] + 1e-6 * np.cos(axes[2])
        return sol

    monkeypatch.setattr(actions.LeviCivitaConnection, "solve", faulty)
    alg = build_algebra("so22")
    alone = [identity_residual(i, alg, 3, cc, grid=12) for i, cc in _PAIR]
    with actions.run_scope():
        shared = [identity_residual(i, alg, 3, cc, grid=12) for i, cc in _PAIR]
    for rep in alone + shared:
        assert not rep.passed
        assert 3e-8 < rep.residual < 4e-8


def test_w_errors_the_torsion_pairing_misses_pass_both_identities(monkeypatch):
    # 1e-6 on one entry w_mu^c at every point.  Both sides of CS_TMG and
    # TWO_CS_TMG read the same solved w and e, so an error that moves
    # both sides equally cancels: the sides differ only by the torsion
    # pairing K(e ^ (de + [w, e])), which sees an error x in w as
    # K(x ^ [e, e]).  An entry whose grid mean of K(x ^ [e, e]) is zero
    # passes both identities; on this coframe, 6 of the 9 do.
    alg = build_algebra("so31")
    _, pph, _ = _float_tables(alg)
    h = list(alg.h_indices)
    k_hh = killing_form(alg).gram_float[np.ix_(h, h)]
    lc = levi_civita_connection(analytic_coframe(alg, seed=3))
    (_, e, _, _, _), = _solved_blocks(lc, 12)
    ee = _bracket(pph, e, e)[_TOP_PAIR] * _TOP_SIGN
    paired = np.einsum("cd,mdn->mcn", k_hh, ee).mean(axis=-1)
    entries = [(mu, c) for mu in range(3) for c in range(3)]
    unseen = {x for x in entries if abs(paired[x]) < 1e-12}
    assert unseen == {(0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2)}

    real = actions.LeviCivitaConnection.solve

    def residuals(entry):
        def faulty(self, axes):
            sol = real(self, axes)
            sol["w"] = sol["w"].copy()
            sol["w"][entry] += 1e-6
            return sol

        monkeypatch.setattr(actions.LeviCivitaConnection, "solve", faulty)
        with actions.run_scope():
            return [identity_residual(i, alg, 3, cc, grid=12).residual
                    for i, cc in _PAIR]

    for entry in entries:
        found = residuals(entry)
        if entry in unseen:
            assert max(found) < 1e-8        # passes in silence
        else:
            assert min(found) > 1e-7


@pytest.mark.parametrize("grid", [12, 17])
def test_block_coordinates_are_the_lattice_slices(monkeypatch, grid):
    seen = []
    real = actions.LeviCivitaConnection.solve

    def recording(self, axes):
        seen.append(axes)
        return real(self, axes)

    monkeypatch.setattr(actions.LeviCivitaConnection, "solve", recording)
    alg = build_algebra("so31")
    lc = levi_civita_connection(analytic_coframe(alg, seed=2))
    for _ in _solved_blocks(lc, grid):
        pass
    lattice = _lattice(grid, 3)
    block = actions.QUADRATURE_BLOCK
    assert len(seen) == -(-grid ** 3 // block)
    for n, axes in enumerate(seen):
        for got, coords in zip(axes, lattice):
            assert np.array_equal(got, coords[n * block:(n + 1) * block])


def test_streaming_blocks_keeps_no_grid_sized_array():
    alg = build_algebra("so31")
    lc = levi_civita_connection(analytic_coframe(alg, seed=0))

    def peak(grid):
        tracemalloc.start()
        try:
            for _ in _solved_blocks(lc, grid):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a grid-64 coordinate lattice alone is 6.3 MB, grid 32's 0.8 MB
    assert abs(peak(64) - peak(32)) <= 2 ** 20


def test_cs_action_numeric_memory_does_not_grow_with_the_grid():
    # evaluated as one grid^3 block, A traced 14.3 MB at grid 24 and
    # 114.1 MB at grid 48; in QUADRATURE_BLOCK blocks, about 5 MB at both
    alg = build_algebra("so31")
    a = FieldSet(alg, 0, 1).connection.full()
    form = killing_form(alg)
    cs_action_numeric(a, form, grid=4)      # the per-algebra tables

    def peak(grid):
        tracemalloc.start()
        try:
            cs_action_numeric(a, form, grid=grid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(48) <= 1.5 * peak(24)
