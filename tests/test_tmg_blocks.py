"""The TMG quadrature on h/p blocks against the full-dimension reference.

The quadrature carries w, dw (stabilizer coefficients) and e, de
(translation coefficients) as 3-row blocks, brackets them with the
C_hhh, C_pph and C_hpp blocks of the structure table and solves each
(algebra, seed, grid) once per run scope, keeping only its moment
matrix.  The reference below is the full-dimension quadrature: every
field padded to the full algebra dimension, brackets with the full
table, pairings with the full grams.
"""

import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cartanforms import actions, cli, exactla
from cartanforms.actions import (
    CouplingConstants,
    analytic_coframe,
    identity_residual,
    levi_civita_connection,
    tmg_action,
    _solved_blocks,
)
from cartanforms.algebra import build_algebra, invariant_form, killing_form, \
    star_form
from cartanforms.calculus import save_fields
from cartanforms.cartan import coframe_check

from tmg_refinement import tmg_means

_PAIRS3 = ((0, 1), (0, 2), (1, 2))
_TOP_PAIR = [2, 1, 0]
_TOP_SIGN = np.array([1.0, -1.0, 1.0])[:, None, None]


def reference_quadrature(lc, grid, mu, cs_terms):
    """(S_TMG, [S_CS per term]) with every field padded to (3, dim, npts)."""
    alg = lc.alg
    d = alg.dim
    c = np.array([[float(alg.structure[a][b][k])
                   for a in range(d) for b in range(d)] for k in range(d)])

    def bracket(u, v):
        twice = v is u
        out = np.empty(u.shape)
        for row, (mu_, nu) in enumerate(_PAIRS3):
            outer = u[mu_, :, None] * v[nu]
            if not twice:
                outer -= u[nu, :, None] * v[mu_]
            out[row] = c @ outer.reshape(d * d, -1)
        return 2.0 * out if twice else out

    def pair_top(one, two, g):
        return ((g.T @ one) * (two[_TOP_PAIR] * _TOP_SIGN)).sum(axis=(0, 1))

    def padded(sol):
        out = []
        for key, idx in (("w", alg.h_indices), ("E", alg.p_indices),
                         ("dw", alg.h_indices), ("dE", alg.p_indices)):
            full = np.zeros((3, d, sol[key].shape[-1]))
            full[:, list(idx)] = sol[key]
            out.append(full)
        return out

    s_gram = np.array(star_form(alg).gram, dtype=float)
    k_gram = np.array(killing_form(alg).gram, dtype=float)
    cs_grams = [(float(s), np.array(f.gram, dtype=float)) for s, f in cs_terms]
    inv_mu = float(1 / Fraction(mu))
    ax = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    axes = [m.ravel() for m in np.meshgrid(ax, ax, ax, indexing="ij")]
    npts = axes[0].size
    sums = np.zeros(1 + len(cs_grams))
    block = actions.QUADRATURE_BLOCK
    for start in range(0, npts, block):
        w, e, dw, de = padded(lc.solve([x[start:start + block] for x in axes]))
        ww, ee = bracket(w, w), bracket(e, e)
        pal = pair_top(e, dw + 0.5 * ww, s_gram) + pair_top(e, ee, s_gram) / 6.0
        cs_w = 0.5 * pair_top(w, dw, k_gram) + pair_top(w, ww, k_gram) / 6.0
        sums[0] += (inv_mu * cs_w - pal).sum()
        for i, (s, g) in enumerate(cs_grams, 1):
            a, da = w + s * e, dw + s * de
            sums[i] += (0.5 * pair_top(a, da, g)
                        + pair_top(a, bracket(a, a), g) / 6.0).sum()
    means = sums / npts
    return float(means[0]), [float(m) for m in means[1:]]


@pytest.mark.parametrize("name", ["so31", "so22", "so4"])
def test_block_quadrature_equals_padded_reference(name):
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
                tmg, cs, _ = tmg_means(alg, _solved_blocks(lc, grid), mu,
                                       terms)
                ref_tmg, ref_cs = reference_quadrature(lc, grid, mu, terms)
                for got, want in zip([tmg] + cs, [ref_tmg] + ref_cs):
                    assert abs(got - want) <= 1e-14 * abs(want)


_PAIR = [("CS_TMG", CouplingConstants(mu=5)),
         ("TWO_CS_TMG", CouplingConstants(c0=2, mu=5))]


@pytest.mark.parametrize("grid", [17, 33])
def test_tmg_pair_solves_each_block_once(monkeypatch, grid):
    # grid 17 is two blocks, grid 33 nine: one block count for every size
    solved = []
    real = actions.LeviCivitaConnection.solve

    def counting(self, axes):
        solved.append(axes[0].size)
        return real(self, axes)

    monkeypatch.setattr(actions.LeviCivitaConnection, "solve", counting)
    alg = build_algebra("so31")
    blocks = [min(actions.QUADRATURE_BLOCK, grid ** 3 - start)
              for start in range(0, grid ** 3, actions.QUADRATURE_BLOCK)]
    alone = [identity_residual(i, alg, 3, cc, grid=grid).residual
             for i, cc in _PAIR]
    assert solved == blocks * 2         # each check solves the grid
    solved.clear()
    with actions.run_scope():
        shared = [identity_residual(i, alg, 3, cc, grid=grid).residual
                  for i, cc in _PAIR]
    assert solved == blocks             # once per block for the pair
    assert shared == alone


def test_tmg_action_reports_min_abs_det():
    alg = build_algebra("so31")
    e = analytic_coframe(alg, seed=1)
    for grid in (12, 17):
        val = tmg_action(e, 5, grid=grid)
        scan = coframe_check(e, grid_size=grid)["min_abs_det"]
        assert abs(val.min_abs_det - scan) <= 1e-14
        # the summary line is unchanged
        assert val.render() == (f"{val.numeric:.15g} x (2pi)^3 "
                                f"(grid {grid}^3)")


def test_eval_json_carries_min_abs_det(tmp_path, capsys):
    alg = build_algebra("so31")
    f = tmp_path / "coframe.json"
    save_fields(f, alg, {"e": analytic_coframe(alg, seed=0)})
    assert cli.main(["eval", "--fields", str(f), "--action", "tmg",
                     "--mu", "5", "--grid", "8"]) == 0
    doc = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    assert 0.5 < doc["min_abs_det"] < 1.0


def test_run_scope_keeps_no_solved_grid():
    # a field set keeps M and min |det e| per grid, not the solved blocks
    # (288 bytes a point: 9.4 MB at grid 32)
    alg = build_algebra("so22")
    for i, cc in _PAIR:                 # the per-algebra tables, built once
        identity_residual(i, alg, 1, cc, grid=8)
    tracemalloc.start()
    try:
        with actions.run_scope():
            start = tracemalloc.get_traced_memory()[0]
            for i, cc in _PAIR:
                identity_residual(i, alg, 1, cc, grid=32)
            held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert held < 0.5 * 2 ** 20


def test_torsion_inverse_once_per_algebra_object(monkeypatch):
    so31 = build_algebra("so31")
    levi_civita_connection(analytic_coframe(so31))
    inverted = []
    real = exactla.inverse
    monkeypatch.setattr(exactla, "inverse",
                        lambda m: inverted.append(1) or real(m))
    # a fresh object equal to so31 under the same name: its own tables
    alg = dataclasses.replace(so31)
    for seed in (0, 1):
        lc = levi_civita_connection(analytic_coframe(alg, seed=seed))
        tmg_action(lc.e, 5, grid=6)
    assert len(inverted) == 1
    own = alg.derived[actions._torsion_tables]
    assert own is not so31.derived[actions._torsion_tables]
