"""Batched numeric kernels against their per-point references.

Holonomy transports whole segments at once, the TMG quadrature walks its
grid in fixed blocks and the torsion-free solve is closed-form; these tests
pin each to the one-point-at-a-time computation it replaces.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm

from cartanforms import actions
from cartanforms.actions import (
    CouplingConstants,
    analytic_coframe,
    identity_residual,
    levi_civita_connection,
    tmg_action,
    _solved_blocks,
)
from cartanforms.algebra import build_algebra, invariant_form
from cartanforms.calculus import LieForm, TrigPoly, exterior_d, multi_indices, \
    random_form
from cartanforms.cartan import (
    CartanConnection,
    CartanError,
    Path,
    PointConnection,
    Segment,
    coframe_check,
    connection_on_torus,
    get_model,
    holonomy,
)

from lattice_reference import _eval_on_points
from tmg_refinement import tmg_means, tmg_value


def reference_holonomy(model, path, steps):
    """The per-step transport loop: one matrices call and one expm per step."""
    if isinstance(model, CartanConnection):
        model = connection_on_torus(model)
    lengths = [s.length_estimate() for s in path.segments]
    total = sum(lengths)
    u = np.eye(model.matrix_dim)
    for seg, ln in zip(path.segments, lengths):
        n_seg = max(1, round(steps * ln / total))
        dt = 1.0 / n_seg
        for k in range(n_seg):
            t_mid = (k + 0.5) * dt
            mats = model.matrices(seg.point(t_mid))
            a_v = np.tensordot(seg.velocity(t_mid), mats, axes=(0, 0))
            u = expm(-a_v * dt) @ u
    return u


def torus_connection():
    alg = build_algebra("so31")
    return CartanConnection(random_form(1, 1, alg, support="h"),
                            random_form(1, 1, alg, support="p"))


ARC_PATH = Path((
    Segment("line", {"start": [0.0, 0.0], "end": [0.1, 0.0]}),
    Segment("arc", {"center": [0.1, 0.1], "radius": 0.1, "plane": (0, 1),
                    "start_angle": -math.pi / 2, "end_angle": math.pi}),
))
CHART_LOOP = [(0.01, -0.02, 0.03), (0.1, 0.05, -0.12), (-0.1, 0.14, 0.0),
              (0.02, -0.1, 0.1), (0.01, -0.02, 0.03)]


@pytest.mark.parametrize("model, path, steps", [
    (get_model("sphere"), Path.square_loop(0.2), 3000),
    (get_model("mc_so31"), Path.polyline(CHART_LOOP), 300),
    (get_model("sphere"), ARC_PATH, 400),
    (torus_connection(),
     Path.polyline([(0, 0, 0), (0.3, 0, 0), (0.3, 0.3, 0), (0, 0, 0)]), 200),
], ids=["sphere_square", "mc_so31_loop", "sphere_arc", "torus_loop"])
def test_batched_holonomy_equals_per_step_loop(model, path, steps):
    res = holonomy(model, path, steps)
    assert np.array_equal(res.matrix, reference_holonomy(model, path, steps))


@pytest.mark.parametrize("model", [
    get_model("sphere"), get_model("sphere_rolling"), get_model("zero"),
    get_model("mc_so31"), connection_on_torus(torus_connection()),
], ids=["sphere", "sphere_rolling", "zero", "mc_so31", "torus"])
def test_matrices_broadcast_contract(model):
    rng = np.random.default_rng(7)
    x = rng.uniform(-0.2, 0.2, size=(6, model.chart_dim))
    shape = (6, model.chart_dim, model.matrix_dim, model.matrix_dim)
    batched = np.broadcast_to(model.matrices(x), shape)
    single = np.array([model.matrices(p) for p in x])
    assert np.array_equal(batched, single)


def test_holonomy_rejects_shapes_that_do_not_fit_the_model():
    model = PointConnection(3, 4, lambda x: np.zeros((2, 4, 4)), lambda u: 0.0,
                            name="short")
    path = Path.polyline([(0, 0, 0), (1, 0, 0)])
    with pytest.raises(CartanError, match=r"broadcasts to \(10, 3, 4, 4\)"):
        holonomy(model, path, 10)
    with pytest.raises(CartanError, match="2 coordinates"):
        holonomy(get_model("mc_so31"), Path.square_loop(0.2), 10)


def test_eval_forms_at_matches_componentwise_evaluation():
    alg = build_algebra("so31")
    a = random_form(4, 1, alg, cutoff=2)
    forms = [a, exterior_d(a)]
    axes = list(np.random.default_rng(3).uniform(0, 2 * math.pi, size=(3, 50)))
    for w, arr in zip(forms, [np.moveaxis(v, -1, 0)
                              for v in _eval_on_points(forms, axes)]):
        pos = {idx: i for i, idx in enumerate(multi_indices(3, w.degree))}
        ref = np.zeros_like(arr)
        for (alpha, idx), poly in w.comps.items():
            ref[:, pos[idx], alpha] = poly.evaluate_mesh(axes)
        assert np.abs(arr - ref).max() < 1e-13 * max(1.0, np.abs(ref).max())


def test_blocked_tmg_quadrature_equals_single_block(monkeypatch):
    # grid 17 has 4913 points: one full block plus a partial one
    alg = build_algebra("so31")
    lc = levi_civita_connection(analytic_coframe(alg, seed=2))
    form = invariant_form(alg, 1, 1)
    terms = [(1, form), (-1, form)]
    blocked_tmg, blocked_cs, _ = tmg_means(alg, _solved_blocks(lc, 17), 5,
                                           terms)
    monkeypatch.setattr(actions, "QUADRATURE_BLOCK", 17 ** 3)
    whole_tmg, whole_cs, _ = tmg_means(alg, _solved_blocks(lc, 17), 5, terms)
    for got, want in zip([blocked_tmg] + blocked_cs, [whole_tmg] + whole_cs):
        assert abs(got - want) <= 1e-13 * abs(want)
    monkeypatch.undo()
    rep = identity_residual("CS_TMG", alg, 2, CouplingConstants(mu=5), grid=17)
    assert rep.passed


def test_tmg_rejects_coframe_singular_on_its_quadrature_grid():
    # det e = 1 + 2 cos(3 x_3) vanishes at x_3 = 2 pi / 9, a point of the
    # grid-18 lattice but not of the 16^3 nondegeneracy scan
    alg = build_algebra("so31")
    comps = {(alg.p_indices[a], (a,)): TrigPoly.constant(3, 1) for a in range(2)}
    comps[(alg.p_indices[2], (2,))] = (TrigPoly.constant(3, 1)
                                       + TrigPoly.cosine(3, (0, 0, 3), 2))
    e = LieForm(alg, 3, 1, comps)
    assert coframe_check(e, grid_size=16)["nondegenerate"]
    with pytest.raises(CartanError, match=r"degenerate coframe: min \|det e\| ="):
        tmg_action(e, 5, grid=18)


# ---------------------------------------------------------------------------
# closed-form torsion-free solve against the per-point LU solve
# ---------------------------------------------------------------------------

_PAIRS = ((0, 1), (0, 2), (1, 2))
_MU, _NU = [0, 0, 1], [1, 2, 2]


def reference_torsion_solve(e, points):
    """w and dw from the 9x9 torsion system, LU-solved point by point.

    Rows (pair, a), columns (rho, i) of w -> [w_mu, e_nu] - [w_nu, e_mu];
    np.linalg.solve for w, then again for the stacked d/dx_sigma
    right-hand sides.  Field values come from TrigPoly.evaluate_mesh.
    Returns points-first w (npts, mu, i) and dw (npts, pair, i).
    """
    alg = e.algebra
    h, p = alg.h_indices, alg.p_indices
    c_hpp = np.array([[[float(alg.structure[hi][pb][pa]) for pa in p]
                       for pb in p] for hi in h])
    sel = np.zeros((3, 3, 3))
    for row, (mu, nu) in enumerate(_PAIRS):
        sel[row, mu, nu] = 1.0
        sel[row, nu, mu] = -1.0
    sys_map = np.einsum("rpn,iba->nbrapi", sel, c_hpp).reshape(9, 81)

    def system(e_arr):
        lead = e_arr.shape[:-2]
        return (e_arr.reshape(lead + (9,)) @ sys_map).reshape(lead + (9, 9))

    axes = [points[:, j] for j in range(3)]

    def values(form, sigma=None):
        out = np.zeros((len(points), 3, 3))
        for row, idx in enumerate(multi_indices(3, form.degree)):
            for a, alpha in enumerate(p):
                poly = form.component(alpha, idx)
                if sigma is not None:
                    poly = poly.deriv(sigma)
                out[:, row, a] = poly.evaluate_mesh(axes)
        return out

    de = exterior_d(e)
    n = len(points)
    e_arr, de_arr = values(e), values(de)
    e_d = np.stack([values(e, s) for s in range(3)], axis=1)
    de_d = np.stack([values(de, s) for s in range(3)], axis=1)
    mat = system(e_arr)
    w = np.linalg.solve(mat, -de_arr.reshape(n, 9, 1))[..., 0]
    rhs = (-de_d.reshape(n, 3, 9)
           - (system(e_d) @ w[:, None, :, None])[..., 0])
    dw_sigma = (np.linalg.solve(mat, rhs.transpose(0, 2, 1))
                .transpose(0, 2, 1).reshape(n, 3, 3, 3))
    dw = dw_sigma[:, _MU, _NU] - dw_sigma[:, _NU, _MU]
    return w.reshape(n, 3, 3), dw


@pytest.mark.parametrize("name", ["so31", "iso21", "so22", "so4", "iso3"])
def test_closed_form_solve_equals_lu_reference(name):
    alg = build_algebra(name)
    rng = np.random.default_rng(5)
    points = rng.uniform(0.0, 2.0 * math.pi, size=(64, 3))
    axes = [points[:, j] for j in range(3)]
    for seed in range(4):
        for cutoff in (1, 2):
            e = analytic_coframe(alg, seed=seed, cutoff=cutoff)
            lc = levi_civita_connection(e)
            # K0 is invertible with inverse entries in Z/2
            assert np.array_equal(2.0 * lc._k0_inv, np.round(2.0 * lc._k0_inv))
            sol = lc.solve(axes)
            w_ref, dw_ref = reference_torsion_solve(e, points)
            assert np.abs(np.moveaxis(sol["w"], -1, 0) - w_ref).max() < 1e-13
            assert np.abs(np.moveaxis(sol["dw"], -1, 0) - dw_ref).max() < 1e-13
            assert lc.torsion_residual(points) < 1e-12


# tmg_action(analytic_coframe(so31, seed), mu=5, grid) from the per-point
# LU solve with points-first densities
LU_TMG_VALUES = {
    (0, 17): -3.9661191229381996, (0, 24): -3.9661191229382005,
    (0, 40): -3.9661191229382,
    (1, 17): -3.9945886878074313, (1, 24): -3.994588687807431,
    (1, 40): -3.994588687807431,
    (5, 17): -4.258107532980385, (5, 24): -4.258107532980384,
    (5, 40): -4.258107532980383,
}


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_tmg_action_matches_lu_values(seed):
    alg = build_algebra("so31")
    e = analytic_coframe(alg, seed=seed)
    lc = levi_civita_connection(e)
    for grid in (17, 24, 40):
        got = tmg_value(lc, 5, grid)
        want = LU_TMG_VALUES[(seed, grid)]
        assert abs(got - want) <= 1e-13 * abs(want)


def _one_rotation_so31():
    """so31 keeping only the first rotation's action on the translations:
    K0 loses rank and no coframe determines a unique torsion-free
    connection."""
    real = build_algebra("so31")
    structure = [[list(row) for row in plane] for plane in real.structure]
    for hi in real.h_indices[1:]:
        for pb in real.p_indices:
            structure[hi][pb] = [0] * real.dim
            structure[pb][hi] = [0] * real.dim
    return dataclasses.replace(
        real, name="so31_one_rotation",
        structure=tuple(tuple(tuple(r) for r in p) for p in structure))


def test_singular_torsion_map_is_refused():
    broken = _one_rotation_so31()
    with pytest.raises(CartanError, match="so31_one_rotation: the torsion map K0"):
        actions.LeviCivitaConnection(analytic_coframe(broken, seed=0))


def test_constructor_refuses_coframe_degenerate_on_the_scan_lattice():
    alg = build_algebra("so31")
    # det e = cos(x_3) vanishes at x_3 = pi/2, a point of the 16^3 lattice
    comps = {(alg.p_indices[a], (a,)): TrigPoly.constant(3, 1)
             for a in range(2)}
    comps[(alg.p_indices[2], (2,))] = TrigPoly.cosine(3, (0, 0, 1), 1)
    for e in (LieForm.zero(alg, 3, 1), LieForm(alg, 3, 1, comps)):
        min_det = coframe_check(e, grid_size=16)["min_abs_det"]
        assert min_det <= 1e-8
        message = f"degenerate coframe: min |det e| = {min_det:.3e}"
        with pytest.raises(CartanError) as refused:
            actions.LeviCivitaConnection(e)
        assert str(refused.value) == message
    # the scan runs before K0 is built, so it wins over a singular K0
    broken = _one_rotation_so31()
    with pytest.raises(CartanError) as refused:
        actions.LeviCivitaConnection(LieForm.zero(broken, 3, 1))
    assert str(refused.value) == "degenerate coframe: min |det e| = 0.000e+00"
