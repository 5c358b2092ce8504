"""Batched numeric kernels against their per-point references.

Holonomy transports whole segments at once and the TMG quadrature walks
its grid in fixed blocks; these tests pin both to the one-point-at-a-time
computations they replace.
"""

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
    _eval_forms_at,
    _tmg_quadrature,
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
    for w, arr in zip(forms, _eval_forms_at(forms, axes)):
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
    blocked_tmg, blocked_cs = _tmg_quadrature(lc, 17, 5, terms)
    monkeypatch.setattr(actions, "QUADRATURE_BLOCK", 17 ** 3)
    whole_tmg, whole_cs = _tmg_quadrature(lc, 17, 5, terms)
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
