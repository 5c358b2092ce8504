import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from cartanforms.algebra import build_algebra, killing_form
from cartanforms.calculus import LieForm, TrigPoly, covariant_d, exterior_d, \
    lie_bracket_forms, random_form
from cartanforms.cartan import (
    CartanConnection,
    CartanError,
    Path,
    PointConnection,
    Segment,
    bianchi_residuals,
    coframe_check,
    curvature,
    get_model,
    holonomy,
    involute_connection,
    load_path,
    maurer_cartan_flatness,
    sphere_spin_connection,
    zero_connection,
    _orthogonality_defect,
)

HALF = Fraction(1, 2)


def identity_coframe(alg):
    n = alg.spacetime_dim
    comps = {(alg.p_indices[a], (a,)): TrigPoly.constant(n, 1) for a in range(n)}
    return LieForm(alg, n, 1, comps)


def random_connection(alg, seed, cutoff=1):
    omega = random_form(seed, 1, alg, cutoff=cutoff, support="h")
    e = random_form(seed, 1, alg, cutoff=cutoff, support="p")
    return CartanConnection(omega, e)


# ---------------------------------------------------------------------------
# connection assembly
# ---------------------------------------------------------------------------

def test_connection_validates_supports():
    alg = build_algebra("so31")
    w = random_form(0, 1, alg, support="h")
    e = random_form(0, 1, alg, support="p")
    CartanConnection(w, e)
    with pytest.raises(CartanError, match="translation"):
        CartanConnection(e, e)
    with pytest.raises(CartanError, match="stabilizer"):
        CartanConnection(w, w)


def test_kept_walks_and_values_are_not_part_of_the_connection():
    alg = build_algebra("so31")
    read, fresh = random_connection(alg, 0), random_connection(alg, 0)
    read.cs_a(killing_form(alg))
    assert read.full() is read.full()
    assert read == fresh and hash(read) == hash(fresh)
    assert repr(read) == repr(fresh) == (
        f"CartanConnection(omega={read.omega!r}, coframe={read.coframe!r})")


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def test_pure_stabilizer_connection_has_no_torsion():
    alg = build_algebra("so22")
    w = random_form(5, 1, alg, support="h")
    conn = CartanConnection(w, LieForm.zero(alg, 3, 1))
    rep = curvature(conn)
    assert rep.F == rep.R
    assert rep.F_p.is_zero()


def test_iso21_abelian_translations_give_F_h_equals_R():
    alg = build_algebra("iso21")
    conn = random_connection(alg, 3)
    rep = curvature(conn)
    assert lie_bracket_forms(conn.coframe, conn.coframe).is_zero()
    assert rep.F_h == rep.R


def test_curvature_split_term_by_term():
    # independent expansion: F = R + (1/2)[e,e] + d_omega e
    for name in ("so22", "so31", "so41"):
        alg = build_algebra(name)
        for seed in range(10):
            omega = random_form(seed, 1, alg, dim=alg.spacetime_dim, support="h")
            e = random_form(seed, 1, alg, dim=alg.spacetime_dim, support="p")
            conn = CartanConnection(omega, e)
            rep = curvature(conn)
            ee = lie_bracket_forms(e, e).scale(HALF)
            assert rep.F == rep.R + ee + covariant_d(omega, e)
            assert rep.F == rep.F_h + rep.F_p
            assert rep.F_h == rep.R + ee
            assert rep.F_p == covariant_d(omega, e)


def test_involution_equivariance():
    alg = build_algebra("so22")
    for seed in range(10):
        conn = random_connection(alg, seed)
        rep = curvature(conn)
        rep_t = curvature(involute_connection(conn))
        assert involute_connection(involute_connection(conn)) == conn
        assert rep_t.F == rep.F.involute()
        assert rep.F_h == (rep.F + rep_t.F).scale(HALF)
        assert rep.F_p == (rep.F - rep_t.F).scale(HALF)


# ---------------------------------------------------------------------------
# Bianchi identities
# ---------------------------------------------------------------------------

def test_bianchi_residuals_vanish():
    for name in ("so31", "iso21", "so22", "so4", "iso3"):
        alg = build_algebra(name)
        for seed in range(20):
            conn = random_connection(alg, seed)
            r1, r2, r3 = bianchi_residuals(conn)
            assert r1.is_zero() and r2.is_zero() and r3.is_zero()


def test_bianchi_reduces_to_classical_for_zero_coframe():
    alg = build_algebra("so31")
    w = random_form(2, 1, alg, support="h")
    conn = CartanConnection(w, LieForm.zero(alg, 3, 1))
    _, d_w_r, torsion_part = bianchi_residuals(conn)
    assert d_w_r.is_zero() and torsion_part.is_zero()


def test_iso21_second_covariant_derivative_is_curvature_action():
    # d_omega^2 e = -[e, R], expanded independently
    alg = build_algebra("iso21")
    for seed in range(10):
        conn = random_connection(alg, seed)
        rep = curvature(conn)
        d2e = covariant_d(conn.omega, covariant_d(conn.omega, conn.coframe))
        assert d2e == lie_bracket_forms(rep.R, conn.coframe)
        assert d2e == lie_bracket_forms(conn.coframe, rep.R).scale(-1)


# ---------------------------------------------------------------------------
# coframe nondegeneracy
# ---------------------------------------------------------------------------

def test_identity_coframe_determinant():
    alg = build_algebra("iso21")
    res = coframe_check(identity_coframe(alg), grid_size=8)
    assert res["nondegenerate"]
    assert abs(res["min_abs_det"] - 1.0) < 1e-12


def test_zero_coframe_degenerate():
    alg = build_algebra("iso21")
    res = coframe_check(LieForm.zero(alg, 3, 1), grid_size=4)
    assert not res["nondegenerate"]
    assert res["min_abs_det"] == 0.0


def test_perturbed_identity_coframe_nondegenerate():
    alg = build_algebra("so31")
    e = identity_coframe(alg)
    pert = random_form(9, 1, alg, support="p", cutoff=1).scale(Fraction(1, 10))
    res = coframe_check(e + pert, grid_size=16)
    assert res["nondegenerate"]
    assert res["min_abs_det"] > 0.3


def test_coframe_check_dimension_mismatch():
    alg = build_algebra("so41")
    e = random_form(0, 1, alg, dim=3, support="p")
    with pytest.raises(CartanError, match="translation dimension"):
        coframe_check(e)


# ---------------------------------------------------------------------------
# model charts
# ---------------------------------------------------------------------------

def test_abelian_chart_is_exactly_flat():
    # iso21 translations commute: A = sum dx^i P_i identically, F = 0 as forms
    alg = build_algebra("iso21")
    a = identity_coframe(alg)
    f = exterior_d(a) + lie_bracket_forms(a, a).scale(HALF)
    assert f.is_zero()


def test_maurer_cartan_flatness_below_tolerance():
    rep = maurer_cartan_flatness(build_algebra("so31"), box=0.15, grid_points=3)
    assert rep["flat"] and rep["max_curvature_norm"] < 1e-9


def test_perturbed_chart_is_detected():
    def pert(x):
        out = np.zeros((3, 4, 4))
        out[0, 0, 1] = 0.05 * math.sin(3.0 * x[1])
        out[0, 1, 0] = 0.05 * math.sin(3.0 * x[1])
        return out

    rep = maurer_cartan_flatness(build_algebra("so31"), box=0.15,
                                 grid_points=3, perturbation=pert)
    assert rep["max_curvature_norm"] > 1e-3


# ---------------------------------------------------------------------------
# holonomy
# ---------------------------------------------------------------------------

def test_zero_connection_gives_identity():
    res = holonomy(zero_connection(), Path.polyline([(0, 0, 0), (1, 2, 3)]), 10)
    assert np.allclose(res.matrix, np.eye(4))


def test_empty_path_gives_identity():
    res = holonomy(zero_connection(), Path(()), 10)
    assert np.array_equal(res.matrix, np.eye(4))


def test_constant_stabilizer_connection_collapses_to_one_exponential():
    alg = build_algebra("so31")
    basis = np.array([[float(x) for x in row] for row in alg.basis[0]])

    def matrices(x):
        return np.array([basis, np.zeros((4, 4)), np.zeros((4, 4))])

    conn = PointConnection(3, 4, matrices, lambda u: 0.0)
    length = 1.7
    res = holonomy(conn, Path.polyline([(0, 0, 0), (length, 0, 0)]), 64)
    assert np.allclose(res.matrix, expm(-length * basis), atol=1e-13)


def test_sphere_square_loop_area_law():
    loop = Path.square_loop(0.2)
    res = holonomy(sphere_spin_connection(), loop, 2000)
    assert abs(res.rotation_angle() - 0.04) < 1e-4
    assert res.drift < 1e-9


def test_holonomy_convergence_order_at_least_two():
    loop = Path.square_loop(0.2)
    model = sphere_spin_connection()
    ref = holonomy(model, loop, 16000).rotation_angle()
    errs = [abs(holonomy(model, loop, n).rotation_angle() - ref)
            for n in (100, 200, 400)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert all(o >= 1.9 for o in orders), (errs, orders)


def test_holonomy_on_trig_poly_connection():
    alg = build_algebra("so31")
    conn = random_connection(alg, 1)
    loop = Path.polyline([(0, 0, 0), (0.3, 0, 0), (0.3, 0.3, 0), (0, 0, 0)])
    res = holonomy(conn, loop, 500)
    assert res.drift < 1e-9
    assert res.matrix.shape == (4, 4)


def test_holonomy_rejects_bad_input():
    with pytest.raises(CartanError, match="steps"):
        holonomy(zero_connection(), Path.polyline([(0, 0, 0), (1, 0, 0)]), 0)
    degenerate = Path.polyline([(0, 0, 0), (0, 0, 0)])
    with pytest.raises(CartanError, match="degenerate"):
        holonomy(zero_connection(), degenerate, 4)


def test_path_file_round_trip(tmp_path):
    doc = {"segments": [
        {"type": "line", "from": [0, 0], "to": [0.5, 0]},
        {"type": "arc", "center": [0.5, 0.5], "radius": 0.5,
         "plane": [0, 1], "start_angle": -1.5707963, "end_angle": 0.0},
    ]}
    p = tmp_path / "path.json"
    p.write_text(json.dumps(doc))
    path = load_path(p)
    assert len(path.segments) == 2
    assert np.allclose(path.segments[1].point(0.0), [0.5, 0.0], atol=1e-6)
    res = holonomy(get_model("sphere"), path, 100)
    assert res.matrix.shape == (3, 3)


def test_arc_velocity_consistent_with_points():
    seg = Segment("arc", {"center": [0, 0], "radius": 1.0, "plane": (0, 1),
                          "start_angle": 0.0, "end_angle": math.pi})
    eps = 1e-7
    v = seg.velocity(0.25)
    fd = (seg.point(0.25 + eps) - seg.point(0.25 - eps)) / (2 * eps)
    assert np.allclose(v, fd, atol=1e-6)


def test_group_defect_detects_drift():
    defect = _orthogonality_defect(np.eye(3))
    assert defect(np.eye(3)) == 0
    assert defect(1.5 * np.eye(3)) > 1
