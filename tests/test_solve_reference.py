"""The torsion-free solve against its form-by-form reference.

LeviCivitaConnection builds one coefficient table of e, de and their
d/dx_sigma from e's modes (spectral derivatives) and brackets with the
quadrature's C_hpp kernel.  The reference below is the earlier path: the
eight LieForms e, de, d_sigma e, d_sigma de built exactly with
TrigPoly.deriv and exterior_d, evaluated on the points, and the torsion
map contracted with an ad table by einsum.
"""

import math

import numpy as np
import pytest

from cartanforms import actions, calculus, cartan
from cartanforms.actions import (
    LeviCivitaConnection,
    analytic_coframe,
    levi_civita_connection,
    tmg_action,
)
from cartanforms.algebra import build_algebra
from cartanforms.calculus import LieForm, exterior_d, _det_on_points

from lattice_reference import _eval_on_points
from tmg_refinement import tmg_value

_MU, _NU = [0, 0, 1], [1, 2, 2]
_MINOR_SIGN = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0],
                        [1.0, -1.0, 1.0]])[:, :, None]


def _deriv_form(w, sigma):
    comps = {key: poly.deriv(sigma) for key, poly in w.comps.items()}
    return LieForm(w.algebra, w.dim, w.degree, comps)


def _torsion_map(ad, w, f):
    """[w_mu, f_nu] - [w_nu, f_mu] in p coordinates, (..., pair, a, npts)."""
    adw = (ad @ w).reshape(3, 3, 3, -1)            # (mu, b, a, npts)
    return (np.einsum("...qbn,qban->...qan", f[..., _NU, :, :], adw[_MU])
            - np.einsum("...qbn,qban->...qan", f[..., _MU, :, :], adw[_NU]))


def reference_solve(lc, axes):
    """E, dE, w, dw on the points from the eight exact LieForms."""
    e, alg = lc.e, lc.e.algebra
    h, p = alg.h_indices, alg.p_indices
    ad = np.array([[[alg.structure[hi][pb][pa] for pa in p] for pb in p]
                   for hi in h], dtype=float).reshape(3, 9).T
    de = exterior_d(e)
    forms = ([e, de] + [_deriv_form(e, s) for s in range(3)]
             + [_deriv_form(de, s) for s in range(3)])
    vals = _eval_on_points(forms, axes, rows=list(p))
    e_arr, de_arr = vals[0], vals[1]
    e_d, de_d = np.stack(vals[2:5]), np.stack(vals[5:8])
    det = _det_on_points(e_arr)
    lam_inv = e_arr[::-1, ::-1].transpose(1, 0, 2) * (_MINOR_SIGN / det)

    def apply_inverse(rhs):
        y = np.einsum("pqn,...qan->...pan", lam_inv, rhs)
        big_w = (lc._k0_inv @ y.reshape(y.shape[:-3] + (9, -1))).reshape(y.shape)
        return np.einsum("mcn,...cin->...min", e_arr, big_w)

    w = apply_inverse(-de_arr)
    dw_sigma = apply_inverse(-de_d - _torsion_map(ad, w, e_d))
    dw = dw_sigma[_MU, _NU] - dw_sigma[_NU, _MU]
    return {"E": e_arr, "dE": de_arr, "w": w, "dw": dw}


@pytest.mark.parametrize("name", ["so31", "iso21", "so22", "so4", "iso3"])
def test_solve_equals_form_reference(name):
    alg = build_algebra(name)
    rng = np.random.default_rng(11)
    points = rng.uniform(0.0, 2.0 * math.pi, size=(96, 3))
    axes = [points[:, j] for j in range(3)]
    for seed in range(8):
        for cutoff in (1, 2):
            lc = levi_civita_connection(
                analytic_coframe(alg, seed=seed, cutoff=cutoff))
            sol = lc.solve(axes)
            ref = reference_solve(lc, axes)
            for key in ("E", "dE", "w", "dw"):
                scale = max(1.0, float(np.abs(ref[key]).max()))
                assert np.abs(sol[key] - ref[key]).max() <= 1e-14 * scale, \
                    (name, seed, cutoff, key)
            assert lc.torsion_residual(points) < 1e-12


def test_coefficient_table_built_once_per_connection(monkeypatch):
    e = analytic_coframe(build_algebra("so31"), seed=2)
    built, solves = [], []
    real_build = calculus._point_coefficients
    real_solve = LeviCivitaConnection.solve

    def build(*args, **kwargs):
        built.append(1)
        return real_build(*args, **kwargs)

    def solve(self, axes):
        solves.append(1)
        return real_solve(self, axes)

    for module in (calculus, actions):
        monkeypatch.setattr(module, "_point_coefficients", build)
    monkeypatch.setattr(LeviCivitaConnection, "solve", solve)
    value = tmg_action(e, 5, grid=40).numeric
    # 40^3 points are 16 blocks: one table for the connection, which its
    # coframe scan reads too, none per block
    assert len(solves) == 16
    assert len(built) == 1

    def refuse(*args, **kwargs):
        raise AssertionError("the solve evaluated forms")

    lc = LeviCivitaConnection(e)
    assert len(built) == 2
    for module in (cartan, actions):
        monkeypatch.setattr(module, "_min_abs_det", refuse)
    assert tmg_value(lc, 5, 40) == value
    assert len(built) == 2
