"""Pointwise float kernels against the code they replaced.

The TMG solve and quadrature bracket through ad(u) matrices, the sphere
model's connection is a closed form and determinants expand cofactors over
column tuples; each is pinned here to the computation it replaces, which
this file keeps as its reference.
"""

import numpy as np
import pytest

from cartanforms.actions import _PAIRS3, _bracket, _float_tables
from cartanforms.algebra import build_algebra
from cartanforms.calculus import _det_on_points
from cartanforms.cartan import (
    Path,
    _mc_series,
    _so3_gen,
    holonomy,
    sphere_spin_connection,
)


# ---------------------------------------------------------------------------
# the bracket kernel
# ---------------------------------------------------------------------------

def ref_bracket(table, u, v):
    """The outer-product kernel: one (..., m, k, npts) product per pair,
    contracted by a matmul with table[c, a*k + b] = C_ab^c."""
    twice = v is u
    lead = v.shape[:-3]
    out = np.empty(lead + (3, table.shape[0], u.shape[-1]))
    for row, (mu, nu) in enumerate(_PAIRS3):
        outer = u[mu, :, None] * v[..., nu, None, :, :]
        if not twice:
            outer -= u[nu, :, None] * v[..., mu, None, :, :]
        out[..., row, :, :] = table @ outer.reshape(
            lead + (table.shape[1], -1))
    return 2.0 * out if twice else out


TABLES = ("full", "hhh", "pph", "hpp")


def float_table(name, which):
    """The full structure table or one block of _float_tables, laid out as
    t[c, b, a] = C_ab^c."""
    alg = build_algebra(name)
    if which == "full":
        full = np.array(alg.structure, dtype=float).transpose(2, 1, 0)
        return np.ascontiguousarray(full)
    return _float_tables(alg)[TABLES.index(which) - 1]


# tables antisymmetric in (a, b), so a self-bracket applies
SELF_TABLES = ("full", "hhh", "pph")
CASES = ([(name, t) for name in ("so31", "so22", "so4") for t in TABLES]
         + [(name, "full") for name in ("iso21", "iso3")])


@pytest.mark.parametrize("npts", [4096, 1000], ids=["block", "partial"])
@pytest.mark.parametrize("name, which", CASES,
                         ids=[f"{n}-{t}" for n, t in CASES])
def test_bracket_matches_outer_product_reference(name, which, npts):
    table = float_table(name, which)
    r, k, m = table.shape
    old_layout = table.transpose(0, 2, 1).reshape(r, m * k)
    rng = np.random.default_rng([ord(c) for c in name + which] + [npts])
    u = rng.standard_normal((3, m, npts))
    operands = {"mixed": (u, rng.standard_normal((3, k, npts))),
                "sigma": (u, rng.standard_normal((3, 3, k, npts)))}
    if which in SELF_TABLES:
        operands["self"] = (u, u)
    for kind, (x, y) in operands.items():
        got, want = _bracket(table, x, y), ref_bracket(old_layout, x, y)
        assert got.shape == want.shape, kind
        tol = 1e-14 * max(1.0, float(np.abs(want).max()))
        assert float(np.abs(got - want).max()) <= tol, kind


# ---------------------------------------------------------------------------
# the sphere model
# ---------------------------------------------------------------------------

def ref_sphere_matrices(x):
    """The L12 projection of the 26-term exponential-derivative series."""
    p1, p2 = _so3_gen(0, 2), _so3_gen(1, 2)
    x = np.asarray(x, dtype=float)
    x_mat = x[..., 0, None, None] * p1 + x[..., 1, None, None] * p2
    full = _mc_series(x_mat[..., None, :, :], np.array([p1, p2]))
    return full[..., 0, 1, None, None] * _so3_gen(0, 1)


def test_sphere_closed_form_matches_series():
    model = sphere_spin_connection()
    rng = np.random.default_rng(11)
    x = rng.uniform(-0.3, 0.3, size=(4000, 2))
    x = np.vstack([np.zeros((1, 2)), x[np.hypot(x[:, 0], x[:, 1]) <= 0.3]])
    assert np.abs(model.matrices(x) - ref_sphere_matrices(x)).max() <= 1e-16
    origin = model.matrices(np.zeros(2))
    assert np.abs(origin - ref_sphere_matrices(np.zeros(2))).max() <= 1e-16


@pytest.mark.parametrize("steps, angle", [(2000, 0.039955576335102334),
                                          (16000, 0.039955576292277604)])
def test_sphere_square_loop_angle_unchanged(steps, angle):
    # the criterion-8 angles as the series gave them
    res = holonomy(sphere_spin_connection(), Path.square_loop(0.2), steps)
    assert abs(res.rotation_angle() - angle) <= 1e-12


# ---------------------------------------------------------------------------
# determinants on points
# ---------------------------------------------------------------------------

def ref_det_on_points(m):
    """Cofactor expansion along the first row over np.delete copies."""
    if len(m) == 1:
        return m[0, 0]
    rest = m[1:]
    return sum((-1) ** j * m[0, j] * ref_det_on_points(np.delete(rest, j, axis=1))
               for j in range(len(m)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_det_on_points_equals_delete_expansion(n):
    m = np.random.default_rng(n).standard_normal((n, n, 257))
    assert np.array_equal(_det_on_points(m), ref_det_on_points(m))
    assert np.allclose(_det_on_points(m), np.linalg.det(m.transpose(2, 0, 1)))
