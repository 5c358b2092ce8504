"""The coframe scan on the lattice and the integer analytic coframe, each
against the path it replaced.

`cartan._min_abs_det` is the one whole-lattice evaluation: it builds the
cos/sin table of the other axes from per-axis outer products and folds the
first axis into the weights.  On every torus dimension 1-4, on the smallest
grids and on no frequencies, its least |det| must be the one read from
`_trig_table` on `_lattice` points; `coframe_check` reads its values
through it and must decide as the `_eval_on_points` path does.
`analytic_coframe` adds integer numerators straight into each component;
it must equal the Fraction/TrigPoly construction kept here as reference.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from cartanforms.actions import _COFRAME_AMPLITUDE, analytic_coframe
from cartanforms.algebra import build_algebra
from cartanforms.calculus import (
    LieForm,
    TrigPoly,
    random_form,
    _det_on_points,
    _point_coefficients,
    _rng_for,
    _trig_table,
)
from cartanforms.cartan import _min_abs_det, coframe_check

from lattice_reference import _eval_on_points, _lattice

THREE_D = ("so31", "iso21", "so22", "so4", "iso3")


def identity_coframe(alg):
    n = alg.spacetime_dim
    comps = {(alg.p_indices[a], (a,)): TrigPoly.constant(n, 1) for a in range(n)}
    return LieForm(alg, n, 1, comps)


def _freqs(dim, cutoff):
    """Every frequency of the cutoff box, each +-k pair once, as
    _point_coefficients lists them."""
    ks = [k for k in itertools.product(range(-cutoff, cutoff + 1), repeat=dim)
          if k >= tuple(-x for x in k)]
    return np.array(ks, dtype=float).reshape(len(ks), dim)


def _reference_min_det(freqs, c, n):
    """Least |det| of the (dim, dim, 2 nf) weights c over freqs on the
    _lattice points, through _trig_table, 4096 points at a time."""
    axes = _lattice(n, freqs.shape[1])
    return float(min(
        np.abs(_det_on_points(
            c @ _trig_table(freqs, [x[start:start + 4096] for x in axes]))).min()
        for start in range(0, len(axes[0]), 4096)))


def _assert_same_min_det(freqs, c, n):
    """_min_abs_det against the reference, to rounding: every entry is at
    most the largest row sum of |c|, so a det is at most its dim-th power."""
    got, ref = _min_abs_det(freqs, [c], n), _reference_min_det(freqs, c, n)
    bound = max(1.0, np.abs(c).sum(axis=-1).max(initial=0.0))
    assert abs(got - ref) <= 1e-14 * bound ** len(c)
    return got


# the phases k.x reach cutoff * dim * 2 pi; the reference's own rounding of
# that sum stays below 1e-14 on these boxes
@pytest.mark.parametrize("dim,cutoff", [(1, 3), (2, 3), (3, 3), (4, 2)])
@pytest.mark.parametrize("n", [1, 2, 7, 16])
def test_lattice_table_matches_trig_table(dim, cutoff, n):
    """The scan's table and first-axis fold on a full frequency box."""
    freqs = _freqs(dim, cutoff)
    rng = np.random.default_rng([dim, cutoff, n])
    c = rng.uniform(-1, 1, (dim, dim, 2 * len(freqs))) / len(freqs)
    assert _assert_same_min_det(freqs, c, n) > 0


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 7, 16])
def test_lattice_table_of_no_frequencies(dim, n):
    """No modes: every value is 0, and the table still has n^(dim-1)
    columns."""
    freqs = np.zeros((0, dim))
    assert _assert_same_min_det(freqs, np.zeros((dim, dim, 0)), n) == 0.0


@pytest.mark.parametrize("n", [1, 2, 7, 16])
def test_lattice_values_match_point_path(n):
    """Degree-1 forms on T^1 to T^4, read on as many rows as the torus has
    axes, against _eval_on_points."""
    for name, dim in (("iso21", 1), ("so31", 2), ("so22", 3), ("so41", 4)):
        alg = build_algebra(name)
        rows = list(alg.p_indices[:dim])
        for seed, cutoff in ((0, 1), (1, 2), (2, 2)):
            w = random_form(seed, 1, alg, dim=dim, cutoff=cutoff)
            (vals,) = _eval_on_points([w], _lattice(n, dim), rows)
            assert vals.shape == (dim, dim, n ** dim)
            ref = float(np.abs(_det_on_points(vals)).min())
            got = _min_abs_det(*_point_coefficients([w], rows), n)
            assert abs(got - ref) <= 1e-14 * max(1.0, np.abs(vals).max()) ** dim


def _reference_check(e, grid_size=16, tol=1e-8):
    """coframe_check on _eval_on_points at _lattice points."""
    (vals,) = _eval_on_points([e], _lattice(grid_size, e.dim),
                              rows=list(e.algebra.p_indices))
    dets = np.abs(_det_on_points(vals))
    min_det = float(dets.min()) if dets.size else 0.0
    return {"nondegenerate": bool(min_det > tol), "min_abs_det": min_det}


def _assert_same_check(e, grid_size=16):
    got, ref = coframe_check(e, grid_size=grid_size), _reference_check(e, grid_size)
    assert got["nondegenerate"] == ref["nondegenerate"]
    assert abs(got["min_abs_det"] - ref["min_abs_det"]) <= 1e-14
    return got


@pytest.mark.parametrize("name", THREE_D)
@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_coframe_check_matches_point_path(name, cutoff):
    alg = build_algebra(name)
    decided = set()
    for seed in range(20):
        _assert_same_check(analytic_coframe(alg, seed=seed, cutoff=cutoff))
        # random translation-valued forms, degenerate somewhere or not
        rough = random_form(seed, 1, alg, support="p", cutoff=cutoff)
        decided.add(_assert_same_check(rough)["nondegenerate"])
        _assert_same_check(identity_coframe(alg) + rough)
    assert False in decided


def test_coframe_check_matches_point_path_on_zero_and_t4():
    # grids 1 and 2 are the smallest lattices: one point, and two per axis
    for grid_size in (16, 1, 2):
        for name in THREE_D:
            alg = build_algebra(name)
            got = _assert_same_check(LieForm.zero(alg, 3, 1), grid_size)
            assert got == {"nondegenerate": False, "min_abs_det": 0.0}
            if grid_size < 16:
                _assert_same_check(analytic_coframe(alg, seed=1, cutoff=2),
                                   grid_size)
        alg = build_algebra("so41")
        e = identity_coframe(alg) + random_form(3, 1, alg, support="p").scale(
            Fraction(1, 10))
        assert e.dim == 4
        assert _assert_same_check(e, grid_size)["nondegenerate"]
        _assert_same_check(random_form(1, 1, alg, support="p"),
                           grid_size=7 if grid_size == 16 else grid_size)


def _fraction_coframe(alg, seed=0, cutoff=1):
    """analytic_coframe as built before, with Fraction and TrigPoly sums."""
    rng = _rng_for(seed, "coframe", alg.name, cutoff)
    amplitude = _COFRAME_AMPLITUDE
    comps = {}
    for a, lie_idx in enumerate(alg.p_indices):
        for mu in range(3):
            poly = TrigPoly.constant(3, 1) if a == mu else TrigPoly.zero(3)
            k = tuple(rng.randint(-cutoff, cutoff) for _ in range(3))
            re = amplitude * Fraction(rng.randint(-3, 3), 3)
            im = 0 if all(x == 0 for x in k) else amplitude * Fraction(rng.randint(-3, 3), 3)
            poly = poly + TrigPoly.harmonic(3, k, re, im)
            if not poly.is_zero():
                comps[(lie_idx, (mu,))] = poly
    return LieForm(alg, 3, 1, comps)


@pytest.mark.parametrize("name", THREE_D)
def test_integer_coframe_matches_fraction_build(name):
    alg = build_algebra(name)
    for seed, cutoff in itertools.product(range(60), (1, 2, 3)):
        got = analytic_coframe(alg, seed=seed, cutoff=cutoff)
        ref = _fraction_coframe(alg, seed=seed, cutoff=cutoff)
        assert list(got.comps) == list(ref.comps)
        for key, poly in ref.comps.items():
            mine = got.comps[key]
            assert mine.den == poly.den
            assert list(mine.nums.items()) == list(poly.nums.items())
        assert got == ref

