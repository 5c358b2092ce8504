"""The coframe scan on the lattice and the integer analytic coframe, each
against the path it replaced.

`calculus._lattice_table` builds the cos/sin table of a frequency list on
the whole n^dim lattice from per-axis outer products; it must equal
`_trig_table` on `_lattice` points.  `_eval_on_lattice` folds the first
axis into the weights and must give `_eval_on_points`'s values;
`coframe_check` reads its values through it and must decide as the
`_eval_on_points` path does.
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
    _eval_on_lattice,
    _lattice_factors,
    _lattice_table,
    _point_coefficients,
    _rng_for,
    _trig_table,
)
from cartanforms.cartan import coframe_check

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


# the phases k.x reach cutoff * dim * 2 pi; the reference's own rounding of
# that sum stays below 1e-14 on these boxes
@pytest.mark.parametrize("dim,cutoff", [(1, 3), (2, 3), (3, 3), (4, 2)])
@pytest.mark.parametrize("n", [1, 2, 7, 16])
def test_lattice_table_matches_trig_table(dim, cutoff, n):
    freqs = _freqs(dim, cutoff)
    table = _lattice_table(_lattice_factors(freqs, n))
    ref = _trig_table(freqs, _lattice(n, dim))
    assert table.shape == ref.shape == (2 * len(freqs), n ** dim)
    assert np.abs(table - ref).max() <= 1e-14


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 7, 16])
def test_lattice_table_of_no_frequencies(dim, n):
    freqs = np.zeros((0, dim))
    assert _lattice_table(_lattice_factors(freqs, n)).shape == (0, n ** dim)
    assert _trig_table(freqs, _lattice(n, dim)).shape == (0, n ** dim)


@pytest.mark.parametrize("n", [1, 2, 7, 16])
def test_lattice_values_match_point_path(n):
    for name, dim in (("iso21", 1), ("so31", 2), ("so22", 3), ("so41", 4)):
        alg = build_algebra(name)
        forms = [random_form(seed, degree, alg, dim=dim, cutoff=cutoff)
                 for seed, degree, cutoff in ((0, 1, 1), (1, 2, 2), (2, 1, 2))
                 if degree <= dim]
        for rows in (None, list(alg.p_indices)):
            got = _eval_on_lattice(*_point_coefficients(forms, rows), n)
            ref = _eval_on_points(forms, _lattice(n, dim), rows)
            for a, b in zip(got, ref, strict=True):
                assert a.shape == b.shape
                scale = max(1.0, np.abs(b).max(initial=0.0))
                assert np.abs(a - b).max(initial=0.0) <= 1e-14 * scale


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
    for name in THREE_D:
        alg = build_algebra(name)
        got = _assert_same_check(LieForm.zero(alg, 3, 1))
        assert got == {"nondegenerate": False, "min_abs_det": 0.0}
    alg = build_algebra("so41")
    e = identity_coframe(alg) + random_form(3, 1, alg, support="p").scale(
        Fraction(1, 10))
    assert e.dim == 4
    assert _assert_same_check(e)["nondegenerate"]
    _assert_same_check(random_form(1, 1, alg, support="p"), grid_size=7)


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

