"""The quadrature reads the exact pipeline's Chern-Simons table.

`CartanConnection.FUNCTIONALS` states each functional once, as signed block
sums of five walks over A = omega + e.  The exact pipeline reads the walks'
integer block sums (`CartanConnection.value`); the quadrature reads float
block sums off the moment matrix M (`actions._walk_sums`) through
`CartanConnection.float_value`.  On trig-polynomial fields at grid
4 cutoff + 1 the lattice mean of a cubic is exact, so every entry read off
M must equal its exact value to rounding.  The premises of the float
reader are checked on the exact walks: (A; e, omega) equals (A; omega, e)
on the real tables, and the blocks the reader sets to 0.0 are empty.
Last, every entry of the table is read by package code.
"""

import ast
import pathlib
from fractions import Fraction

import pytest

import cartanforms
from cartanforms.actions import FieldSet, _lattice_moments, _walk_sums
from cartanforms.algebra import build_algebra, invariant_form, killing_form, \
    star_form
from cartanforms.cartan import CartanConnection

THREE_D = ("so31", "iso21", "so22", "so4", "iso3")
SRC = pathlib.Path(cartanforms.__file__).parent


def _forms(alg):
    return {"(2,3)": invariant_form(alg, 2, 3), "K": killing_form(alg),
            "S": star_form(alg)}


@pytest.mark.parametrize("name", THREE_D)
def test_every_functional_read_off_the_lattice_moments_is_exact(name):
    alg = build_algebra(name)
    for seed in range(6):
        for cutoff in (1, 2):
            conn = FieldSet(alg, seed, cutoff).connection
            moments = _lattice_moments(conn.full(), 4 * cutoff + 1)
            for label, form in _forms(alg).items():
                sums = _walk_sums(alg, moments, form.gram_float)
                for functional in CartanConnection.FUNCTIONALS:
                    exact = float(Fraction(*conn.value(functional, form)))
                    got = CartanConnection.float_value(functional, sums)
                    assert abs(got - exact) <= 1e-12 * max(abs(exact), 1.0), \
                        (seed, cutoff, label, functional, got, exact)


@pytest.mark.parametrize("name", THREE_D)
def test_the_float_readers_premises_hold_on_the_exact_walks(name):
    alg = build_algebra(name)
    h = set(alg.h_indices)
    for seed in range(6):
        for cutoff in (1, 2):
            conn = FieldSet(alg, seed, cutoff).connection
            # [e, omega] = [omega, e] for 1-forms on an antisymmetric table
            assert conn.a_ew.den == conn.a_we.den
            assert conn.a_ew.nums == conn.a_we.nums
            # [omega, omega] and [e, e] are h-valued, [omega, e] p-valued:
            # the hp and pp blocks, and the hh and ph ones, are empty
            for walk, in_h in (("a_ww", True), ("a_ee", True),
                               ("a_we", False), ("a_ew", False)):
                assert all((col in h) == in_h
                           for _, col in getattr(conn, walk).nums), walk


def test_every_table_entry_is_read_by_the_package():
    # a functional left in the table after its last reader went fails here
    read = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and node.args
                    and isinstance(node.args[0], ast.Constant)):
                read.add(node.args[0].value)
    assert sorted(set(CartanConnection.FUNCTIONALS) - read) == []
