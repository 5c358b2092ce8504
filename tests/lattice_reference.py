"""The uniform lattice as coordinate arrays and the form evaluator at
arbitrary points: the references the lattice evaluator, the torsion-free
solve and the quadrature are checked against."""

import numpy as np

from cartanforms.calculus import _lattice_axis, _point_coefficients, \
    _trig_table


def _lattice(n, dim):
    """The n^dim uniform grid on T^dim as dim flat coordinate arrays."""
    ax = _lattice_axis(n)
    return [m.ravel() for m in np.meshgrid(*[ax] * dim, indexing="ij")]


def _eval_on_points(forms, axes, rows=None):
    """Values of LieForms at points, one (ncomp, dim, npts) array per form,
    or (ncomp, len(rows), npts) with `rows` (see _point_coefficients)."""
    freqs, coefs = _point_coefficients(forms, rows)
    table = _trig_table(freqs, axes)
    return [c @ table for c in coefs]
