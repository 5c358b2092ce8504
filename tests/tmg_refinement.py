"""TMG quadrature readers shared by the tests: the value of a prebuilt
torsion-free connection, the TMG and Chern-Simons means of solved blocks,
and the refinement report that checks spectral decay."""

from cartanforms.actions import (
    _solved_blocks,
    _tmg_moments,
    _tmg_value,
    _walk_sums,
    levi_civita_connection,
)
from cartanforms.cartan import CartanConnection


def tmg_value(lc, mu, grid):
    """S_TMG of lc's coframe on the grid, from the prebuilt connection."""
    moments, _ = _tmg_moments(lc.alg, _solved_blocks(lc, grid))
    return _tmg_value(lc.alg, moments, mu)


def tmg_means(alg, blocks, mu, cs_terms=()):
    """(S_TMG, [S_CS per term], min |det e|) over solved blocks; cs_terms
    lists (s, form) pairs, s = +1 for A(e) = w + e, s = -1 for ~A(e)."""
    moments, min_det = _tmg_moments(alg, blocks)
    values = [CartanConnection.float_value("cs_a" if s == 1 else "cs_a_t",
                                           _walk_sums(alg, moments,
                                                      form.gram_float))
              for s, form in cs_terms]
    return _tmg_value(alg, moments, mu), values, min_det


def tmg_refinement_report(e, mu, grids=(4, 8, 16), reference_grid=48):
    """Quadrature errors against a fine reference; spectral decay expected."""
    lc = levi_civita_connection(e)
    ref = tmg_value(lc, mu, reference_grid)
    rows = []
    for g in grids:
        v = tmg_value(lc, mu, g)
        rows.append({"grid": g, "value": v, "error": abs(v - ref)})
    return {"reference_grid": reference_grid, "reference": ref, "rows": rows}
