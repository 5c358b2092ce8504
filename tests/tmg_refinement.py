"""Quadrature refinement of the TMG action, shared by the tests that check
its spectral decay."""

from cartanforms.actions import levi_civita_connection, tmg_action


def tmg_refinement_report(e, mu, grids=(4, 8, 16), reference_grid=48):
    """Quadrature errors against a fine reference; spectral decay expected."""
    lc = levi_civita_connection(e)
    ref = tmg_action(e, mu, grid=reference_grid, lc=lc).numeric
    rows = []
    for g in grids:
        v = tmg_action(e, mu, grid=g, lc=lc).numeric
        rows.append({"grid": g, "value": v, "error": abs(v - ref)})
    return {"reference_grid": reference_grid, "reference": ref, "rows": rows}
