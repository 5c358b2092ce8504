"""TMG at every sign of the cosmological constant.

CS_TMG and TWO_CS_TMG run on iso21 and iso3, the Lambda = 0 algebras,
as on so31 and so22.  There [p, p] = 0, so S_TMG has no e ^ [e, e] term
and |S_TMG| is about 100 times smaller than on so31 and so22; the worst
residual at grid 12 (1.9e-9 on iso21, 1.4e-9 on iso3) still sits five
times under the 1e-8 gate, and grid 24 brings it near 1e-14.
"""

import pytest

from cartanforms import actions, suites


def test_tmg_identities_cover_every_3d_algebra():
    for identity_id in suites.NUMERIC_IDENTITIES:
        assert set(actions.IDENTITY_ALGEBRAS[identity_id]) == {
            "so31", "iso21", "so22", "so4", "iso3"}


@pytest.mark.parametrize("grid,last_seed,bound", [(12, 39, 2e-9),
                                                  (24, 7, 2e-14)])
def test_tmg_identities_pass_at_zero_cosmological_constant(grid, last_seed,
                                                           bound):
    cfg = suites.SuiteConfig(suites=["tmg_identities"],
                             algebras=["iso21", "iso3"], seed_start=0,
                             seed_end=last_seed, grid=grid)
    results, ok = suites.run_suite(cfg)
    assert ok
    assert len(results) == 2 * 2 * (last_seed + 1)
    assert {(r.algebra, r.check) for r in results} == {
        (a, i) for a in ("iso21", "iso3") for i in suites.NUMERIC_IDENTITIES}
    assert max(float(r.residual) for r in results) < bound
