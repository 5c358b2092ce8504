from cartanforms import suites


def test_appendix_forms_runs_every_requested_algebra():
    names = ["so31", "iso21", "so22"]
    cfg = suites.SuiteConfig(suites=["appendix_forms"], algebras=names,
                             seed_start=0, seed_end=0)
    results = suites.run_appendix_forms(cfg)
    per_algebra = {name: [r for r in results if r.algebra == name]
                   for name in names}
    assert all(len(rows) == 8 for rows in per_algebra.values())
    assert len(results) == 8 * len(names)
    assert all(r.passed for r in results)
    assert all("/T3/K=2/" in r.inputs_digest for r in results)
