import types

import pytest

from cartanforms import suites


def test_appendix_forms_small():
    cfg = suites.SuiteConfig(suites=["appendix_forms"],
                             algebras=["so22", "so41"])
    cfg.seed_start, cfg.seed_end = 0, 5
    results = suites.run_appendix_forms(cfg)
    assert results and all(r.passed for r in results)
    # both tori covered
    assert {r.algebra for r in results} == {"so22", "so41"}
    # every identity appears on every seed
    names = {r.check for r in results}
    assert len(names) == 8


def test_appendix_forms_times_each_row(monkeypatch):
    # the fake clock reads k^2 at its k-th call, so consecutive readings
    # are 2k - 1 apart and every check takes a different time
    calls = iter(range(1000))
    monkeypatch.setattr(suites, "time", types.SimpleNamespace(
        perf_counter=lambda: next(calls) ** 2))
    cfg = suites.SuiteConfig(algebras=["so22"])
    cfg.seed_start, cfg.seed_end = 0, 1
    results = suites.run_appendix_forms(cfg)
    for seed, first in ((0, 0), (1, 10)):
        rows = [r for r in results if r.seed == seed]
        assert len(rows) == 8
        # the shared random forms took readings first..first+1, split evenly
        shared = ((first + 1) ** 2 - first ** 2) / 8
        for k, row in enumerate(rows, first + 2):
            own = k ** 2 - (k - 1) ** 2
            assert row.wall_time_ms == pytest.approx(1000.0 * (own + shared))
        # the rows of a seed sum to its total
        assert sum(r.wall_time_ms for r in rows) == \
            pytest.approx(1000.0 * ((first + 9) ** 2 - first ** 2))


def test_appendix_star_all_pass():
    cfg = suites.SuiteConfig(algebras=["so31", "so22", "so4", "iso21", "iso3"])
    results = suites.run_appendix_star(cfg, random_pairs=25)
    assert results and all(r.passed for r in results)
    checks = {r.check for r in results}
    assert "star_square_sign" in checks
    assert "selfdual_split" in checks


def test_invariant_forms_suite():
    cfg = suites.SuiteConfig(algebras=list(suites._3D) + list(suites._4D))
    results = suites.run_invariant_forms(cfg)
    assert all(r.passed for r in results)
    assert len(results) == 7


def test_unknown_suite_rejected():
    cfg = suites.SuiteConfig(suites=["bogus"])
    with pytest.raises(suites.SuiteConfigError, match="unknown suite"):
        suites.run_suite(cfg)


def test_unknown_algebra_rejected():
    cfg = suites.SuiteConfig(algebras=["so99"])
    with pytest.raises(suites.SuiteConfigError, match="unknown algebra"):
        suites.run_suite(cfg)


def test_identity_algebra_mismatch_named():
    cfg = suites.SuiteConfig(suites=["CS_NULL"], algebras=["so41"])
    with pytest.raises(suites.SuiteConfigError, match="so41"):
        suites.run_suite(cfg)


def test_config_file_round_trip(tmp_path):
    import json
    doc = {"suites": ["EINSTEIN_CS"], "algebras": ["so22"],
           "seeds": [3, 5], "cutoff": 2, "grid": 16,
           "couplings": {"so22": [["1", "1/2"]]}}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    cfg = suites.load_config(p)
    assert cfg.seed_start == 3 and cfg.seed_end == 5
    assert cfg.cutoff == 2
    results, ok = suites.run_suite(cfg)
    assert ok and len(results) == 3
    assert all(r.couplings == {"c0": "1", "c1": "1/2", "mu": None,
                               "gamma": None} for r in results)


def test_tmg_identities_run_every_requested_seed():
    cfg = suites.SuiteConfig(suites=["tmg_identities"],
                             algebras=["so31", "so22"], grid=10)
    cfg.seed_start, cfg.seed_end = 0, 4
    results, ok = suites.run_suite(cfg)
    assert ok
    seeds = {}
    for r in results:
        key = (r.algebra, r.check, tuple(sorted(r.couplings.items())))
        seeds.setdefault(key, []).append(r.seed)
    assert len(seeds) == 2 * 2
    assert all(s == [0, 1, 2, 3, 4] for s in seeds.values())
