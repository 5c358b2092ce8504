"""Config values the suites cannot run on, and the cutoff of the TMG fields.

A bad value is a usage error: `SuiteConfigError` from `load_config` /
`validate_config`, exit 2 from `cartanforms verify`, and a message naming
the key.  The TMG coframe is built at the configured cutoff.
"""

import json
from fractions import Fraction

import pytest

from cartanforms import actions, cli, suites
from cartanforms.algebra import build_algebra

from tmg_refinement import tmg_means


def run_cli_config(tmp_path, doc):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(doc))
    return cli.main(["verify", "--config", str(cfg_file),
                     "--out", str(tmp_path / "r.json")])


def test_cutoff_zero_is_usage_error(tmp_path, capsys):
    assert run_cli_config(tmp_path, {"suites": ["CS_NULL"], "cutoff": 0}) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "cutoff" in err
    assert not (tmp_path / "r.json").exists()


def test_grid_zero_is_usage_error(tmp_path, capsys):
    doc = {"suites": ["tmg_identities"], "algebras": ["so31"], "grid": 0}
    assert run_cli_config(tmp_path, doc) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "grid" in err
    assert not (tmp_path / "r.json").exists()


def test_unknown_key_is_usage_error(tmp_path, capsys):
    assert run_cli_config(tmp_path, {"suites": ["CS_NULL"], "bogus": 1}) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "bogus" in err


def test_config_not_an_object_is_usage_error(tmp_path, capsys):
    assert run_cli_config(tmp_path, ["CS_NULL"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("cutoff", 0), ("cutoff", -1),
                                        ("grid", 0), ("grid", "12")])
def test_validate_config_refuses_bad_sizes(key, value):
    cfg = suites.SuiteConfig(suites=["CS_NULL"], algebras=["so31"])
    setattr(cfg, key, value)
    with pytest.raises(suites.SuiteConfigError, match=key):
        suites.run_suite(cfg)


def test_load_config_names_unknown_key(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"seeds": [0, 1], "grdi": 12}))
    with pytest.raises(suites.SuiteConfigError, match="grdi"):
        suites.load_config(cfg_file)


def test_every_known_key_loads(tmp_path):
    doc = {"suites": ["CS_NULL"], "algebras": ["so31"], "seeds": [0, 1],
           "couplings": {"so31": [["1", "2"]]}, "cutoff": 2, "grid": 12,
           "out": "r.json"}
    assert sorted(doc) == sorted(suites.CONFIG_KEYS)
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(doc))
    cfg = suites.load_config(cfg_file)
    suites.validate_config(cfg)
    assert (cfg.cutoff, cfg.grid, cfg.out) == (2, 12, "r.json")


def test_mm_identities_accepts_3d_algebras():
    cfg = suites.SuiteConfig(suites=["mm_identities"], algebras=["so31"])
    suites.validate_config(cfg)


def test_tmg_rows_use_the_configured_cutoff(monkeypatch):
    cutoffs = []
    real = actions.analytic_coframe

    def spy(alg, **kwargs):
        cutoffs.append(kwargs.get("cutoff"))
        return real(alg, **kwargs)

    monkeypatch.setattr(actions, "analytic_coframe", spy)
    alg = build_algebra("so31")
    assert real(alg, seed=0, cutoff=2) != real(alg, seed=0, cutoff=1)

    def run(cutoff):
        cfg = suites.SuiteConfig(suites=["tmg_identities"], algebras=["so31"],
                                 cutoff=cutoff, grid=16)
        cfg.seed_start, cfg.seed_end = 0, 0
        return suites.run_suite(cfg)

    results, ok = run(2)
    assert cutoffs == [2]
    assert ok and len(results) == 2
    assert all("/K=2/" in r.inputs_digest for r in results)
    assert all(float(r.residual) < 1e-8 for r in results)

    cutoffs.clear()
    base, ok1 = run(1)
    assert cutoffs == [1] and ok1
    assert [r.residual for r in base] != [r.residual for r in results]

    # the cutoff-2 rows are the identities evaluated on the cutoff-2 coframe
    lc = actions.levi_civita_connection(real(alg, seed=0, cutoff=2))
    mu = Fraction(5)
    form = actions.invariant_form(alg, 1 / mu, -1)
    tmg, (rhs,), _ = tmg_means(alg, actions._solved_blocks(lc, 16), mu,
                               [(1, form)])
    expect = abs(tmg - rhs) / max(abs(tmg), abs(rhs), 1e-12)
    assert results[0].residual == f"{expect:.6e}"
