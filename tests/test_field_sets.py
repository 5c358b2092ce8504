"""Shared field sets: the grouped battery run against isolated checks.

`run_suite` runs identity batteries grouped by (algebra object, seed,
cutoff) inside one run scope; these tests hold it to the rows, residuals
and report an isolated `identity_residual` call per row gives, in the
report order of the plain nested loops.
"""

import dataclasses
import json
import types
import weakref
from fractions import Fraction

import pytest

from cartanforms import actions, cli, suites
from cartanforms.actions import CouplingConstants, identity_residual
from cartanforms.algebra import build_algebra

EXACT_3D = list(suites.EXACT_3D_IDENTITIES)


def corrupted_so31():
    """so31 with the [M01, P0] bracket damaged, under the same name."""
    real = build_algebra("so31")
    structure = [[list(row) for row in plane] for plane in real.structure]
    structure[0][3][4] += 1
    structure[3][0][4] -= 1
    table = tuple(
        tuple(tuple((c, Fraction(x)) for c, x in enumerate(structure[a][b])
                    if x != 0) for b in range(real.dim))
        for a in range(real.dim))
    return dataclasses.replace(
        real, structure=tuple(tuple(tuple(r) for r in p) for p in structure),
        bracket_table=table)


def isolated_rows(cfg):
    """Each row from its own identity_residual call, in nested-loop order."""
    rows = []
    for identity_id in cfg.suites:
        for name in cfg.algebras:
            alg = suites.algebra_factory(name)
            for base in suites._couplings_for(cfg, name):
                cc = suites._identity_couplings(identity_id, base)
                for seed in cfg.seeds():
                    rep = identity_residual(identity_id, alg, seed, cc,
                                            cutoff=cfg.cutoff, grid=cfg.grid)
                    rows.append(suites._result_from_report(identity_id, rep, 0))
                if identity_id in suites.NUMERIC_IDENTITIES:
                    break
    return rows


def row_key(r):
    return (r.suite, r.check, r.algebra, r.seed, r.couplings,
            r.inputs_digest, r.residual, r.passed)


def test_grouped_battery_equals_isolated_checks(monkeypatch):
    cfg = suites.SuiteConfig(suites=EXACT_3D,
                             algebras=["so31", "iso21", "so22"])
    cfg.seed_start, cfg.seed_end = 0, 3
    expected = isolated_rows(cfg)
    assert len(expected) == 5 * 3 * 3 * 4

    calls = []
    real_random_form = actions.random_form
    monkeypatch.setattr(actions, "random_form",
                        lambda *a, **k: calls.append((a[0], a[2], k["support"]))
                        or real_random_form(*a, **k))
    results, ok = suites.run_suite(cfg)
    assert ok
    assert [row_key(r) for r in results] == [row_key(r) for r in expected]
    assert suites.emit_report(results, cfg) == suites.emit_report(expected, cfg)
    # omega and e once per (algebra, seed), not once per check
    assert len(calls) == len(set(calls)) == 2 * 3 * 4


def test_invariant_forms_built_once_per_run(monkeypatch):
    cfg = suites.SuiteConfig(suites=EXACT_3D, algebras=["so22"])
    cfg.seed_start, cfg.seed_end = 0, 2
    built = []
    real = actions.invariant_form
    monkeypatch.setattr(actions, "invariant_form",
                        lambda alg, c0, c1: built.append((alg.name, c0, c1))
                        or real(alg, c0, c1))
    _, ok = suites.run_suite(cfg)
    assert ok
    assert built and len(built) == len(set(built))


def test_cache_keyed_by_algebra_object_not_name(monkeypatch, capsys):
    # a real run, then a corrupted so31 under the same name, one process;
    # seed 4 is where the damaged bracket shows in the default battery
    assert cli.main(["verify", "--seeds", "4"]) == 0
    bad = corrupted_so31()
    monkeypatch.setattr(suites, "algebra_factory",
                        lambda name: bad if name == "so31"
                        else build_algebra(name))
    capsys.readouterr()
    assert cli.main(["verify", "--seeds", "4"]) == 1
    assert "FAILED" in capsys.readouterr().err

    # and inside one run: the first suite gets the real so31, the second
    # the corrupted one; no field or form crosses between them
    served = []

    def factory(name):
        served.append(name)
        return build_algebra(name) if len(served) == 1 else bad

    monkeypatch.setattr(suites, "algebra_factory", factory)
    cfg = suites.SuiteConfig(suites=["TWO_CS_SUM", "EINSTEIN_CS"],
                             algebras=["so31"])
    cfg.seed_start, cfg.seed_end = 4, 4
    results, ok = suites.run_suite(cfg)
    assert not ok
    first = [r for r in results if r.check == "TWO_CS_SUM"]
    second = [r for r in results if r.check == "EINSTEIN_CS"]
    assert all(r.passed for r in first)
    assert not all(r.passed for r in second)
    for r in second:
        cc = CouplingConstants(c0=r.couplings["c0"], c1=r.couplings["c1"])
        rep = identity_residual("EINSTEIN_CS", bad, r.seed, cc)
        assert r.residual == rep.residual_str()


def test_one_field_set_alive_and_none_after_run(monkeypatch):
    live = weakref.WeakSet()
    init = actions.FieldSet.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        live.add(self)

    monkeypatch.setattr(actions.FieldSet, "__init__", tracked)
    peak = []
    inner = suites.identity_residual

    def spy(*args, **kwargs):
        rep = inner(*args, **kwargs)
        peak.append(len(live))
        return rep

    monkeypatch.setattr(suites, "identity_residual", spy)
    cfg = suites.SuiteConfig(
        suites=["EINSTEIN_CS", "TWO_CS_SUM", "mm_identities"],
        algebras=["so31", "iso21"])
    cfg.seed_start, cfg.seed_end = 0, 1
    results, ok = suites.run_suite(cfg)
    assert ok and len(results) == len(peak) > 0
    assert max(peak) == 1
    assert len(live) == 0
    assert actions._SCOPE.get() is None


def test_tmg_pair_shares_one_connection(monkeypatch):
    builds = []
    real = actions.LeviCivitaConnection.__init__

    def counting(self, e):
        builds.append(1)
        real(self, e)

    monkeypatch.setattr(actions.LeviCivitaConnection, "__init__", counting)
    alg = build_algebra("so31")
    cc = suites._identity_couplings("CS_TMG", CouplingConstants(c0=2, c1=3))
    ids = suites.NUMERIC_IDENTITIES
    for seed in (0, 1):
        unshared = [identity_residual(i, alg, seed, cc, grid=10).residual
                    for i in ids]
        builds.clear()
        with actions.run_scope():
            shared = [identity_residual(i, alg, seed, cc, grid=10).residual
                      for i in ids]
        assert len(builds) == 1
        for a, b in zip(shared, unshared):
            assert abs(a - b) <= 1e-15

    cfg = suites.SuiteConfig(suites=list(ids), algebras=["so31", "so22"],
                             grid=10)
    cfg.seed_start, cfg.seed_end = 0, 1
    builds.clear()
    results, ok = suites.run_suite(cfg)
    assert ok and len(results) == 8
    assert len(builds) == 4     # one per (algebra, seed), not per check
    assert [row_key(r) for r in results] == \
        [row_key(r) for r in isolated_rows(cfg)]


def test_appendix_star_time_split_over_emitted_rows(monkeypatch):
    ticks = iter(range(1000))
    monkeypatch.setattr(suites, "time",
                        types.SimpleNamespace(perf_counter=lambda: next(ticks)))
    cfg = suites.SuiteConfig(algebras=["iso21", "so22"])
    results = suites.run_appendix_star(cfg, random_pairs=3)
    for name, nrows in (("iso21", 6), ("so22", 7)):
        rows = [r for r in results if r.algebra == name]
        assert len(rows) == nrows
        # each algebra's suite took one tick (1 s) of the fake clock
        assert sum(r.wall_time_ms for r in rows) == pytest.approx(1000.0)


@pytest.mark.parametrize("seeds", ["5..2", "x", "1..y", ".."])
def test_verify_bad_seed_range_is_usage_error(seeds, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--seeds", seeds])
    assert exc.value.code == 2
    assert "--seeds" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [{"seeds": [4, 1]}, {"seeds": "x"},
                                 {"seeds": [0, 1], "grid": "big"}])
def test_verify_bad_config_is_usage_error(tmp_path, capsys, doc):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(dict(doc, suites=["CS_NULL"])))
    assert cli.main(["verify", "--config", str(cfg_file)]) == 2
    assert "config error" in capsys.readouterr().err


def test_verify_config_file_not_json(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text("{not json")
    assert cli.main(["verify", "--config", str(cfg_file)]) == 2
    assert "config error" in capsys.readouterr().err


def test_verify_requested_suites_with_no_checks_fail(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"suites": ["CS_NULL"], "algebras": []}))
    out = tmp_path / "r.json"
    rc = cli.main(["verify", "--config", str(cfg_file), "--out", str(out)])
    assert rc == 1
    assert "no checks" in capsys.readouterr().err
    assert json.loads(out.read_text())["summary"]["total"] == 0


def test_couplings_keep_their_invariant_form_per_algebra_object():
    so31, bad = build_algebra("so31"), corrupted_so31()
    cc = CouplingConstants(2, 3)
    form = cc.invariant_form(so31)
    assert form is actions._per_algebra(actions.invariant_form, so31,
                                        Fraction(2), Fraction(3))
    assert cc.invariant_form(so31) is form
    # equal couplings find the same form; the kept form is no field
    twin = CouplingConstants(2, 3)
    assert twin == cc and hash(twin) == hash(cc)
    assert twin.invariant_form(so31) is form
    assert repr(cc) == repr(twin) and cc.as_dict() == twin.as_dict()
    # a damaged algebra under the same name gets its own form
    assert cc.invariant_form(bad) is not form
    assert cc.invariant_form(bad).algebra is bad


def test_couplings_format_their_strings_once_and_copy_them_per_call(
        monkeypatch):
    cc = CouplingConstants("1/3", -2, 5)
    first = cc.as_dict()
    formatted = []
    fraction_str = Fraction.__str__
    monkeypatch.setattr(Fraction, "__str__",
                        lambda x: formatted.append(x) or fraction_str(x))
    first["c0"] = "changed"
    again = cc.as_dict()
    assert again == {"c0": "1/3", "c1": "-2", "mu": "5", "gamma": None}
    assert again is not cc.as_dict()
    assert formatted == []
    # the rows of one couplings object get a dict each
    cfg = suites.SuiteConfig(algebras=["so22"], seed_start=0, seed_end=1)
    rows = suites._run_planned(suites._plan_identity_battery("CS_PERP", cfg))
    assert rows[0].couplings == rows[1].couplings
    assert rows[0].couplings is not rows[1].couplings


def test_battery_looks_up_each_invariant_form_once_per_couplings(
        monkeypatch):
    """The planner shares one couplings object among the seeds of an
    (identity, algebra, coupling row), so a 5 x 3 x 3 battery on 4 seeds
    looks its invariant forms up 45 times, not once per check."""
    lookups = []
    per_algebra = actions._per_algebra

    def counting(build, alg, *args):
        if build is actions.invariant_form:
            lookups.append((alg.name, *args))
        return per_algebra(build, alg, *args)

    monkeypatch.setattr(actions, "_per_algebra", counting)
    cfg = suites.SuiteConfig(seed_start=0, seed_end=3)
    results, passed = suites.run_suite(cfg)
    assert passed and len(results) == 5 * 3 * 3 * 4
    assert len(lookups) == 5 * 3 * 3
