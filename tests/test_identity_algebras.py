"""Where each identity applies is read from one table.

`actions.IDENTITY_ALGEBRAS` decides which algebras an identity runs on:
`identity_residual` refuses the others, `validate_config` refuses the
same (suite, algebra) pairs, and an identity suite runs exactly the
configured algebras.  Invariant forms are cached on the algebra object.
Config lists and path files of the wrong shape are usage errors.
"""

import json

import pytest

from cartanforms import actions, cli, suites
from cartanforms.actions import IdentityError, identity_residual
from cartanforms.algebra import ALGEBRA_NAMES, build_algebra
from cartanforms.cartan import CartanError, load_path


def _one_line_usage_error(capsys, rc):
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    return err


def _verify(tmp_path, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    return cli.main(["verify", "--config", str(cfg)])


def _refused_by_config(identity_id, name):
    cfg = suites.SuiteConfig(suites=[identity_id], algebras=[name])
    try:
        suites.validate_config(cfg)
    except suites.SuiteConfigError as exc:
        assert name in str(exc)
        return True
    return False


def _refused_by_residual(identity_id, name):
    base = suites._couplings_for(suites.SuiteConfig(), name)[0]
    cc = suites._identity_couplings(identity_id, base)
    try:
        identity_residual(identity_id, build_algebra(name), 0, cc, grid=6)
    except IdentityError as exc:
        assert str(exc).endswith(f"got {name}")
        return True
    return False


@pytest.mark.parametrize("identity_id", suites.IDENTITY_IDS)
def test_config_and_residual_refuse_the_same_algebras(identity_id):
    covered = actions.IDENTITY_ALGEBRAS[identity_id]
    for name in ALGEBRA_NAMES:
        by_config = _refused_by_config(identity_id, name)
        assert by_config == _refused_by_residual(identity_id, name), name
        assert by_config == (name not in covered), name


def test_identity_ids_are_the_table():
    assert suites.IDENTITY_IDS == tuple(actions.IDENTITY_ALGEBRAS)
    assert suites.EXACT_3D_IDENTITIES is actions.EXACT_3D_IDENTITIES


def test_4d_identity_suites_run_exactly_the_configured_algebras(
        tmp_path, capsys):
    for identity_id in ("QUARTIC_ZERO", "MM_EXPANSION"):
        rc = _verify(tmp_path, {"suites": [identity_id], "algebras": [],
                                "seeds": [0, 0]})
        assert rc == 1
        assert "ran no checks" in capsys.readouterr().err
        cfg = suites.SuiteConfig(suites=[identity_id], algebras=["so32"],
                                 seed_start=0, seed_end=0)
        results, ok = suites.run_suite(cfg)
        assert ok and {r.algebra for r in results} == {"so32"}
    # the named battery still falls back to both 4d algebras
    cfg = suites.SuiteConfig(suites=["mm_identities"], algebras=[],
                             seed_start=0, seed_end=0)
    results, ok = suites.run_suite(cfg)
    assert ok and len(results) == 12
    assert {r.algebra for r in results} == {"so41", "so32"}
    assert {r.check for r in results} == {"QUARTIC_ZERO", "MM_EXPANSION"}


def test_invariant_forms_built_once_per_algebra_object(monkeypatch):
    built = []
    real = actions.invariant_form
    monkeypatch.setattr(actions, "invariant_form",
                        lambda alg, c0, c1: built.append((alg.name, c0, c1))
                        or real(alg, c0, c1))
    cfg = suites.SuiteConfig(suites=["EINSTEIN_CS"], algebras=["so22"],
                             seed_start=0, seed_end=1)
    assert suites.run_suite(cfg)[1]
    first = list(built)
    assert first and len(first) == len(set(first))
    # a second run on the same algebra object builds no form again
    assert suites.run_suite(cfg)[1]
    assert built == first
    assert not hasattr(actions, "_RunScope")
    assert not hasattr(actions, "_scoped_form")


@pytest.mark.parametrize("doc,key", [
    ({"suites": "CS_NULL"}, "suites"),
    ({"algebras": "so31"}, "algebras"),
    ({"suites": ["CS_NULL", 3]}, "suites"),
    ({"algebras": {"so31": 1}}, "algebras"),
    ({"algebras": None}, "algebras"),
])
def test_config_lists_must_be_lists_of_names(tmp_path, capsys, doc, key):
    err = _one_line_usage_error(capsys, _verify(tmp_path, doc))
    assert f"{key} must be a list of names" in err


def _holonomy(tmp_path, segment):
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"segments": [segment]}))
    return cli.main(["holonomy", "--model", "sphere", "--path", str(path),
                     "--steps", "10"]), path


def test_line_endpoints_of_different_lengths(tmp_path, capsys):
    rc, path = _holonomy(tmp_path, {"from": [0, 0], "to": [0.1]})
    assert "differ in length" in _one_line_usage_error(capsys, rc)
    with pytest.raises(CartanError, match="differ in length"):
        load_path(path)


@pytest.mark.parametrize("radius", [None, [1.0], {"r": 1}])
def test_arc_radius_must_be_a_number(tmp_path, capsys, radius):
    rc, path = _holonomy(tmp_path, {
        "type": "arc", "center": [0.0, 0.0], "radius": radius,
        "start_angle": 0.0, "end_angle": 1.0})
    assert "malformed path file" in _one_line_usage_error(capsys, rc)
    with pytest.raises(CartanError):
        load_path(path)
