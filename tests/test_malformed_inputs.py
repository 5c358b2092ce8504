"""Field and path files of the wrong shape are usage errors: the library
raises its package error and the CLI exits 2 with one line on stderr."""

import json

import pytest

from cartanforms import cli
from cartanforms.algebra import build_algebra
from cartanforms.calculus import CalculusError, load_fields, random_form, \
    save_fields
from cartanforms.cartan import CartanError, load_path


def _valid_field_doc(tmp_path):
    alg = build_algebra("so31")
    f = tmp_path / "valid.json"
    save_fields(f, alg, {"A": random_form(0, 1, alg)})
    return json.loads(f.read_text())


def _top_level_list(doc):
    return []


def _null_re(doc):
    doc["forms"][0]["components"][0]["coeffs"][0]["re"] = None
    return doc


def _null_torus_dim(doc):
    doc["torus_dim"] = None
    return doc


def _components_not_a_list(doc):
    doc["forms"][0]["components"] = 5
    return doc


def _missing_forms(doc):
    del doc["forms"]
    return doc


FIELD_BREAKS = [_top_level_list, _null_re, _null_torus_dim,
                _components_not_a_list, _missing_forms]
PATH_DOCS = [[], {"segments": [5]}, {"segments": 5}, {"segments": [{}]}]


def _one_line_usage_error(capsys, rc):
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("brk", FIELD_BREAKS, ids=lambda b: b.__name__[1:])
def test_malformed_field_file(tmp_path, capsys, brk):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(brk(_valid_field_doc(tmp_path))))
    with pytest.raises(CalculusError, match="malformed field file"):
        load_fields(f)
    rc = cli.main(["eval", "--fields", str(f), "--action", "cs"])
    _one_line_usage_error(capsys, rc)


@pytest.mark.parametrize("doc", PATH_DOCS, ids=json.dumps)
def test_malformed_path_file(tmp_path, capsys, doc):
    f = tmp_path / "bad_path.json"
    f.write_text(json.dumps(doc))
    with pytest.raises(CartanError, match="malformed path file"):
        load_path(f)
    rc = cli.main(["holonomy", "--model", "sphere", "--path", str(f),
                   "--steps", "10"])
    _one_line_usage_error(capsys, rc)
