"""Config values are checked as read, not coerced: a malformed couplings
table, a non-integer size or seed and a non-string or empty `out` are usage
errors (exit 2, one line on stderr); so is an arc center of the wrong
length."""

import json

import pytest

from cartanforms import actions, cli, suites
from cartanforms.actions import CouplingConstants


def _one_line_usage_error(capsys, rc, tmp_path):
    """The stderr line, without the file path (which holds the test name)."""
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    return err.replace(str(tmp_path), "")


def _verify(tmp_path, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    return cli.main(["verify", "--config", str(cfg)])


BAD_COUPLINGS = [
    {"so31": [[1]]},                 # shorter than (c0, c1)
    {"so31": [[1, 0, 0]]},           # mu = 0
    {"so31": [[1, 0, 5, 1, 9]]},     # a fifth entry
    {"bogus": [[1, 0]]},             # not an algebra
    {"so31": [[1, True]]},
    {"so31": [[None, 1]]},
    {"so31": 5},
    [[1, 0]],
    {"so31": [["1e100000", 1]]},     # not a "p/q" string
]


@pytest.mark.parametrize("couplings", BAD_COUPLINGS, ids=str)
def test_bad_couplings_are_usage_errors(tmp_path, capsys, couplings):
    rc = _verify(tmp_path, {"suites": ["CS_NULL"], "algebras": ["so31"],
                            "seeds": [0, 0], "couplings": couplings})
    assert "couplings" in _one_line_usage_error(capsys, rc, tmp_path)


@pytest.mark.parametrize("couplings", BAD_COUPLINGS, ids=str)
def test_validate_config_refuses_bad_couplings(couplings):
    good = suites.SuiteConfig(couplings={"so31": [[1, 0], [2, 3, 5],
                                                  [0.5, "2/3", "7/2", 3]]})
    suites.validate_config(good)
    assert suites._couplings_for(good, "so31")[2] == CouplingConstants(
        c0="1/2", c1="2/3", mu="7/2", gamma=3)
    with pytest.raises(suites.SuiteConfigError, match="couplings"):
        suites.validate_config(suites.SuiteConfig(couplings=couplings))


@pytest.mark.parametrize("rows", [[], {}], ids=str)
def test_empty_coupling_rows_are_usage_errors(tmp_path, capsys, rows):
    """An empty row list would drop so31 from every battery of the run,
    though it is configured."""
    rc = _verify(tmp_path, {"couplings": {"so31": rows}})
    err = _one_line_usage_error(capsys, rc, tmp_path)
    assert "couplings for 'so31'" in err
    with pytest.raises(suites.SuiteConfigError, match="'so31'"):
        suites.validate_config(suites.SuiteConfig(couplings={"so31": rows}))


@pytest.mark.parametrize("key, value", [
    ("cutoff", 1.7), ("cutoff", True), ("grid", True), ("grid", 12.0),
    ("seeds", [0, 1.9]), ("seeds", [False, 2]), ("seeds", ["0", 2]),
    ("seeds", 3), ("out", 5), ("out", ["r.json"]), ("out", ""),
    ("couplings", []), ("couplings", ""), ("couplings", 0),
    ("couplings", False),
])
def test_config_scalars_are_not_coerced(tmp_path, capsys, key, value):
    rc = _verify(tmp_path, {"suites": ["CS_NULL"], "algebras": ["so31"],
                            key: value})
    assert key in _one_line_usage_error(capsys, rc, tmp_path)


def test_validate_config_refuses_a_bool_size():
    with pytest.raises(suites.SuiteConfigError, match="grid"):
        suites.validate_config(suites.SuiteConfig(grid=True))
    with pytest.raises(suites.SuiteConfigError, match="seeds"):
        suites.validate_config(suites.SuiteConfig(seed_end=2.0))


def test_arc_center_shorter_than_its_plane(tmp_path, capsys):
    path = tmp_path / "arc.json"
    path.write_text(json.dumps({"segments": [{
        "type": "arc", "center": [0], "radius": 0.5, "plane": [0, 1],
        "start_angle": 0.0, "end_angle": 3.0}]}))
    rc = cli.main(["holonomy", "--model", "sphere", "--path", str(path),
                   "--steps", "10"])
    assert "center" in _one_line_usage_error(capsys, rc, tmp_path)


def test_suites_take_the_algebra_lists_from_actions():
    assert suites._3D is actions._3D_ALGEBRAS
    assert suites._4D is actions._4D_ALGEBRAS
