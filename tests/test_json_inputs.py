"""Every input file is read by one loader with one set of number checks.

Config, field and path files all go through `calculus._load_json`: a key
that repeats in one JSON object is refused, not read over, and nesting too
deep for the parser is a usage error (exit 2, one line), not a traceback.
A JSON float that stands for a rational reads through its shortest repr,
so 0.1 is 1/10 in a field file and in a config's couplings alike.
"""

import ast
import json
import pathlib
from fractions import Fraction

import pytest

from cartanforms import cli, suites
from cartanforms.actions import CouplingConstants, analytic_coframe
from cartanforms.algebra import build_algebra
from cartanforms.calculus import load_fields, random_form, save_fields
from cartanforms.cartan import load_path

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cartanforms"


def _field_text(tmp_path):
    alg = build_algebra("so31")
    f = tmp_path / "valid.json"
    save_fields(f, alg, {"A": random_form(0, 1, alg)})
    return f.read_text()


# the three commands and how each names its input file in a refusal
def _verify(path):
    return ["verify", "--config", str(path)], "config error: cannot read config "


def _eval(path):
    return (["eval", "--fields", str(path), "--action", "cs"],
            "cannot read field file: ")


def _holonomy(path):
    return (["holonomy", "--model", "sphere", "--path", str(path),
             "--steps", "10"], "cannot read path file: ")


COMMANDS = [_verify, _eval, _holonomy]


def _usage_error(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    return lines[0]


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c.__name__[1:])
def test_deep_nesting_is_a_usage_error(tmp_path, capsys, command):
    f = tmp_path / "deep.json"
    f.write_text("[" * 100000 + "]" * 100000)
    argv, prefix = command(f)
    line = _usage_error(capsys, argv)
    assert line.startswith(prefix) and line.endswith("the JSON nests too deeply")


# (command, file text, the repeated key)
REPEATS = [
    (_verify, lambda tmp: '{"grid": 12, "grid": 13}', "grid"),
    (_eval, lambda tmp: _field_text(tmp).replace('"re": ', '"re": "7", "re": ',
                                                 1), "re"),
    (_holonomy, lambda tmp: '{"segments": [{"from": [0.0, 0.0], '
                            '"to": [0.1, 0.0], "to": [0.2, 0.0]}]}', "to"),
]


@pytest.mark.parametrize("command,text,key", REPEATS,
                         ids=[c.__name__[1:] for c, _, _ in REPEATS])
def test_a_repeated_key_is_refused(tmp_path, capsys, command, text, key):
    f = tmp_path / "repeats.json"
    f.write_text(text(tmp_path))
    argv, prefix = command(f)
    line = _usage_error(capsys, argv)
    assert line.startswith(prefix)
    assert line.endswith(f"key {key!r} repeats in one JSON object")


def test_the_library_loaders_refuse_a_repeated_key(tmp_path):
    f = tmp_path / "repeats.json"
    f.write_text('{"segments": [], "segments": []}')
    for load in (load_fields, load_path):
        with pytest.raises(ValueError, match="'segments' repeats"):
            load(f)
    f.write_text('{"seeds": [0, 1], "seeds": [0, 2]}')
    with pytest.raises(suites.SuiteConfigError, match="'seeds' repeats"):
        suites.load_config(f)


def test_a_float_reads_through_its_shortest_repr(tmp_path):
    f = tmp_path / "fields.json"
    f.write_text(json.dumps({
        "schema": 1, "torus_dim": 3, "algebra": "so31", "forms": [{
            "name": "A", "degree": 1, "components": [{
                "lie_index": 0, "multi_index": [0], "coeffs": [
                    {"k": [0, 0, 1], "re": 0.1, "im": -2.5e-3},
                    {"k": [0, 0, -1], "re": 0.1, "im": 2.5e-3}]}]}]}))
    _, forms = load_fields(f)
    coeffs = forms["A"].comps[(0, (0,))].fraction_coeffs()
    assert coeffs[(0, 0, 1)] == (Fraction(1, 10), Fraction(-1, 400))
    cfg = suites.SuiteConfig(couplings={"so31": [[0.1, "1/3", 2.5e-3]]})
    suites.validate_config(cfg)
    assert suites._couplings_for(cfg, "so31") == [
        CouplingConstants(Fraction(1, 10), Fraction(1, 3), Fraction(1, 400))]


@pytest.mark.parametrize("row,message", [
    ([1, True], "row 0: c1 must be a finite rational, got True"),
    (["1/0", 1], "row 0: c0 must be a finite rational, got '1/0'"),
    ([1, 1, float("nan")], "row 0: mu must be a finite rational, got nan"),
    ([1, 1, 5, float("inf")], "row 0: gamma must be a finite rational, "
                              "got inf"),
    ([1, None], "row 0: c1 must be a finite rational, got None"),
], ids=["bool", "divides_by_zero", "nan", "inf", "null_c1"])
def test_coupling_refusals_name_the_entry(tmp_path, capsys, row, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": ["CS_NULL"], "algebras": ["so31"],
                               "couplings": {"so31": [row]}}))
    line = _usage_error(capsys, ["verify", "--config", str(cfg)])
    assert line == f"config error: couplings for 'so31', {message}"


@pytest.mark.parametrize("action,forms,message", [
    ("cs", ["e"], "action cs needs a form named 'A'"),
    ("tmg", ["e"], "action tmg needs --mu"),
    ("tmg", ["A"], "action tmg needs a form named 'e'"),
    ("palatini", ["e"], "action palatini needs forms named 'omega' and 'e'"),
], ids=["cs_without_A", "tmg_without_mu", "tmg_without_e",
        "palatini_without_omega"])
def test_eval_usage_errors_print_without_quotes(tmp_path, capsys, action,
                                                forms, message):
    alg = build_algebra("so31")
    f = tmp_path / "fields.json"
    save_fields(f, alg, {name: analytic_coframe(alg) for name in forms})
    line = _usage_error(capsys, ["eval", "--fields", str(f),
                                 "--action", action])
    assert line == f"error: {message}"


def _json_parses(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
            and isinstance(node.value, ast.Name) and node.value.id == "json"]


def test_json_is_parsed_only_by_the_one_loader():
    """json.load and json.loads appear in src only inside
    calculus._load_json, so no input file bypasses its checks."""
    counts, loader = {}, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        counts[path.name] = len(_json_parses(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                assert not {a.name for a in node.names} & {"load", "loads"}
            if isinstance(node, ast.FunctionDef) and node.name == "_load_json":
                loader.append((path.name, len(_json_parses(node))))
    assert loader == [("calculus.py", 1)]
    assert {name: n for name, n in counts.items() if n} == {"calculus.py": 1}
