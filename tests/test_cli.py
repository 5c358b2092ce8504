import dataclasses
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from cartanforms import cli, suites
from cartanforms.algebra import build_algebra
from cartanforms.calculus import LieForm, random_form, save_fields
from cartanforms.actions import analytic_coframe, cs_action
from cartanforms.algebra import invariant_form

GOLDEN = pathlib.Path(__file__).parent / "golden"


def small_config():
    cfg = suites.SuiteConfig()
    cfg.suites = ["EINSTEIN_CS", "TWO_CS_SUM"]
    cfg.algebras = ["so31", "iso21"]
    cfg.seed_start, cfg.seed_end = 0, 1
    return cfg


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_small_run_exits_zero(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = cli.main(["verify", "--seeds", "0..1", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert doc["summary"]["failed"] == 0
    assert all(r["residual"] == "0" for r in doc["results"])


def test_verify_report_is_byte_deterministic(tmp_path):
    outs = []
    for i in range(2):
        out = tmp_path / f"report{i}.json"
        rc = cli.main(["verify", "--seeds", "0..1", "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_verify_golden_report():
    cfg = small_config()
    results, ok = suites.run_suite(cfg)
    assert ok
    text = suites.emit_report(results, cfg)
    golden = (GOLDEN / "report_small.json").read_text()
    assert text == golden


def test_report_round_trips_unchanged():
    cfg = small_config()
    results, _ = suites.run_suite(cfg)
    text = suites.emit_report(results, cfg)
    doc = json.loads(text)
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == text


def test_failing_digest_reproduces():
    cfg = small_config()
    results, _ = suites.run_suite(cfg)
    for r in results:
        assert f"seed={r.seed}" in r.inputs_digest
        assert r.algebra in r.inputs_digest


def test_corrupted_structure_constant_fails_suite(monkeypatch, capsys):
    # damage the [M01, P0] bracket (antisymmetric pair so the corruption
    # survives wedge antisymmetrization)
    real = build_algebra("so31")
    structure = [[list(row) for row in plane] for plane in real.structure]
    structure[0][3][4] += 1
    structure[3][0][4] -= 1
    table = tuple(
        tuple(tuple((c, Fraction(coeff)) for c, coeff in enumerate(structure[a][b])
                    if coeff != 0) for b in range(real.dim))
        for a in range(real.dim))
    corrupted = dataclasses.replace(
        real,
        structure=tuple(tuple(tuple(row) for row in plane) for plane in structure),
        bracket_table=table)

    def factory(name):
        return corrupted if name == "so31" else build_algebra(name)

    monkeypatch.setattr(suites, "algebra_factory", factory)
    rc = cli.main(["verify", "--seeds", "0..4"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "FAILED" in err and "so31" in err


def test_verify_config_validation(tmp_path, capsys):
    cfg_file = tmp_path / "bad.json"
    cfg_file.write_text(json.dumps({"suites": ["CS_NULL"], "algebras": ["so41"]}))
    rc = cli.main(["verify", "--config", str(cfg_file)])
    assert rc == 2
    assert "3d gravity algebra" in capsys.readouterr().err


def test_verify_empty_suites(tmp_path):
    cfg_file = tmp_path / "empty.json"
    cfg_file.write_text(json.dumps({"suites": [], "algebras": ["so31"]}))
    out = tmp_path / "r.json"
    rc = cli.main(["verify", "--config", str(cfg_file), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["results"] == [] and doc["summary"]["total"] == 0


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("CARTANFORMS_OUT_DIR", str(tmp_path))
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"suites": ["EINSTEIN_CS"],
                                    "algebras": ["so31"], "seeds": [0, 0]}))
    rc = cli.main(["verify", "--config", str(cfg_file), "--out", "sub/report.json"])
    assert rc == 0
    assert (tmp_path / "sub" / "report.json").exists()


def test_verify_timings_flag(tmp_path):
    out = tmp_path / "t.json"
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"suites": ["EINSTEIN_CS"],
                                    "algebras": ["so31"], "seeds": [0, 0]}))
    rc = cli.main(["verify", "--config", str(cfg_file), "--timings",
                   "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert all("wall_time_ms" in r for r in doc["results"])


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_zero_field(tmp_path, capsys):
    alg = build_algebra("so31")
    f = tmp_path / "zero.json"
    save_fields(f, alg, {"A": LieForm.zero(alg, 3, 1)})
    rc = cli.main(["eval", "--fields", str(f), "--action", "cs"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("0 x (2pi)^3")


def test_eval_matches_library_bit_for_bit(tmp_path, capsys):
    alg = build_algebra("so22")
    a = random_form(6, 1, alg, cutoff=2)
    f = tmp_path / "a.json"
    save_fields(f, alg, {"A": a})
    rc = cli.main(["eval", "--fields", str(f), "--action", "cs",
                   "--c0", "2", "--c1", "3/2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    expected = cs_action(a, invariant_form(alg, 2, Fraction(3, 2)))
    assert doc["exact"] == str(expected.exact)
    assert doc["numeric"] == expected.numeric


def test_eval_tmg_grids_agree(tmp_path, capsys):
    alg = build_algebra("so31")
    e = analytic_coframe(alg, seed=1)
    f = tmp_path / "e.json"
    save_fields(f, alg, {"e": e})
    values = []
    for grid in (32, 64):
        rc = cli.main(["eval", "--fields", str(f), "--action", "tmg",
                       "--mu", "5", "--grid", str(grid)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out.split("\n", 1)[1])
        values.append(doc["numeric"])
    assert abs(values[0] - values[1]) / max(abs(values[1]), 1e-30) < 1e-8


def test_eval_shape_mismatch(tmp_path, capsys):
    alg = build_algebra("so31")
    f = tmp_path / "a.json"
    save_fields(f, alg, {"A": LieForm.zero(alg, 3, 1)})
    rc = cli.main(["eval", "--fields", str(f), "--action", "palatini"])
    assert rc == 2
    assert "omega" in capsys.readouterr().err


def test_eval_parse_failure(tmp_path, capsys):
    f = tmp_path / "junk.json"
    f.write_text("{not json")
    rc = cli.main(["eval", "--fields", str(f), "--action", "cs"])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


def test_eval_tmg_rejects_degenerate_coframe(tmp_path, capsys):
    alg = build_algebra("so31")
    f = tmp_path / "zero_e.json"
    save_fields(f, alg, {"e": LieForm.zero(alg, 3, 1)})
    rc = cli.main(["eval", "--fields", str(f), "--action", "tmg", "--mu", "5"])
    assert rc == 2
    assert "degenerate" in capsys.readouterr().err


def test_eval_rationals_are_p_over_q_and_overflow_is_a_usage_error(
        tmp_path, capsys):
    alg = build_algebra("so31")
    a = random_form(2, 1, alg)
    f = tmp_path / "a.json"
    save_fields(f, alg, {"A": a})
    assert cs_action(a, invariant_form(alg, 1, 0)).exact == Fraction(-11, 6)
    for text in ("1e400", "0.5", "1/2/3"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--fields", str(f), "--action", "cs",
                      "--c0", text])
        assert exc.value.code == 2
        assert "not a rational p/q" in capsys.readouterr().err
    # a 401-digit p is a rational, but S_CS = -11/6 p overflows a float
    rc = cli.main(["eval", "--fields", str(f), "--action", "cs",
                   "--c0", "1" + "0" * 400])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert "overflows" in err


def test_eval_mm_refuses_zero_immirzi_parameter(tmp_path, capsys):
    alg = build_algebra("so41")
    f = tmp_path / "mm.json"
    save_fields(f, alg, {"omega": LieForm.zero(alg, 4, 1),
                         "e": LieForm.zero(alg, 4, 1)})
    rc = cli.main(["eval", "--fields", str(f), "--action", "mm",
                   "--gamma", "0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert "gamma must be nonzero" in err
    rc = cli.main(["eval", "--fields", str(f), "--action", "mm",
                   "--gamma", "2"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("0 x (2pi)^4")


def test_eval_into_closed_pipe_exits_one_without_traceback(tmp_path):
    alg = build_algebra("so31")
    f = tmp_path / "e.json"
    save_fields(f, alg, {"e": analytic_coframe(alg, seed=0)})
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    read_end, write_end = os.pipe()
    os.close(read_end)          # the reader is gone before eval writes
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cartanforms.cli", "eval", "--fields", str(f),
             "--action", "tmg", "--mu", "5", "--grid", "8"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


# ---------------------------------------------------------------------------
# holonomy
# ---------------------------------------------------------------------------

def square_path_file(tmp_path):
    doc = {"segments": [
        {"type": "line", "from": [-0.1, -0.1], "to": [0.1, -0.1]},
        {"type": "line", "from": [0.1, -0.1], "to": [0.1, 0.1]},
        {"type": "line", "from": [0.1, 0.1], "to": [-0.1, 0.1]},
        {"type": "line", "from": [-0.1, 0.1], "to": [-0.1, -0.1]},
    ]}
    f = tmp_path / "square.json"
    f.write_text(json.dumps(doc))
    return f


def test_holonomy_empty_path(tmp_path, capsys):
    f = tmp_path / "empty.json"
    f.write_text(json.dumps({"segments": []}))
    rc = cli.main(["holonomy", "--model", "zero", "--path", str(f),
                   "--steps", "10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "drift" in out


def test_holonomy_square_loop_angle(tmp_path, capsys):
    f = square_path_file(tmp_path)
    rc = cli.main(["holonomy", "--model", "sphere", "--path", str(f),
                   "--steps", "10000"])
    assert rc == 0
    out = capsys.readouterr().out
    # cos(angle) sits in the top-left entry of the printed rotation
    cos_angle = float(out.strip().splitlines()[0].strip("[] ").split()[0])
    assert abs(np.arccos(cos_angle) - 0.04) < 1e-4
    assert "group drift" in out


def test_holonomy_zero_steps_usage_error(tmp_path, capsys):
    f = square_path_file(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["holonomy", "--model", "sphere", "--path", str(f),
                  "--steps", "0"])
    assert exc.value.code == 2


def test_holonomy_unknown_model(tmp_path, capsys):
    f = square_path_file(tmp_path)
    rc = cli.main(["holonomy", "--model", "nope", "--path", str(f),
                   "--steps", "10"])
    assert rc == 2
    assert "unknown model" in capsys.readouterr().err


def test_holonomy_prints_steps_used_and_requested(tmp_path, capsys):
    # four sides of 2.5 steps each round to 2: 8 used of 10 requested
    f = square_path_file(tmp_path)
    rc = cli.main(["holonomy", "--model", "sphere", "--path", str(f),
                   "--steps", "10"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert "steps: 8 (requested 10)" in lines
    # the used count stays the first token after "steps:"
    used = "\n".join(lines).partition("steps:")[2].split()[0]
    assert used == "8"
