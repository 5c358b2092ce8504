"""CLI inputs: the reason a TMG coframe is refused, negative p/q flag
values, and unreadable path files.

- A coframe with stabilizer values, one on T^4, or a translation-valued
  form of degree 0 or 2 is refused for what it is, before the 16^3
  nondegeneracy scan can call it degenerate; `coframe_check` refuses the
  same forms on T^3.
- `--c0`, `--c1`, `--mu` and `--gamma` take `-p/q` as a separate word, as
  they take `-1` and `--mu=-1/2`.
- A path file that cannot be read or parsed is named as the path file.
- A report path that cannot be written (a directory, a path under a
  regular file, or $CARTANFORMS_OUT_DIR naming a file) is named, and an
  empty `--out` is refused; `verify` refuses it before any check runs.
Each refusal exits 2 with one line.
"""

import json
from fractions import Fraction

import pytest

from cartanforms import cli, suites
from cartanforms.actions import analytic_coframe, levi_civita_connection, \
    tmg_action
from cartanforms.algebra import build_algebra
from cartanforms.calculus import random_form, save_fields
from cartanforms.cartan import CartanError, coframe_check

# (algebra, support and degree of a random form, the refusal)
BAD_COFRAMES = [
    ("so31", "h", 1, "coframe must be translation-valued"),
    ("so31", "full", 1, "coframe must be translation-valued"),
    ("so41", "p", 1, r"torsion-free solve implemented on T\^3"),
    ("so31", "p", 0, "a coframe is a 1-form, got a 0-form"),
    ("so31", "p", 2, "a coframe is a 1-form, got a 2-form"),
]


def _ids(cases):
    return [f"{n}-{s}" + ("" if d == 1 else f"-degree{d}")
            for n, s, d, _ in cases]


def _one_line(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    return err


@pytest.mark.parametrize("name,support,degree,reason", BAD_COFRAMES,
                         ids=_ids(BAD_COFRAMES))
def test_tmg_refuses_coframe_for_its_values_or_torus(tmp_path, capsys, name,
                                                     support, degree, reason):
    alg = build_algebra(name)
    e = random_form(1, degree, alg, support=support)
    with pytest.raises(CartanError, match=reason):
        levi_civita_connection(e)
    with pytest.raises(CartanError, match=reason):
        tmg_action(e, 5, grid=8)
    f = tmp_path / "e.json"
    save_fields(f, alg, {"e": e})
    rc = cli.main(["eval", "--fields", str(f), "--action", "tmg",
                   "--mu", "5"])
    err = _one_line(capsys)
    assert rc == 2
    assert reason.replace("\\", "") in err and "degenerate" not in err


# so41's coframes live on T^4, which coframe_check scans
ON_T3 = [case for case in BAD_COFRAMES if case[0] == "so31"]


@pytest.mark.parametrize("name,support,degree,reason", ON_T3, ids=_ids(ON_T3))
def test_coframe_check_refuses_what_the_solve_refuses(name, support, degree,
                                                      reason):
    e = random_form(1, degree, build_algebra(name), support=support)
    with pytest.raises(CartanError, match=reason):
        coframe_check(e)


FLAGS = ["--c0", "--c1", "--mu", "--gamma"]


@pytest.mark.parametrize("flag", FLAGS)
@pytest.mark.parametrize("words,value", [
    (["-1/2"], Fraction(-1, 2)),
    (["-3"], Fraction(-3)),
    (["=-7/4"], Fraction(-7, 4)),
    (["+5/3"], Fraction(5, 3)),
], ids=["minus-p-over-q", "minus-int", "equals-minus-p-over-q", "plus"])
def test_rational_flags_take_negative_values(flag, words, value):
    if words[0].startswith("="):
        argv = [flag + words[0]]
    else:
        argv = [flag] + words
    args = cli.build_parser().parse_args(
        ["eval", "--fields", "f.json", "--action", "tmg"] + argv)
    assert getattr(args, flag[2:]) == value


@pytest.mark.parametrize("text", ["-1/2/3", "-0.5", "-1e3", "-x"])
def test_rational_flags_still_refuse_non_rationals(text, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(
            ["eval", "--fields", "f.json", "--action", "tmg", "--mu", text])
    assert exc.value.code == 2


def test_eval_with_negative_p_over_q_matches_equals_form(tmp_path, capsys):
    alg = build_algebra("so31")
    f = tmp_path / "e.json"
    save_fields(f, alg, {"e": analytic_coframe(alg, seed=0),
                         "A": random_form(2, 1, alg)})
    base = ["eval", "--fields", str(f), "--grid", "8"]
    outs = []
    for argv in (["--action", "tmg", "--mu", "-1/2"],
                 ["--action", "tmg", "--mu=-1/2"],
                 ["--action", "cs", "--c0", "-3/2", "--c1", "-1/4"],
                 ["--action", "cs", "--c0=-3/2", "--c1=-1/4"]):
        assert cli.main(base + argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and outs[2] == outs[3]
    expected = tmg_action(analytic_coframe(alg, seed=0), Fraction(-1, 2),
                          grid=8).numeric
    assert json.loads(outs[0].split("\n", 1)[1])["numeric"] == expected


@pytest.mark.parametrize("text", ["{not json", "", "\xff"])
def test_unreadable_path_file_is_named(tmp_path, capsys, text):
    f = tmp_path / "path.json"
    f.write_bytes(text.encode("latin-1"))
    rc = cli.main(["holonomy", "--model", "sphere", "--path", str(f),
                   "--steps", "10"])
    err = _one_line(capsys)
    assert rc == 2 and err.startswith("cannot read path file: ")


def test_missing_path_file_is_named(tmp_path, capsys):
    rc = cli.main(["holonomy", "--model", "sphere",
                   "--path", str(tmp_path / "missing.json"), "--steps", "10"])
    err = _one_line(capsys)
    assert rc == 2 and err.startswith("cannot read path file: ")
    assert "missing.json" in err


def _report_argv(command, tmp_path, out):
    if command == "verify":
        return ["verify", "--seeds", "0", "--out", out]
    alg = build_algebra("so31")
    f = tmp_path / "a.json"
    save_fields(f, alg, {"A": random_form(2, 1, alg)})
    return ["eval", "--fields", str(f), "--action", "cs", "--out", out]


@pytest.mark.parametrize("command", ["verify", "eval"])
@pytest.mark.parametrize("where", ["directory", "under-a-file", "out-dir-a-file"])
def test_unwritable_report_path_is_named(tmp_path, capsys, monkeypatch,
                                         command, where):
    (tmp_path / "plain").write_text("not a directory")
    if where == "directory":
        out = expected = str(tmp_path)
    elif where == "under-a-file":
        out = expected = str(tmp_path / "plain" / "report.json")
    else:
        monkeypatch.setenv("CARTANFORMS_OUT_DIR", str(tmp_path / "plain"))
        out = "report.json"
        expected = str(tmp_path / "plain" / "report.json")
    rc = cli.main(_report_argv(command, tmp_path, out))
    err = _one_line(capsys)
    assert rc == 2
    assert err.startswith(f"cannot write report to {expected}: ")
    assert (tmp_path / "plain").read_text() == "not a directory"


@pytest.mark.parametrize("where", ["directory", "under-a-file",
                                   "deep-under-a-file", "config-out"])
def test_report_path_is_refused_before_any_check(tmp_path, capsys,
                                                 monkeypatch, where):
    calls = []
    real = suites.identity_residual
    monkeypatch.setattr(suites, "identity_residual",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    (tmp_path / "plain").write_text("not a directory")
    out = {"directory": str(tmp_path),
           "under-a-file": str(tmp_path / "plain" / "report.json"),
           "deep-under-a-file": str(tmp_path / "plain" / "a" / "b.json"),
           "config-out": str(tmp_path / "plain" / "report.json")}[where]
    argv = ["verify", "--seeds", "0", "--out", out]
    if where == "config-out":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out": out}))
        argv = ["verify", "--seeds", "0", "--config", str(config)]
    before = sorted(p.name for p in tmp_path.iterdir())
    rc = cli.main(argv)
    err = _one_line(capsys)
    assert rc == 2 and err.startswith(f"cannot write report to {out}: ")
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert (tmp_path / "plain").read_text() == "not a directory"
    # the same battery with a writable path runs all of its checks
    assert cli.main(["verify", "--seeds", "0",
                     "--out", str(tmp_path / "ok.json")]) == 0
    assert len(calls) == 45


@pytest.mark.parametrize("command", ["verify", "eval"])
def test_empty_out_path_is_refused(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main(_report_argv(command, tmp_path, ""))
    assert exc.value.code == 2
    err = capsys.readouterr()
    assert err.out == "" and "--out: must be a non-empty path" in err.err
