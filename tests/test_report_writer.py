"""`emit_report` writes the report row by row; its text must be the text of
the row-dict document through `json.dumps(doc, indent=2, sort_keys=True)`
plus a newline, byte for byte, with and without timings.  The reference
below is that row-dict writer, kept only here."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cartanforms import suites
from cartanforms.algebra import build_algebra
from cartanforms.suites import CheckResult, SuiteConfig

from test_field_sets import corrupted_so31


def reference_report(results, cfg, timings=False):
    """The report as one dict per row, through the indenting encoder."""
    rows = []
    for r in results:
        row = {
            "suite": r.suite,
            "check": r.check,
            "algebra": r.algebra,
            "seed": r.seed,
            "couplings": r.couplings,
            "residual": r.residual,
            "passed": r.passed,
            "inputs_digest": r.inputs_digest,
        }
        if timings:
            row["wall_time_ms"] = round(r.wall_time_ms, 3)
        rows.append(row)
    doc = {
        "schema": 1,
        "config": {
            "suites": list(cfg.suites),
            "algebras": list(cfg.algebras),
            "seeds": [cfg.seed_start, cfg.seed_end],
            "cutoff": cfg.cutoff,
            "grid": cfg.grid,
        },
        "results": rows,
        "summary": {
            "total": len(rows),
            "passed": sum(r.passed for r in results),
            "failed": sum(not r.passed for r in results),
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def assert_same_report(results, cfg):
    for timings in (False, True):
        assert (suites.emit_report(results, cfg, timings=timings)
                == reference_report(results, cfg, timings=timings))


def test_default_battery():
    cfg = suites.default_config()
    results, ok = suites.run_suite(cfg)
    assert ok and len(results) == 900
    assert_same_report(results, cfg)


# one small run of each named battery: rows with seed and couplings null
# (appendix_*, invariant_forms) and ".6e" numeric residuals (tmg_identities)
NAMED = [
    ("appendix_forms", ["so31", "so41"]),
    ("appendix_star", ["so22"]),
    ("invariant_forms", ["so31", "iso21", "so41"]),
    ("mm_identities", ["so41"]),
    ("tmg_identities", ["so31"]),
]


@pytest.mark.parametrize("suite,algebras", NAMED, ids=[s for s, _ in NAMED])
def test_named_battery(suite, algebras):
    cfg = SuiteConfig(suites=[suite], algebras=algebras, seed_start=0,
                      seed_end=0, grid=8)
    results, _ = suites.run_suite(cfg)
    assert results
    if suite == "tmg_identities":
        assert all("e" in r.residual for r in results)
    elif suite != "mm_identities":
        assert all(r.seed is None or r.couplings is None for r in results)
    assert_same_report(results, cfg)


def test_failing_rows_of_a_corrupted_algebra(monkeypatch):
    bad = corrupted_so31()
    monkeypatch.setattr(suites, "algebra_factory",
                        lambda name: bad if name == "so31"
                        else build_algebra(name))
    cfg = SuiteConfig(algebras=["so31", "iso21"], seed_start=0, seed_end=4)
    results, ok = suites.run_suite(cfg)
    assert not ok and any(r.passed for r in results)
    assert_same_report(results, cfg)
    doc = json.loads(suites.emit_report(results, cfg))
    assert doc["summary"]["failed"] == sum(not r.passed for r in results) > 0


def test_empty_result_list():
    cfg = SuiteConfig(suites=[], algebras=[])
    assert_same_report([], cfg)
    assert '"results": [],' in suites.emit_report([], cfg)


def _row(**fields):
    base = dict(suite="CS_NULL", check="CS_NULL", algebra="so31", seed=0,
                couplings=None, residual="0", passed=True,
                inputs_digest="CS_NULL/so31/seed=0", wall_time_ms=0.0)
    base.update(fields)
    return CheckResult(**base)


ESCAPED = ['quote " inside', "back\\slash", "control \x01\x1f\x7f",
           "new\nline\ttab\r", "non-ascii é ∧ ω", "astral \U0001d530", ""]


def test_strings_that_need_escaping():
    results = [
        _row(suite=s, check=s[::-1], algebra=s.upper(), residual=s,
             inputs_digest=f"{s}/seed=0", passed=i % 2 == 0,
             seed=None if i % 3 == 0 else i - 3,
             couplings={s: s, "c0": None, "\\": "x"},
             wall_time_ms=1234.56789 * i)
        for i, s in enumerate(ESCAPED)
    ]
    cfg = SuiteConfig(suites=ESCAPED[:2], algebras=["so31"])
    assert_same_report(results, cfg)
    assert "\\u00e9" in suites.emit_report(results, cfg)


def test_couplings_equal_as_values_but_not_as_json():
    # 1 == 1.0 == True and 0.0 == -0.0, but json writes each differently;
    # a couplings block is reused only for a dict that writes the same
    cplgs = [{"c0": 1}, {"c0": 1.0}, {"c0": True}, {"c0": 0.0},
             {"c0": -0.0}, {"c0": 1}, {}, None, {"c1": "2", "c0": "1"},
             {"c0": "1", "c1": "2"}, {"c0": [1, {"b": None, "a": 2.5}]},
             {"c0": str(Fraction(-1, 3))}]
    results = [_row(couplings=c, seed=i) for i, c in enumerate(cplgs)]
    assert_same_report(results, SuiteConfig())


@pytest.mark.parametrize("ms", [0.0, 0.0004, 0.0005, 1.0, 2.5e-3, 1 / 3,
                                12345.6789, 1e17, 7])
def test_wall_times(ms):
    assert_same_report([_row(wall_time_ms=ms)], SuiteConfig())


json_text = st.text(max_size=12)
json_scalar = st.none() | st.booleans() | st.integers() | json_text \
    | st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=150)
@given(st.lists(st.builds(
    CheckResult, suite=json_text, check=json_text, algebra=json_text,
    seed=st.none() | st.integers(),
    couplings=st.none() | st.dictionaries(json_text, json_scalar, max_size=4),
    residual=json_text, passed=st.booleans(), inputs_digest=json_text,
    wall_time_ms=st.floats(min_value=0, max_value=1e9)), max_size=5))
def test_random_rows(results):
    assert_same_report(results, SuiteConfig())
