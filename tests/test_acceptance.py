"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
pass/fail lines.
"""

import dataclasses
import json
import math
import pathlib
import time
from fractions import Fraction

import numpy as np

from cartanforms import cli, suites
from cartanforms.algebra import (
    build_algebra,
    invariant_form,
    invariant_form_space,
)
from cartanforms.calculus import LieForm, random_form
from cartanforms.cartan import (
    Path,
    holonomy,
    maurer_cartan_flatness,
    sphere_spin_connection,
)
from cartanforms.actions import (
    CouplingConstants,
    analytic_coframe,
    cs_variation,
    identity_residual,
    levi_civita_connection,
    topological_terms,
    topological_variation_check,
)

from tmg_refinement import tmg_refinement_report

GOLDEN = pathlib.Path(__file__).parent / "golden"


def report(num, label):
    print(f"\n[acceptance] criterion {num} PASS: {label}")


# ---------------------------------------------------------------------------
# 1. graded-calculus identity suite
# ---------------------------------------------------------------------------

def test_criterion_1_forms_identity_suite():
    t0 = time.perf_counter()
    cfg = suites.SuiteConfig(suites=["appendix_forms"],
                             algebras=["so22", "so41"])
    cfg.seed_start, cfg.seed_end = 0, 199
    results = suites.run_appendix_forms(cfg)
    elapsed = time.perf_counter() - t0
    by_check = {}
    for r in results:
        by_check.setdefault((r.check, r.algebra), []).append(r.passed)
    # every identity runs on all 200 seeds on both tori
    for (check, algebra), rows in by_check.items():
        assert len(rows) == 200, (check, algebra, len(rows))
        assert all(rows), (check, algebra)
    assert len({c for c, _ in by_check}) == 8
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s target"
    report(1, f"8 identities x 200 seeds x (T^3 K=2, T^4 K=1), exact zeros, "
              f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. star and involution suite
# ---------------------------------------------------------------------------

def test_criterion_2_star_suite():
    assert build_algebra("so4").star_square == 1
    assert build_algebra("so22").star_square == 1
    assert build_algebra("so31").star_square == -1
    cfg = suites.SuiteConfig(algebras=["so31", "so22", "so4", "iso21", "iso3"])
    results = suites.run_appendix_star(cfg, random_pairs=100)
    assert results and all(r.passed for r in results)
    checks = {r.check for r in results}
    assert {"star_square_sign", "star_bracket_compat", "star_trace_symmetry",
            "covariant_d_commutes_star", "selfdual_split",
            "involution_trace_identities"} <= checks
    report(2, f"{len(results)} exact star/involution checks over 5 algebras")


# ---------------------------------------------------------------------------
# 3. invariant-form space dimensions
# ---------------------------------------------------------------------------

def test_criterion_3_invariant_form_lemma():
    t0 = time.perf_counter()
    for name in ("so4", "so31", "so22", "iso3", "iso21"):
        assert len(invariant_form_space(build_algebra(name))) == 2, name
    assert len(invariant_form_space(build_algebra("so41"))) == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(3, f"invariance nullspace dims (2,2,2,2,2) and so41 dim 1, "
              f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 4. Chern-Simons splitting identities
# ---------------------------------------------------------------------------

def test_criterion_4_cs_identities():
    t0 = time.perf_counter()
    cfg = suites.default_config()          # 5 identities x 3 algebras
    assert cfg.seed_start == 0 and cfg.seed_end == 19
    results, ok = suites.run_suite(cfg)
    elapsed = time.perf_counter() - t0
    assert ok
    assert all(r.residual == "0" for r in results)
    # 5 identities x 3 algebras x 3 couplings x 20 seeds
    assert len(results) == 5 * 3 * 3 * 20
    # the battery includes one degenerate form per algebra
    for name, pair in (("so31", ("0", "0")), ("iso21", ("1", "0")),
                       ("so22", ("1", "1"))):
        alg = build_algebra(name)
        c0, c1 = Fraction(pair[0]), Fraction(pair[1])
        assert invariant_form(alg, c0, c1).degenerate
        assert any(r.algebra == name and r.couplings["c0"] == pair[0]
                   and r.couplings["c1"] == pair[1] for r in results
                   if r.check in ("EINSTEIN_CS", "TWO_CS_SUM", "TWO_CS_DIFF"))
    assert elapsed < 120.0
    report(4, f"{len(results)} exact splitting residuals incl. degenerate "
              f"forms, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. 4d expansion suite
# ---------------------------------------------------------------------------

def test_criterion_5_mm_suite():
    for name in ("so41", "so32"):
        alg = build_algebra(name)
        for seed in range(20):
            rep = identity_residual("QUARTIC_ZERO", alg, seed)
            assert rep.residual == 0, (name, seed)
            rep = identity_residual("MM_EXPANSION", alg, seed,
                                    CouplingConstants(c0=1, c1=Fraction(1, 3)))
            assert rep.residual == 0, (name, seed)
    zeros = 0
    for name in ("so41", "so32"):
        alg = build_algebra(name)
        for seed in range(25):
            w = random_form(seed, 1, alg, dim=4, support="h", density=0.4)
            t1, t2 = topological_terms(w)
            assert t1 == 0 and t2 == 0
            zeros += 1
    alg = build_algebra("so41")
    for seed in range(5):
        w = random_form(seed, 1, alg, dim=4, support="h", density=0.4)
        d = random_form(seed + 31, 1, alg, dim=4, support="h", density=0.4)
        rep = topological_variation_check(w, d)
        assert abs(float(rep["d_tr_RR"])) < 1e-8
        assert abs(float(rep["d_tr_RstarR"])) < 1e-8
    report(5, f"quartic + expansion zeros (20 seeds x 2 algebras), "
              f"{zeros} topological integrals exactly 0, variations < 1e-8")


# ---------------------------------------------------------------------------
# 6. variational gradient checks
# ---------------------------------------------------------------------------

def test_criterion_6_variational_checks():
    alg = build_algebra("so31")
    form = invariant_form(alg, 2, 3)
    for seed in range(10):
        a = random_form(seed, 1, alg)
        for direction in range(10):
            da = random_form(1000 + 97 * seed + direction, 1, alg)
            exact, fd = cs_variation(a, da, form)
            rel = abs(float(exact - fd)) / max(1.0, abs(float(exact)))
            assert rel < 1e-6, (seed, direction, rel)
    # flat connections are stationary points, exactly
    iso21 = build_algebra("iso21")
    from cartanforms.calculus import TrigPoly
    flat = LieForm(iso21, 3, 1,
                   {(iso21.p_indices[i], (i,)): TrigPoly.constant(3, 1)
                    for i in range(3)})
    for direction in range(10):
        da = random_form(direction, 1, iso21)
        exact, _ = cs_variation(flat, da, invariant_form(iso21, 1, 2))
        assert exact == 0
    report(6, "exact vs central-difference within 1e-6 (10 seeds x 10 "
              "directions); flat connection exactly stationary")


# ---------------------------------------------------------------------------
# 7. TMG suite
# ---------------------------------------------------------------------------

def test_criterion_7_tmg_suite():
    rng = np.random.default_rng(123)
    for name in ("so31", "so22"):
        alg = build_algebra(name)
        e = analytic_coframe(alg, seed=1)
        lc = levi_civita_connection(e)
        probes = rng.uniform(0.0, 2.0 * math.pi, size=(100, 3))
        res = lc.torsion_residual(probes)
        assert res < 1e-7, (name, res)
        rep = identity_residual("CS_TMG", alg, 1, CouplingConstants(mu=5),
                                grid=24)
        assert rep.passed and rep.residual < 1e-8, (name, rep.residual)
        rep2 = identity_residual("TWO_CS_TMG", alg, 1,
                                 CouplingConstants(c0=2, mu=5), grid=24)
        assert rep2.passed and rep2.residual < 1e-8, (name, rep2.residual)
        refine = tmg_refinement_report(e, Fraction(5), grids=(4, 8),
                                       reference_grid=48)
        errs = [row["error"] for row in refine["rows"]]
        assert errs[1] <= errs[0] / 2, (name, errs)
    report(7, "torsion residual < 1e-7; CS/TMG identities < 1e-8 relative; "
              "refinement error at least halves")


# ---------------------------------------------------------------------------
# 8. model charts and holonomy
# ---------------------------------------------------------------------------

def test_criterion_8_models_and_holonomy():
    flat_norms = {}
    for name in ("so31", "iso21", "so22"):
        rep = maurer_cartan_flatness(build_algebra(name), box=0.15,
                                     grid_points=3)
        flat_norms[name] = rep["max_curvature_norm"]
        assert rep["max_curvature_norm"] < 1e-9, (name, rep)
    for name in ("so41", "so32"):
        rep = maurer_cartan_flatness(build_algebra(name), box=0.12,
                                     grid_points=2)
        flat_norms[name] = rep["max_curvature_norm"]
        assert rep["max_curvature_norm"] < 1e-9, (name, rep)

    loop = Path.square_loop(0.2)
    model = sphere_spin_connection()
    res = holonomy(model, loop, 2000)
    angle = res.rotation_angle()
    assert abs(angle - 0.04) < 1e-4
    assert res.drift < 1e-9
    ref = holonomy(model, loop, 16000).rotation_angle()
    errs = [abs(holonomy(model, loop, n).rotation_angle() - ref)
            for n in (100, 200, 400)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert all(o >= 2.0 - 0.1 for o in orders), (errs, orders)
    worst = max(flat_norms.values())
    report(8, f"5 model charts flat below 1e-9 (max {worst:.2e}); square-loop "
              f"angle {angle:.6f} within 1e-4 of 0.04; order {min(orders):.2f}")


# ---------------------------------------------------------------------------
# 9. CLI determinism, golden file, fault injection
# ---------------------------------------------------------------------------

def test_criterion_9_cli(tmp_path, monkeypatch, capsys):
    outs = []
    for i in range(2):
        out = tmp_path / f"default{i}.json"
        rc = cli.main(["verify", "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert doc["summary"]["failed"] == 0
    assert all(r["residual"] == "0" for r in doc["results"])

    cfg = suites.SuiteConfig(suites=["EINSTEIN_CS", "TWO_CS_SUM"],
                             algebras=["so31", "iso21"])
    cfg.seed_start, cfg.seed_end = 0, 1
    results, ok = suites.run_suite(cfg)
    assert ok
    assert suites.emit_report(results, cfg) == (GOLDEN / "report_small.json").read_text()

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
    monkeypatch.setattr(suites, "algebra_factory",
                        lambda name: corrupted if name == "so31"
                        else build_algebra(name))
    rc = cli.main(["verify", "--seeds", "0..4"])
    assert rc == 1
    assert "FAILED" in capsys.readouterr().err
    monkeypatch.undo()
    report(9, "default verify exits 0 with byte-identical reports; golden "
              "file matches; corrupted structure constant fails with exit 1")
