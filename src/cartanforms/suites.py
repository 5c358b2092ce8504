"""Verification suites: named batteries of exact and numeric checks.

Each runner returns a list of CheckResult rows; the CLI assembles them into
a schema-stable JSON report.  Suites draw their algebras through the
module-level `algebra_factory` seam so fault-injection tests can substitute
corrupted descriptors.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import algebra as _alg_mod
from .algebra import (
    bracket,
    hodge_star,
    invariant_form,
    invariant_form_space,
    involution,
    killing_form,
    selfdual_split,
    star_form,
)
from .actions import (
    CouplingConstants,
    IDENTITY_IDS,
    NUMERIC_IDENTITIES,
    identity_residual,
    run_scope,
)
from .calculus import (
    beta_pair,
    covariant_d,
    exterior_d,
    integrate,
    lie_bracket_forms,
    random_form,
    random_scalar_form,
    _rng_for,
)
from . import exactla

# seam used by all suite runners; tests may monkeypatch this
def algebra_factory(name):
    return _alg_mod.build_algebra(name)


class SuiteConfigError(ValueError):
    pass


@dataclass
class CheckResult:
    suite: str
    check: str
    algebra: str
    seed: int | None
    couplings: dict | None
    residual: str
    passed: bool
    inputs_digest: str
    wall_time_ms: float = 0.0


@dataclass
class SuiteConfig:
    """Run request: which suites, where, and at what size."""

    suites: list = field(default_factory=lambda: list(EXACT_3D_IDENTITIES))
    algebras: list = field(default_factory=lambda: ["so31", "iso21", "so22"])
    seed_start: int = 0
    seed_end: int = 19
    couplings: dict | None = None   # algebra -> list of (c0, c1, mu, gamma)
    cutoff: int = 1
    grid: int = 24
    out: str | None = None

    def seeds(self):
        return range(self.seed_start, self.seed_end + 1)


EXACT_3D_IDENTITIES = ("CS_NULL", "CS_PERP", "EINSTEIN_CS", "TWO_CS_SUM",
                       "TWO_CS_DIFF")
SUITE_NAMES = ("appendix_forms", "appendix_star", "invariant_forms",
               "mm_identities", "tmg_identities") + IDENTITY_IDS

# one degenerate pair per algebra is part of the default battery
DEFAULT_COUPLINGS = {
    "so31": [(2, 3), (1, 2), (0, 0)],
    "iso21": [(2, 3), (1, 0), (0, 1)],
    "so22": [(2, 3), (1, 1), (1, 0)],
    "so4": [(2, 3), (1, 1), (1, 0)],
    "iso3": [(2, 3), (1, 0), (0, 1)],
    "so41": [(1, 1), (1, Fraction(1, 3)), (2, 0)],
    "so32": [(1, 1), (1, Fraction(1, 3)), (2, 0)],
}

_3D = ("so31", "iso21", "so22", "so4", "iso3")
_4D = ("so41", "so32")


def default_config():
    return SuiteConfig()


CONFIG_KEYS = ("suites", "algebras", "seeds", "couplings", "cutoff", "grid",
               "out")


def load_config(path):
    try:
        return _read_config(path)
    except SuiteConfigError:
        raise
    except (OSError, ValueError, TypeError, KeyError) as exc:
        raise SuiteConfigError(f"cannot read config {path}: {exc}") from exc


def _read_config(path):
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise SuiteConfigError(f"config {path} is not a JSON object")
    unknown = sorted(set(doc) - set(CONFIG_KEYS))
    if unknown:
        raise SuiteConfigError(f"unknown config key(s) {unknown} in {path}; "
                               f"known: {list(CONFIG_KEYS)}")
    cfg = SuiteConfig()
    if "suites" in doc:
        cfg.suites = list(doc["suites"])
    if "algebras" in doc:
        cfg.algebras = list(doc["algebras"])
    if "seeds" in doc:
        lo, hi = doc["seeds"]
        cfg.seed_start, cfg.seed_end = int(lo), int(hi)
    if "couplings" in doc:
        cfg.couplings = {k: [tuple(Fraction(str(x)) for x in row) for row in v]
                         for k, v in doc["couplings"].items()}
    cfg.cutoff = int(doc.get("cutoff", cfg.cutoff))
    cfg.grid = int(doc.get("grid", cfg.grid))
    cfg.out = doc.get("out", cfg.out)
    return cfg


def validate_config(cfg):
    if cfg.seed_end < cfg.seed_start:
        raise SuiteConfigError(
            f"empty seed range {cfg.seed_start}..{cfg.seed_end}")
    for key in ("cutoff", "grid"):
        value = getattr(cfg, key)
        if not isinstance(value, int) or value < 1:
            raise SuiteConfigError(
                f"{key} must be a positive integer, got {value!r}")
    for s in cfg.suites:
        if s not in SUITE_NAMES:
            raise SuiteConfigError(f"unknown suite {s!r}; known: {SUITE_NAMES}")
    for a in cfg.algebras:
        if a not in _alg_mod.ALGEBRA_NAMES:
            raise SuiteConfigError(f"unknown algebra {a!r}")
    for s in cfg.suites:
        if s in EXACT_3D_IDENTITIES or s in NUMERIC_IDENTITIES:
            bad = [a for a in cfg.algebras if a not in _3D]
            if s in NUMERIC_IDENTITIES:
                bad = [a for a in cfg.algebras if a not in ("so31", "so22", "so4")]
            if bad:
                raise SuiteConfigError(
                    f"suite {s} does not apply to algebra(s) {bad}: "
                    "it needs a 3d gravity algebra"
                    + (" with a semisimple star" if s in NUMERIC_IDENTITIES else ""))
        if s in ("QUARTIC_ZERO", "MM_EXPANSION"):
            bad = [a for a in cfg.algebras if a not in _4D]
            if bad:
                raise SuiteConfigError(
                    f"suite {s} needs so41/so32, got {bad}")


def _couplings_for(cfg, name):
    table = cfg.couplings or DEFAULT_COUPLINGS
    rows = table.get(name, DEFAULT_COUPLINGS[name])
    out = []
    for row in rows:
        row = tuple(row) + (None,) * (4 - len(row))
        c0, c1, mu, gamma = row[:4]
        out.append(CouplingConstants(c0=Fraction(c0), c1=Fraction(c1),
                                     mu=None if mu is None else Fraction(mu),
                                     gamma=None if gamma is None else Fraction(gamma)))
    return out


def _identity_couplings(identity_id, base):
    """Adapt a base coupling to an identity's orthogonality hypothesis."""
    if identity_id == "CS_NULL":
        c1 = base.c1 if base.c1 != 0 else Fraction(1)
        return CouplingConstants(c0=0, c1=c1, mu=base.mu, gamma=base.gamma)
    if identity_id == "CS_PERP":
        c0 = base.c0 if base.c0 != 0 else Fraction(1)
        return CouplingConstants(c0=c0, c1=0, mu=base.mu, gamma=base.gamma)
    if identity_id in NUMERIC_IDENTITIES:
        mu = base.mu if base.mu is not None else Fraction(5)
        c0 = base.c0 if base.c0 != 0 else Fraction(1)
        return CouplingConstants(c0=c0, c1=base.c1, mu=mu, gamma=base.gamma)
    return base


def _result_from_report(suite, rep, dt):
    return CheckResult(
        suite=suite, check=rep.identity_id, algebra=rep.algebra,
        seed=rep.seed, couplings=rep.couplings.as_dict(),
        residual=rep.residual_str(), passed=rep.passed,
        inputs_digest=rep.inputs_digest, wall_time_ms=dt * 1000.0)


@dataclass(frozen=True)
class _PlannedCheck:
    """One identity_residual call of a battery, in report order."""

    identity_id: str
    alg: object
    seed: int
    couplings: CouplingConstants
    cutoff: int
    grid: int


def _plan_identity_battery(identity_id, cfg):
    plan = []
    if identity_id in ("QUARTIC_ZERO", "MM_EXPANSION"):
        algebras = [a for a in cfg.algebras if a in _4D] or list(_4D)
    else:
        algebras = cfg.algebras
    for name in algebras:
        alg = algebra_factory(name)
        for base in _couplings_for(cfg, name):
            cc = _identity_couplings(identity_id, base)
            plan.extend(_PlannedCheck(identity_id, alg, seed, cc, cfg.cutoff,
                                      cfg.grid) for seed in cfg.seeds())
            if identity_id in NUMERIC_IDENTITIES:
                break  # coframe family does not depend on couplings beyond mu
    return plan


def _run_planned(plan):
    """Run planned checks grouped by field set; results in plan order.

    Checks on one (algebra object, seed, cutoff) run back to back inside
    one run scope, so each field set is built once and only one is alive
    at a time.  A check's time includes the shared work it triggers first.
    """
    groups = {}
    for i, check in enumerate(plan):
        key = (id(check.alg), check.seed, check.cutoff)
        groups.setdefault(key, []).append(i)
    results = [None] * len(plan)
    with run_scope():
        for members in groups.values():
            for i in members:
                check = plan[i]
                t0 = time.perf_counter()
                rep = identity_residual(check.identity_id, check.alg, check.seed,
                                        check.couplings, cutoff=check.cutoff,
                                        grid=check.grid)
                results[i] = _result_from_report(check.identity_id, rep,
                                                 time.perf_counter() - t0)
    return results


# ---------------------------------------------------------------------------
# appendix suites
# ---------------------------------------------------------------------------

def _row(suite, check, algebra, seed, residual_zero, digest, dt):
    return CheckResult(
        suite=suite, check=check, algebra=algebra, seed=seed, couplings=None,
        residual="0" if residual_zero else "nonzero", passed=residual_zero,
        inputs_digest=digest, wall_time_ms=dt * 1000.0)


def _forms_identity_checks(alg, dim, cutoff, density, seed):
    """One seed of the graded-calculus identity battery; all exact.

    The degree-1 battery runs on every seed so each identity sees every
    seed; graded commutativity additionally cycles through the mixed
    degree pairs.
    """
    w = random_form(seed, 1, alg, dim=dim, cutoff=cutoff, density=density)
    m = random_form(seed + 101, 1, alg, dim=dim, cutoff=cutoff, density=density)
    lam = random_form(seed + 202, 1, alg, dim=dim, cutoff=cutoff, density=density)
    a = random_form(seed + 303, 1, alg, dim=dim, cutoff=cutoff, density=density)
    form = invariant_form(alg, 1, Fraction(1, 2)) if alg.star_matrix is not None \
        else killing_form(alg)

    checks = {}
    deg_cycle = [(1, 1), (1, 2), (2, 1)]
    p, q = deg_cycle[seed % len(deg_cycle)]
    wp = w if p == 1 else random_form(seed + 404, p, alg, dim=dim,
                                      cutoff=cutoff, density=density)
    mq = m if q == 1 else random_form(seed + 505, q, alg, dim=dim,
                                      cutoff=cutoff, density=density)
    sign = (-1) ** (p * q + 1)
    checks["graded_commutativity"] = \
        (lie_bracket_forms(wp, mq) - lie_bracket_forms(mq, wp).scale(sign)).is_zero()

    lhs = lie_bracket_forms(lam, lie_bracket_forms(w, m))
    rhs = lie_bracket_forms(lie_bracket_forms(lam, w), m) \
        - lie_bracket_forms(w, lie_bracket_forms(lam, m))
    checks["graded_jacobi"] = (lhs - rhs).is_zero()

    lhs = exterior_d(lie_bracket_forms(w, m))
    rhs = lie_bracket_forms(exterior_d(w), m) \
        - lie_bracket_forms(w, exterior_d(m))
    checks["d_derivation"] = (lhs - rhs).is_zero()

    lhs = covariant_d(a, lie_bracket_forms(w, m))
    rhs = lie_bracket_forms(covariant_d(a, w), m) \
        - lie_bracket_forms(w, covariant_d(a, m))
    checks["covariant_d_derivation"] = (lhs - rhs).is_zero()

    lhs = beta_pair(form, w, m).d()
    rhs = beta_pair(form, covariant_d(a, w), m) \
        - beta_pair(form, w, covariant_d(a, m))
    checks["covariant_integration_by_parts"] = (lhs - rhs).is_zero()

    lhs = beta_pair(form, lie_bracket_forms(lam, w), m)
    rhs = beta_pair(form, w, lie_bracket_forms(lam, m))
    checks["beta_graded_invariance"] = (lhs - rhs).is_zero()

    checks["d_squared"] = exterior_d(exterior_d(w)).is_zero()

    alpha = random_scalar_form(seed + 606, dim - 1, dim, cutoff=cutoff)
    checks["stokes"] = integrate(alpha.d()) == 0
    return checks


def run_appendix_forms(cfg):
    """Graded-calculus identity battery on every requested algebra: the 3d
    algebras on T^3 at K = max(cutoff, 2), the 4d algebras on T^4 at K=1."""
    results = []
    plans = [(name, 3, max(cfg.cutoff, 2), 0.6) if name in _3D
             else (name, 4, 1, 0.35) for name in cfg.algebras]
    for name, dim, cutoff, density in plans:
        alg = algebra_factory(name)
        for seed in cfg.seeds():
            t0 = time.perf_counter()
            checks = _forms_identity_checks(alg, dim, cutoff, density, seed)
            dt = time.perf_counter() - t0
            for check, ok in checks.items():
                results.append(_row(
                    "appendix_forms", check, name, seed, ok,
                    f"appendix_forms/{check}/{name}/T{dim}/K={cutoff}/seed={seed}",
                    dt / len(checks)))
    return results


def _random_element(alg, rng):
    return alg.element([Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                        for _ in range(alg.dim)])


def run_appendix_star(cfg, random_pairs=100):
    """Star and involution battery; exact on basis tuples and random pairs."""
    results = []
    star_algebras = [a for a in cfg.algebras if a in _3D] or list(_3D)
    for name in star_algebras:
        start = len(results)
        t0 = time.perf_counter()
        alg = algebra_factory(name)
        kf = killing_form(alg)
        sf = star_form(alg)
        rng = _rng_for(0, "star", name)
        hset = set(alg.h_indices)
        contraction = alg.lambda_sign == 0

        ok_sq = all(
            hodge_star(hodge_star(alg.basis_element(i))).coeffs
            == alg.basis_element(i).scale(alg.star_square).coeffs
            for i in range(alg.dim))
        results.append(_row("appendix_star", "star_square_sign", name, None,
                            ok_sq, f"star_square/{name}", 0))

        ok_exch = all(
            all(hodge_star(alg.basis_element(i)).coeffs[j] == 0
                for j in (alg.h_indices if i in hset else alg.p_indices))
            for i in range(alg.dim))
        results.append(_row("appendix_star", "star_exchanges_blocks", name,
                            None, ok_exch, f"star_blocks/{name}", 0))

        # bracket compatibility: all (X, Y) for semisimple stars; for the
        # contractions only stabilizer X (see CONVENTIONS.md)
        first = alg.h_indices if contraction else range(alg.dim)
        ok_br = True
        for i in first:
            for j in range(alg.dim):
                x, y = alg.basis_element(i), alg.basis_element(j)
                if hodge_star(bracket(x, y)).coeffs != bracket(x, hodge_star(y)).coeffs:
                    ok_br = False
        for _ in range(random_pairs):
            x = _random_element(alg, rng)
            if contraction:
                x = x.h_part()
            y = _random_element(alg, rng)
            if hodge_star(bracket(x, y)).coeffs != bracket(x, hodge_star(y)).coeffs:
                ok_br = False
        results.append(_row("appendix_star", "star_bracket_compat", name,
                            None, ok_br, f"star_bracket/{name}", 0))

        ok_sym = all(sf.gram[i][j] == sf.gram[j][i]
                     for i in range(alg.dim) for j in range(alg.dim))
        for _ in range(random_pairs):
            x, y = _random_element(alg, rng), _random_element(alg, rng)
            if sf.pair(x, y) != sf.pair(y, x):
                ok_sym = False
        results.append(_row("appendix_star", "star_trace_symmetry", name,
                            None, ok_sym, f"star_sym/{name}", 0))

        ok_inv = True
        for _ in range(random_pairs):
            x, y = _random_element(alg, rng), _random_element(alg, rng)
            xt, yt = involution(x), involution(y)
            if kf.pair(xt, yt) != kf.pair(x, y):
                ok_inv = False
            if sf.pair(xt, yt) != -sf.pair(x, y):
                ok_inv = False
        results.append(_row("appendix_star", "involution_trace_identities",
                            name, None, ok_inv, f"involution_traces/{name}", 0))

        # covariant differential of a stabilizer connection commutes with star
        w = random_form(1, 1, alg, cutoff=1, support="h")
        phi = random_form(2, 1, alg, cutoff=1)
        ok_dw = (covariant_d(w, phi.star()) - covariant_d(w, phi).star()).is_zero()
        results.append(_row("appendix_star", "covariant_d_commutes_star",
                            name, None, ok_dw, f"dstar/{name}", 0))

        if name in ("so22", "so4"):
            ok_sd = True
            for i in range(alg.dim):
                for j in range(alg.dim):
                    xp, xm = selfdual_split(alg.basis_element(i))
                    yp, ym = selfdual_split(alg.basis_element(j))
                    if kf.pair(xp, ym) != 0:
                        ok_sd = False
                    if hodge_star(bracket(xp, yp)).coeffs != bracket(xp, yp).coeffs:
                        ok_sd = False
                    if not bracket(xp, ym).is_zero():
                        ok_sd = False
            results.append(_row("appendix_star", "selfdual_split", name, None,
                                ok_sd, f"selfdual/{name}", 0))
        rows = results[start:]
        dt = time.perf_counter() - t0
        for row in rows:
            row.wall_time_ms = dt * 1000.0 / len(rows)
    return results


def run_invariant_forms(cfg):
    """Nullspace dimension of the invariance system per algebra."""
    results = []
    expected = {"so31": 2, "iso21": 2, "so22": 2, "so4": 2, "iso3": 2,
                "so41": 1, "so32": 1}
    for name in cfg.algebras:
        t0 = time.perf_counter()
        alg = algebra_factory(name)
        space = invariant_form_space(alg)
        ok = len(space) == expected[name]
        if ok and expected[name] == 2:
            vecs = [[x for row in g for x in row] for g in space]
            k_vec = [x for row in alg.killing for x in row]
            s_vec = [x for row in alg.star_gram for x in row]
            ok = (exactla.in_span(vecs, k_vec) and exactla.in_span(vecs, s_vec)
                  and exactla.rank([k_vec, s_vec]) == 2)
        results.append(_row(
            "invariant_forms", "invariant_form_space_dim", name, None, ok,
            f"invariant_forms/{name}/dim={len(space)}",
            time.perf_counter() - t0))
    return results


def _plan_mm_identities(cfg):
    sub = SuiteConfig(suites=[], algebras=[a for a in cfg.algebras if a in _4D]
                      or list(_4D), seed_start=cfg.seed_start,
                      seed_end=cfg.seed_end, couplings=cfg.couplings,
                      cutoff=1, grid=cfg.grid)
    return (_plan_identity_battery("QUARTIC_ZERO", sub)
            + _plan_identity_battery("MM_EXPANSION", sub))


def _plan_tmg_identities(cfg):
    sub = SuiteConfig(suites=[],
                      algebras=[a for a in cfg.algebras
                                if a in ("so31", "so22", "so4")] or ["so31", "so22"],
                      seed_start=cfg.seed_start,
                      seed_end=cfg.seed_end,
                      couplings=cfg.couplings, cutoff=cfg.cutoff, grid=cfg.grid)
    return (_plan_identity_battery("CS_TMG", sub)
            + _plan_identity_battery("TWO_CS_TMG", sub))


_RUNNERS = {
    "appendix_forms": run_appendix_forms,
    "appendix_star": run_appendix_star,
    "invariant_forms": run_invariant_forms,
}

_PLANNERS = {
    "mm_identities": _plan_mm_identities,
    "tmg_identities": _plan_tmg_identities,
}


def run_suite(cfg):
    """Execute all requested suites; returns (results, all_passed).

    The identity batteries of all suites are planned first and run
    together, grouped by field set (`_run_planned`); every row keeps its
    place in the report.
    """
    validate_config(cfg)
    results, plan, slots = [], [], []
    for s in cfg.suites:
        if s in _RUNNERS:
            results.extend(_RUNNERS[s](cfg))
            continue
        planned = (_PLANNERS[s](cfg) if s in _PLANNERS
                   else _plan_identity_battery(s, cfg))
        for check in planned:
            slots.append(len(results))
            results.append(None)
            plan.append(check)
    for slot, result in zip(slots, _run_planned(plan)):
        results[slot] = result
    return results, all(r.passed for r in results)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def emit_report(results, cfg, timings=False):
    """Schema-stable JSON document; byte-deterministic unless timings on."""
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


def write_report(text, out_path):
    directory = os.environ.get("CARTANFORMS_OUT_DIR")
    if directory and not os.path.isabs(out_path):
        out_path = os.path.join(directory, out_path)
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    with open(out_path, "w") as fh:
        fh.write(text)
    return out_path
