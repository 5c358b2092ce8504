"""Verification suites: named batteries of exact and numeric checks.

Each runner returns a list of CheckResult rows; the CLI assembles them into
a schema-stable JSON report.  Suites draw their algebras through the
module-level `algebra_factory` seam so fault-injection tests can substitute
corrupted descriptors.
"""

from __future__ import annotations

import errno
import json
import os
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _esc

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
    EXACT_3D_IDENTITIES,
    IDENTITY_ALGEBRAS,
    IDENTITY_IDS,
    NUMERIC_IDENTITIES,
    identity_residual,
    run_scope,
    _needs,
    _3D_ALGEBRAS as _3D,
    _4D_ALGEBRAS as _4D,
)
from .calculus import (
    CalculusError,
    beta_pair,
    covariant_d,
    exterior_d,
    integrate,
    lie_bracket_forms,
    random_form,
    random_scalar_form,
    _json_int,
    _json_rational,
    _load_json,
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


SUITE_NAMES = ("appendix_forms", "appendix_star", "invariant_forms",
               "mm_identities", "tmg_identities") + IDENTITY_IDS

# one degenerate pair per algebra is part of the default battery
DEFAULT_COUPLINGS = {
    "so31": [(2, 3), (1, 2), (0, 0)],
    "iso21": [(2, 3), (1, 0), (0, 1)],
    "so22": [(2, 3), (1, 1), (1, 0)],
    "so4": [(2, 3), (1, 1), (1, 0)],
    "iso3": [(2, 3), (1, 0), (0, 1)],
    "so41": [(1, 1), (1, "1/3"), (2, 0)],
    "so32": [(1, 1), (1, "1/3"), (2, 0)],
}


def default_config():
    return SuiteConfig()


CONFIG_KEYS = ("suites", "algebras", "seeds", "couplings", "cutoff", "grid",
               "out")


def load_config(path):
    try:
        doc = _load_json(path)
    except (OSError, ValueError) as exc:
        raise SuiteConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SuiteConfigError(f"config {path} is not a JSON object")
    unknown = sorted(set(doc) - set(CONFIG_KEYS))
    if unknown:
        raise SuiteConfigError(f"unknown config key(s) {unknown} in {path}; "
                               f"known: {list(CONFIG_KEYS)}")
    # the values are kept as read; validate_config checks them
    cfg = SuiteConfig(**{k: v for k, v in doc.items() if k != "seeds"})
    if "seeds" in doc:
        seeds = doc["seeds"]
        if not isinstance(seeds, list) or len(seeds) != 2:
            raise SuiteConfigError(f"seeds must be [first, last], got "
                                   f"{seeds!r}")
        cfg.seed_start, cfg.seed_end = seeds
    return cfg


def validate_config(cfg):
    try:
        for j, seed in enumerate((cfg.seed_start, cfg.seed_end)):
            _json_int(seed, f"seeds[{j}]")
        for key in ("cutoff", "grid"):
            _json_int(getattr(cfg, key), key, 1)
    except CalculusError as exc:
        raise SuiteConfigError(str(exc)) from None
    if cfg.seed_end < cfg.seed_start:
        raise SuiteConfigError(
            f"empty seed range {cfg.seed_start}..{cfg.seed_end}")
    if cfg.out is not None and not (isinstance(cfg.out, str) and cfg.out):
        raise SuiteConfigError(
            f"out must be a non-empty path string, got {cfg.out!r}")
    if cfg.couplings is not None and not isinstance(cfg.couplings, dict):
        raise SuiteConfigError(
            f"couplings must map algebra names to rows, got {cfg.couplings!r}")
    for name, rows in (cfg.couplings or {}).items():
        where = f"couplings for {name!r}"
        try:
            if name not in _alg_mod.ALGEBRA_NAMES:
                raise ValueError("not an algebra")
            if not isinstance(rows, (list, tuple)) or not rows:
                # an empty table would drop the algebra from every battery
                raise ValueError(f"rows must be a non-empty list, got {rows!r}")
            for i, row in enumerate(rows):
                where = f"couplings for {name!r}, row {i}"
                _coupling(row)
        except ValueError as exc:
            raise SuiteConfigError(f"{where}: {exc}") from None
    for key in ("suites", "algebras"):
        value = getattr(cfg, key)
        if not (isinstance(value, list)
                and all(isinstance(x, str) for x in value)):
            raise SuiteConfigError(
                f"{key} must be a list of names, got {value!r}")
    for s in cfg.suites:
        if s not in SUITE_NAMES:
            raise SuiteConfigError(f"unknown suite {s!r}; known: {SUITE_NAMES}")
    for a in cfg.algebras:
        if a not in _alg_mod.ALGEBRA_NAMES:
            raise SuiteConfigError(f"unknown algebra {a!r}")
    for s in [s for s in cfg.suites if s in IDENTITY_ALGEBRAS]:
        covered = IDENTITY_ALGEBRAS[s]
        bad = [a for a in cfg.algebras if a not in covered]
        if bad:
            raise SuiteConfigError(
                f"suite {s} does not apply to algebra(s) {bad}: "
                f"it needs {_needs(covered, 'gravity algebra')}")


def _coupling(row):
    """CouplingConstants of a row [c0, c1[, mu[, gamma]]] of rationals, as
    _json_rational reads them; mu and gamma may be null."""
    if not isinstance(row, (list, tuple)) or not 2 <= len(row) <= 4:
        raise ValueError(f"{row!r} is not [c0, c1[, mu[, gamma]]]")
    return CouplingConstants(*(
        None if x is None and key in ("mu", "gamma") else _json_rational(x, key)
        for x, key in zip(row, ("c0", "c1", "mu", "gamma"))))


def _couplings_for(cfg, name):
    table = cfg.couplings or DEFAULT_COUPLINGS
    return [_coupling(row) for row in table.get(name, DEFAULT_COUPLINGS[name])]


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
    """identity_id on exactly the configured algebras."""
    plan = []
    for name in cfg.algebras:
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
    degree pairs.  Returns {check: (passed, seconds)}: each check's own
    time plus an even share of the random forms all checks use.
    """
    t0 = time.perf_counter()
    w = random_form(seed, 1, alg, dim=dim, cutoff=cutoff, density=density)
    m = random_form(seed + 101, 1, alg, dim=dim, cutoff=cutoff, density=density)
    lam = random_form(seed + 202, 1, alg, dim=dim, cutoff=cutoff, density=density)
    a = random_form(seed + 303, 1, alg, dim=dim, cutoff=cutoff, density=density)
    form = invariant_form(alg, 1, Fraction(1, 2)) if alg.star_matrix is not None \
        else killing_form(alg)
    checks = {}
    last = time.perf_counter()
    shared = last - t0

    def done(check, ok):
        nonlocal last
        now = time.perf_counter()
        checks[check] = (ok, now - last)
        last = now

    deg_cycle = [(1, 1), (1, 2), (2, 1)]
    p, q = deg_cycle[seed % len(deg_cycle)]
    wp = w if p == 1 else random_form(seed + 404, p, alg, dim=dim,
                                      cutoff=cutoff, density=density)
    mq = m if q == 1 else random_form(seed + 505, q, alg, dim=dim,
                                      cutoff=cutoff, density=density)
    sign = (-1) ** (p * q + 1)
    done("graded_commutativity",
         (lie_bracket_forms(wp, mq) - lie_bracket_forms(mq, wp).scale(sign)).is_zero())

    lhs = lie_bracket_forms(lam, lie_bracket_forms(w, m))
    rhs = lie_bracket_forms(lie_bracket_forms(lam, w), m) \
        - lie_bracket_forms(w, lie_bracket_forms(lam, m))
    done("graded_jacobi", (lhs - rhs).is_zero())

    lhs = exterior_d(lie_bracket_forms(w, m))
    rhs = lie_bracket_forms(exterior_d(w), m) \
        - lie_bracket_forms(w, exterior_d(m))
    done("d_derivation", (lhs - rhs).is_zero())

    lhs = covariant_d(a, lie_bracket_forms(w, m))
    rhs = lie_bracket_forms(covariant_d(a, w), m) \
        - lie_bracket_forms(w, covariant_d(a, m))
    done("covariant_d_derivation", (lhs - rhs).is_zero())

    lhs = beta_pair(form, w, m).d()
    rhs = beta_pair(form, covariant_d(a, w), m) \
        - beta_pair(form, w, covariant_d(a, m))
    done("covariant_integration_by_parts", (lhs - rhs).is_zero())

    lhs = beta_pair(form, lie_bracket_forms(lam, w), m)
    rhs = beta_pair(form, w, lie_bracket_forms(lam, m))
    done("beta_graded_invariance", (lhs - rhs).is_zero())

    done("d_squared", exterior_d(exterior_d(w)).is_zero())

    alpha = random_scalar_form(seed + 606, dim - 1, dim, cutoff=cutoff)
    done("stokes", integrate(alpha.d()) == 0)
    share = shared / len(checks)
    return {check: (ok, dt + share) for check, (ok, dt) in checks.items()}


def run_appendix_forms(cfg):
    """Graded-calculus identity battery on every requested algebra: the 3d
    algebras on T^3 at K = max(cutoff, 2), the 4d algebras on T^4 at K=1."""
    results = []
    plans = [(name, 3, max(cfg.cutoff, 2), 0.6) if name in _3D
             else (name, 4, 1, 0.35) for name in cfg.algebras]
    for name, dim, cutoff, density in plans:
        alg = algebra_factory(name)
        for seed in cfg.seeds():
            checks = _forms_identity_checks(alg, dim, cutoff, density, seed)
            for check, (ok, dt) in checks.items():
                results.append(_row(
                    "appendix_forms", check, name, seed, ok,
                    f"appendix_forms/{check}/{name}/T{dim}/K={cutoff}/seed={seed}",
                    dt))
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


def _plan_battery(cfg, identities, fallback, **fixed):
    """A named battery's identities, each on the configured algebras
    IDENTITY_ALGEBRAS gives it (fallback when there are none), with the
    settings in `fixed`."""
    plan = []
    for i in identities:
        sub = replace(cfg, algebras=[a for a in cfg.algebras
                                     if a in IDENTITY_ALGEBRAS[i]]
                      or list(fallback), **fixed)
        plan.extend(_plan_identity_battery(i, sub))
    return plan


_RUNNERS = {
    "appendix_forms": run_appendix_forms,
    "appendix_star": run_appendix_star,
    "invariant_forms": run_invariant_forms,
}

_PLANNERS = {
    "mm_identities": lambda cfg: _plan_battery(
        cfg, ("QUARTIC_ZERO", "MM_EXPANSION"), _4D, cutoff=1),
    "tmg_identities": lambda cfg: _plan_battery(
        cfg, NUMERIC_IDENTITIES, ("so31", "so22")),
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

_int_repr = int.__repr__   # what json writes for an int


def _nested(value, indent):
    """json.dumps(value, indent=2, sort_keys=True) as it reads nested
    `indent` deep: the encoder writes a newline only between tokens."""
    return json.dumps(value, indent=2, sort_keys=True).replace(
        "\n", "\n" + indent)


def emit_report(results, cfg, timings=False):
    """Schema-stable JSON document; byte-deterministic unless timings on.

    The text is json.dumps(doc, indent=2, sort_keys=True) + "\n" of the
    document {config, results, schema, summary}, written row by row: the
    indenting encoder is pure Python, so each row is filled into one
    template with its keys in sorted order, strings through the stdlib's
    own C escaper and each distinct couplings dict (keyed by its repr)
    formatted once.  Row fields hold the types CheckResult declares.
    """
    blocks, rows = {}, []
    for r in results:
        key = repr(r.couplings)
        block = blocks.get(key)
        if block is None:
            block = blocks[key] = _nested(r.couplings, " " * 6)
        wall = (f',\n      "wall_time_ms": {round(r.wall_time_ms, 3)!r}'
                if timings else "")
        rows.append(
            f'    {{\n      "algebra": {_esc(r.algebra)},'
            f'\n      "check": {_esc(r.check)},'
            f'\n      "couplings": {block},'
            f'\n      "inputs_digest": {_esc(r.inputs_digest)},'
            f'\n      "passed": {"true" if r.passed else "false"},'
            f'\n      "residual": {_esc(r.residual)},'
            f'\n      "seed": {"null" if r.seed is None else _int_repr(r.seed)},'
            f'\n      "suite": {_esc(r.suite)}{wall}\n    }}')
    config = {
        "suites": list(cfg.suites),
        "algebras": list(cfg.algebras),
        "seeds": [cfg.seed_start, cfg.seed_end],
        "cutoff": cfg.cutoff,
        "grid": cfg.grid,
    }
    passed = sum(r.passed for r in results)
    summary = {"total": len(rows), "passed": passed,
               "failed": len(rows) - passed}
    body = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
    return (f'{{\n  "config": {_nested(config, "  ")},\n  "results": {body},'
            f'\n  "schema": 1,\n  "summary": {_nested(summary, "  ")}\n}}\n')


def report_path(out_path):
    """The path write_report writes out_path to: under
    $CARTANFORMS_OUT_DIR when relative.  A directory, or a path under a
    regular file, is refused up front with an OSError that names it;
    nothing is created or truncated."""
    directory = os.environ.get("CARTANFORMS_OUT_DIR")
    if directory and not os.path.isabs(out_path):
        out_path = os.path.join(directory, out_path)
    if os.path.isdir(out_path):
        reason = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                   out_path)
    else:
        # the nearest existing ancestor, which write_report's makedirs extends
        parent = os.path.dirname(os.path.abspath(out_path))
        while not os.path.exists(parent):
            parent = os.path.dirname(parent)
        reason = None if os.path.isdir(parent) else NotADirectoryError(
            errno.ENOTDIR, os.strerror(errno.ENOTDIR), parent)
    if reason is not None:
        raise OSError(f"cannot write report to {out_path}: {reason}")
    return out_path


def write_report(text, out_path):
    """Write text to report_path(out_path); an OSError names that path."""
    out_path = report_path(out_path)
    try:
        os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {out_path}: {exc}") from exc
    return out_path
