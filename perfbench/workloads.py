"""Workload definitions: seeded inputs, the commands of one pass, and the
correctness gate applied to every pass.

A workload turns a seed into input files (configs, fields, paths) and a
plan for one pass: the algebras set-up builds, the files set-up reads, and
the `cartanforms` command lines the pass runs.  `check_pass` turns a pass's
outputs into a list of (check name, passed) pairs; a check that cannot be
evaluated (missing report, crashed command) counts as failed, never as
skipped.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
from dataclasses import dataclass

DEFAULT_SEED = 0

# sha256 of each exact battery's report at the default seed.  The reports
# are byte-deterministic, so any change to them is a behaviour change.
PINNED_REPORTS = {
    ("cs_battery", "verify"): "90bf53670fb8af6c6c6ffc76d813b3c1fe779de4379ea7b807592d5dcf9adb2a",
}

EXACT_3D_IDENTITIES = ["CS_NULL", "CS_PERP", "EINSTEIN_CS", "TWO_CS_SUM",
                       "TWO_CS_DIFF"]
TMG_IDENTITIES = ["CS_TMG", "TWO_CS_TMG"]
COUPLINGS_PER_ALGEBRA = 3   # rows of the default coupling table

TMG_MU = 5
SPHERE_SIDE = 0.2
EVAL_REL_TOL = 1e-10
TMG_RESIDUAL_TOL = 1e-8
DRIFT_TOL = 1e-9
AREA_LAW_TOL = 1e-4         # criterion 8: square-loop angle vs enclosed area

# Workload sizes.  "tiny" keeps every code path but runs in about a second;
# the self-test uses it.
SIZES = {
    "full": {
        # the cost of a seed's checks varies (coefficient of variation about
        # 0.25), so a pass takes twice the default battery's 20 seeds to
        # keep the pass cost from depending much on which seeds it got
        "cs_seeds": 40,
        "tmg_grids": (24, 40),
        "tmg_battery_seeds": 8,
        "tmg_battery_grid": 12,
        "sphere_steps": 3000,
        "mc_steps": 300,
    },
    "tiny": {
        "cs_seeds": 1,
        "tmg_grids": (16, 24),
        "tmg_battery_seeds": 1,
        "tmg_battery_grid": 8,
        "sphere_steps": 800,
        "mc_steps": 100,
    },
}


@dataclass
class Pass:
    """Plan of one pass plus what its gate needs to judge the outputs."""

    workload: str
    seed: int
    size: str
    algebras: list
    commands: list      # {"name", "argv", "report"} per command
    expect: dict        # per-command expectations for the gate

    def plan(self):
        inputs = sorted({a for c in self.commands for a in _input_args(c["argv"])})
        return {"algebras": self.algebras, "inputs": inputs,
                "commands": self.commands}


def _input_args(argv):
    for flag, value in zip(argv, argv[1:]):
        if flag in ("--config", "--fields", "--path"):
            yield value


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _verify(name, workdir, cfg):
    cfg_path = os.path.join(workdir, f"{name}.config.json")
    report = os.path.join(workdir, f"{name}.report.json")
    _write_json(cfg_path, cfg)
    return {"name": name, "argv": ["verify", "--config", cfg_path,
                                   "--out", report], "report": report}


def _seed_range(seed, count):
    """Battery seeds offset by the workload seed; seed 0 is the default range."""
    return [seed, seed + count - 1]


def build_cs_battery(seed, workdir, size):
    n = SIZES[size]["cs_seeds"]
    algebras = ["so31", "iso21", "so22"]
    cfg = {"suites": EXACT_3D_IDENTITIES, "algebras": algebras,
           "seeds": _seed_range(seed, n)}
    cmd = _verify("verify", workdir, cfg)
    rows = len(EXACT_3D_IDENTITIES) * len(algebras) * COUPLINGS_PER_ALGEBRA * n
    expect = {"verify": {"kind": "exact", "rows": rows}}
    return Pass("cs_battery", seed, size, algebras, [cmd], expect)


def _closed_chart_loop(seed):
    """Closed 4-vertex polygon in the so31 model chart, inside |x| <= 0.15."""
    rng = random.Random(f"perfbench:mc_loop:{seed}")
    start = [round(rng.uniform(-0.05, 0.05), 6) for _ in range(3)]
    pts = [start] + [[round(rng.uniform(-0.15, 0.15), 6) for _ in range(3)]
                     for _ in range(3)] + [start]
    return pts


def _path_doc(points):
    return {"segments": [{"type": "line", "from": a, "to": b}
                         for a, b in zip(points, points[1:])]}


def _path_length(points):
    return sum(math.dist(a, b) for a, b in zip(points, points[1:]))


def build_numeric(seed, workdir, size):
    from cartanforms.actions import analytic_coframe
    from cartanforms.algebra import build_algebra
    from cartanforms.calculus import save_fields

    sz = SIZES[size]
    fields = os.path.join(workdir, "coframe.json")
    save_fields(fields, build_algebra("so31"),
                {"e": analytic_coframe(build_algebra("so31"), seed=seed)})
    commands = [{"name": f"eval_tmg_{g}", "report": None,
                 "argv": ["eval", "--fields", fields, "--action", "tmg",
                          "--mu", str(TMG_MU), "--grid", str(g)]}
                for g in sz["tmg_grids"]]

    battery = _verify("tmg_battery", workdir,
                      {"suites": TMG_IDENTITIES, "algebras": ["so31", "so22"],
                       "seeds": _seed_range(seed, sz["tmg_battery_seeds"]),
                       "grid": sz["tmg_battery_grid"]})
    commands.append(battery)

    h = SPHERE_SIDE / 2
    square = [[-h, -h], [h, -h], [h, h], [-h, h], [-h, -h]]
    loop = _closed_chart_loop(seed)
    for name, model, points, steps in (
            ("holonomy_sphere", "sphere", square, sz["sphere_steps"]),
            ("holonomy_mc_so31", "mc_so31", loop, sz["mc_steps"])):
        path = os.path.join(workdir, f"{name}.path.json")
        _write_json(path, _path_doc(points))
        commands.append({"name": name, "report": None,
                         "argv": ["holonomy", "--model", model, "--path", path,
                                  "--steps", str(steps)]})

    mc_err = (_path_length(loop) / sz["mc_steps"]) ** 2
    expect = {
        "eval": [c["name"] for c in commands if c["name"].startswith("eval_")],
        "tmg_battery": {"kind": "numeric",
                        "rows": len(TMG_IDENTITIES) * 2 * sz["tmg_battery_seeds"]},
        "holonomy_sphere": {"area": SPHERE_SIDE ** 2},
        "holonomy_mc_so31": {"identity_tol": mc_err},
    }
    return Pass("numeric", seed, size, ["so31", "so22"], commands, expect)


# how a workload seed n becomes inputs, recorded with every result
SEED_NOTES = {
    "cs_battery": "verify seeds n..n+39 (the default battery's identities, "
                  "algebras and couplings); the n=0 report is sha256-pinned",
    "numeric": "analytic so31 coframe seed n (mu=5), TMG battery seeds "
               "n..n+7, mc_so31 loop vertices from seed n; the sphere loop "
               "is criterion 8's fixed square",
}


BUILDERS = {
    "cs_battery": build_cs_battery,
    "numeric": build_numeric,
}


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def report_digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def check_report(text, expect, pinned=None):
    """Checks of one verify report: one per expected row, plus count/digest."""
    rows = expect["rows"]
    try:
        doc = json.loads(text)
        results = doc["results"]
    except (TypeError, ValueError, KeyError):
        failed = [("report_parses", False)] + [("row", False)] * rows
        return failed + ([("report_sha256", False)] if pinned else [])
    checks = [("row_count", len(results) == rows
               and doc["summary"]["total"] == rows
               and doc["summary"]["failed"] == 0)]
    for i in range(rows):
        row = results[i] if i < len(results) else None
        checks.append((f"row {i}", row is not None and _row_ok(row, expect["kind"])))
    if pinned is not None:
        checks.append(("report_sha256", report_digest(text) == pinned))
    return checks


def _row_ok(row, kind):
    if row.get("passed") is not True:
        return False
    if kind == "exact":
        return row.get("residual") == "0"
    try:
        return float(row["residual"]) < TMG_RESIDUAL_TOL
    except (KeyError, TypeError, ValueError):
        return False


_FLOAT = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def parse_holonomy(stdout):
    """(matrix rows, steps, drift) from `cartanforms holonomy` output."""
    head, _, tail = stdout.partition("steps:")
    values = [float(x) for x in _FLOAT.findall(head)]
    d = math.isqrt(len(values))
    if d * d != len(values) or d == 0:
        raise ValueError("holonomy matrix is not square")
    steps = int(tail.split()[0])
    drift = float(tail.split("group drift:")[1].split()[0])
    return [values[i * d:(i + 1) * d] for i in range(d)], steps, drift


def parse_eval(stdout):
    """The JSON document `cartanforms eval` prints after its summary line."""
    return json.loads(stdout.split("\n", 1)[1])


def check_pass(p, outputs, reports):
    """Gate one pass.  outputs: name -> {"rc", "stdout"}; reports: name -> text."""
    checks = []
    for cmd in p.commands:
        out = outputs.get(cmd["name"]) or {}
        checks.append((f"{cmd['name']} exit 0", out.get("rc") == 0))
    for cmd in p.commands:
        name = cmd["name"]
        exp = p.expect.get(name)
        if cmd["report"] is not None:
            pinned = PINNED_REPORTS.get((p.workload, name)) \
                if p.seed == DEFAULT_SEED and p.size == "full" else None
            checks += check_report(reports.get(name), exp, pinned)
    if p.workload == "numeric":
        checks += _check_numeric(p, outputs)
    return checks


def _check_numeric(p, outputs):
    checks = []
    values = []
    for name in p.expect["eval"]:
        try:
            value = parse_eval(outputs[name]["stdout"])["numeric"]
            values.append(float(value))
        except (KeyError, IndexError, TypeError, ValueError):
            values.append(float("nan"))
    coarse, fine = values
    agree = math.isfinite(fine) and \
        abs(coarse - fine) <= EVAL_REL_TOL * max(abs(fine), 1e-30)
    checks.append(("tmg eval grids agree", agree))

    try:
        mat, _, drift = parse_holonomy(outputs["holonomy_sphere"]["stdout"])
        tr = mat[0][0] + mat[1][1] + mat[2][2]
        angle = math.acos(max(-1.0, min(1.0, (tr - 1.0) / 2.0)))
        area = p.expect["holonomy_sphere"]["area"]
        checks.append(("sphere area law", abs(angle - area) < AREA_LAW_TOL))
        checks.append(("sphere drift", drift < DRIFT_TOL))
    except (KeyError, IndexError, ValueError):
        checks += [("sphere area law", False), ("sphere drift", False)]

    try:
        mat, _, drift = parse_holonomy(outputs["holonomy_mc_so31"]["stdout"])
        dev = max(abs(v - (1.0 if i == j else 0.0))
                  for i, row in enumerate(mat) for j, v in enumerate(row))
        tol = p.expect["holonomy_mc_so31"]["identity_tol"]
        checks.append(("mc_so31 loop closes", dev < tol))
        checks.append(("mc_so31 drift", drift < DRIFT_TOL))
    except (KeyError, IndexError, ValueError):
        checks += [("mc_so31 loop closes", False), ("mc_so31 drift", False)]
    return checks


def expected_check_count(p):
    """Checks a pass must produce; a crashed pass fails this many."""
    return len(check_pass(p, {}, {}))
