"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py      (from the checkout root; about a minute)

Runs every workload of BENCHMARK.json at the tiny size, untraced and
traced, and checks that the result names exactly the metrics BENCHMARK.json
declares, each with its declared unit, and that each is printed by name.
Then checks that the correctness gate fails a run whose so31 structure
constants are corrupted through `suites.algebra_factory`, and a report with
one flipped residual or one changed byte.  Exits 0 when all checks pass.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def bench_run(workload, trace, seed=workloads.DEFAULT_SEED, inject=None):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.main(["--workload", workload, "--seed", str(seed),
                  "--seconds", "1", "--trace", str(trace)],
                 size="tiny", inject=inject)
    lines = buf.getvalue().strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_metrics(bench, workload, trace, printed, result):
    errors = []
    declared = {m["name"]: m["unit"]
                for m in bench["per_layer" if trace else "end_to_end"]}
    emitted = result["metrics"]
    if set(emitted) != set(declared):
        errors.append(f"{workload} trace={trace}: emitted "
                      f"{sorted(set(emitted) ^ set(declared))} differ from BENCHMARK.json")
    for name, unit in declared.items():
        m = emitted.get(name, {})
        if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
            errors.append(f"{workload} trace={trace}: {name} has {m}, wants unit {unit}")
        if not any(line.startswith(f"{name} = ") for line in printed):
            errors.append(f"{workload} trace={trace}: {name} not printed by name")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{workload} trace={trace}: run not correct: {result}")
    return errors


def check_gate(root):
    errors = []
    # seed 4 is the first battery seed whose so31 fields reach the corrupted
    # constant (seeds 0-3 pass even with it, as in criterion 9's 0..4 run)
    _, result = bench_run("cs_battery", 0, seed=4, inject="corrupt_so31")
    if result["correct"] or not result["failed"]:
        errors.append("corrupted so31 structure constant passed the gate")

    # a real tiny report, then the same report with one residual flipped
    workdir = os.path.join(root, ".perfbench_work", "selftest")
    os.makedirs(workdir, exist_ok=True)
    sys.path.insert(0, os.path.join(root, "src"))
    p = workloads.build_cs_battery(workloads.DEFAULT_SEED, workdir, "tiny")
    from cartanforms import cli
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(p.commands[0]["argv"])
    with open(p.commands[0]["report"]) as fh:
        text = fh.read()
    expect = p.expect["verify"]
    digest = workloads.report_digest(text)
    if rc != 0 or not all(ok for _, ok in workloads.check_report(text, expect, digest)):
        errors.append("a correct report failed the gate")
    doc = json.loads(text)
    doc["results"][7]["residual"] = "1/3"
    flipped = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if all(ok for _, ok in workloads.check_report(flipped, expect)):
        errors.append("a flipped residual passed the gate")
    changed = text.replace("\n", " \n", 1)
    if all(ok for _, ok in workloads.check_report(changed, expect, digest)):
        errors.append("a changed report passed the sha256 pin")
    return errors


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    errors = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            printed, result = bench_run(w["name"], trace)
            errors += check_metrics(bench, w["name"], trace, printed, result)
    errors += check_gate(root)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
