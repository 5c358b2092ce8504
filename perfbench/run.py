"""cartanforms benchmark: one workload, one seed, for a fixed time.

    python3 perfbench/run.py --workload cs_battery --seed 0 --seconds 55 --trace 0

Run from the root of a checkout.  The benchmark writes the workload's
inputs for the seed under `.perfbench_work/`, then runs passes until
`--seconds` have elapsed.  Each pass is a fresh interpreter (set-up, then
the `cartanforms` commands), so every pass pays the cold caches a user of
the command line pays.  Every pass is checked; a failing pass counts into
`failed`, it is never dropped.

--trace 0 reports the end-to-end metrics (medians over passes).  --trace 1
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones, plus the tracing overhead.  All metrics are printed by
name with their unit; the last line is the JSON result.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 165        # every run ends well inside the 180 s contract
TAIL_PERCENTILE = 90     # item_cpu_ms_p90
TAIL_BEYOND = 10         # samples the tail should leave beyond it
MIN_SETUPS = 5           # set-ups per run behind the setup_s median
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_cpu_s": "s",
    "item_cpu_ms_p50": "ms",
    "item_cpu_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The checkout cannot be benchmarked (no program, bad arguments)."""


def _nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    # One BLAS thread: the pass is one process, and on this package's small
    # matrices OpenBLAS threads only spin (holonomy at 16000 steps: 5.2 s wall
    # and 5.2 s CPU with one thread, 7.3 s wall and 13.3 s CPU with two on a
    # 2-core host), which also makes the pass depend on its neighbours' load.
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _git_commit(root):
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest(src):
    h = hashlib.sha256()
    pkg = os.path.join(src, "cartanforms")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(root, src, workload, seed, size, why):
    import numpy
    import scipy
    return {
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(src),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": _nproc(),
        "child_env": {v: child_env()[v] for v in BLAS_VARS + ("PYTHONHASHSEED",)},
        "workload": workload,
        "why": why,
        "seed": seed,
        "seed_inputs": workloads.SEED_NOTES[workload],
        "size": size,
    }


def run_pass(root, plan, plan_path, deadline):
    """Run one pass in a fresh interpreter; None if it crashed or timed out."""
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    launch = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), plan_path, repr(launch)],
            cwd=root, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - launch))
    except subprocess.TimeoutExpired:
        print(f"pass {plan['pass_id']}: timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"pass {plan['pass_id']}: child exited {proc.returncode}\n"
              f"{proc.stderr[-4000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def read_reports(p):
    reports = {}
    for cmd in p.commands:
        if cmd["report"] is not None:
            try:
                with open(cmd["report"]) as fh:
                    reports[cmd["name"]] = fh.read()
            except OSError:
                reports[cmd["name"]] = None
    return reports


def gate(p, result):
    """(attempted, failed names) for one pass; a crashed pass fails every check."""
    if result is None:
        n = workloads.expected_check_count(p)
        return n, ["pass crashed"] * n
    checks = workloads.check_pass(p, result["outputs"], read_reports(p))
    return len(checks), [name for name, ok in checks if not ok]


def percentile(xs, pct):
    """Nearest-rank percentile of a sorted list."""
    return xs[max(0, math.ceil(pct / 100 * len(xs)) - 1)]


def end_to_end(results, setups):
    # item times are pooled over every pass of the run: the same items recur
    # in each pass, so the pool is the run's whole sample of the workload
    items = sorted(t for r in results for t in r["items_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_cpu_s": statistics.median(r["pass_cpu_s"] for r in results),
        "item_cpu_ms_p50": 1000 * statistics.median(items),
        "item_cpu_ms_p90": 1000 * percentile(items, TAIL_PERCENTILE),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    beyond = len(items) - math.ceil(TAIL_PERCENTILE / 100 * len(items))
    note = (f"items: {len(items)} samples ({len(results[0]['items_s'])} per pass "
            f"x {len(results)} passes); p{TAIL_PERCENTILE} leaves {beyond} beyond it"
            + ("" if beyond >= TAIL_BEYOND else
               f" (fewer than {TAIL_BEYOND}: too few samples for a steady tail)"))
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, note


def per_layer(untraced, traced):
    units = tracing.metric_units()
    metrics = {name: (statistics.median(r["layers"][name] for r in traced), unit)
               for name, unit in units.items()}
    metrics["process.cpu_s"] = (statistics.median(r["cpu_s"] for r in untraced), "s")
    metrics["process.wall_s"] = (statistics.median(r["wall_s"] for r in untraced), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in untraced), "s")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, size="full", inject=None):
    """Run the benchmark; `size` and `inject` serve the self-test only."""
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cartanforms", "__init__.py")):
        raise BenchError(f"no cartanforms package under {src}; run from a checkout root")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    why = {w["name"]: w["why"] for w in bench["workloads"]}[args.workload]

    deadline = time.monotonic() + RUN_LIMIT_S
    tag = f"{args.workload}-seed{args.seed}-{size}"
    workdir = os.path.join(root, ".perfbench_work", tag)
    os.makedirs(workdir, exist_ok=True)
    sys.path.insert(0, src)
    p = workloads.BUILDERS[args.workload](args.seed, workdir, size)
    env = environment(root, src, args.workload, args.seed, size, why)

    plan = dict(p.plan(), src=src, inject=inject)
    plan_path = os.path.join(workdir, "plan.json")
    untraced, traced = [], []
    attempted, failed = 0, []
    t0 = time.monotonic()
    k = 0
    durations = []
    while True:
        trace = bool(args.trace) and k % 2 == 1
        plan.update(pass_id=k, trace=trace,
                    spans_out=os.path.join(workdir, f"spans-pass{k}.json"))
        start = time.monotonic()
        result = run_pass(root, plan, plan_path, deadline)
        durations.append(time.monotonic() - start)
        n, bad = gate(p, result)
        attempted += n
        failed += [f"pass {k}: {name}" for name in bad]
        if result is None:
            break
        (traced if trace else untraced).append(result)
        k += 1
        # once every kind of pass the run needs has completed, no pass
        # starts that would, at the median pass duration, end past --seconds
        now = time.monotonic()
        need = not untraced or (args.trace and not traced)
        if (not need and now + statistics.median(durations) - t0 > args.seconds) \
                or now + max(durations) > deadline:
            break
    if not untraced or (args.trace and not traced):
        raise BenchError("no pass completed; see the errors above")
    setups = [r["setup_s"] for r in untraced]
    while not args.trace and len(setups) < MIN_SETUPS \
            and time.monotonic() + 2 * max(setups) < deadline:
        # set-up only: no commands, so setup_s is a median of several set-ups
        plan.update(pass_id=f"setup{len(setups)}", trace=False, commands=[])
        result = run_pass(root, plan, plan_path, deadline)
        if result is None:
            break
        setups.append(result["setup_s"])

    if args.trace:
        metrics, notes = per_layer(untraced, traced), []
    else:
        metrics, note = end_to_end(untraced, setups)
        notes = [note]
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for line in notes:
        print(line)
    print(f"failed_ratio = {len(failed)}/{attempted} = {len(failed) / attempted:.6g}"
          f" over {len(untraced) + len(traced)} passes")
    for line in failed[:20]:
        print(f"FAILED {line}")
    print("env " + json.dumps(env, sort_keys=True))

    out = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(workdir, f"result-trace{args.trace}.json"), "w") as fh:
        json.dump(dict(out, env=env, failed_checks=failed, notes=notes,
                       setups_s=setups,
                       passes=[{key: r[key] for key in ("setup_s", "wall_s", "pass_cpu_s",
                                                        "items_s", "peak_rss_mb", "cpu_s")}
                               for r in untraced + traced]),
                  fh, indent=2)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
