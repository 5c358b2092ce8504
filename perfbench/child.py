"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py PLAN_JSON LAUNCH_TIME

Set-up imports cartanforms from the checkout's `src/`, builds the pass's
algebras with a cold `build_algebra` cache and reads its input files.  The
pass then calls `cartanforms.cli.main` once per planned command, capturing
its output.  LAUNCH_TIME is the parent's `time.monotonic()` just before it
started this process, so set-up time includes interpreter start-up.

Prints one JSON line: set-up time, the pass's wall and CPU time, per-item
CPU times, peak RSS, whole-process CPU time, each command's exit code and
output, and (traced passes) the per-layer metrics.

Pass and item times are CPU times (`time.process_time`, plus reaped child
processes for the pass).  The pass is one thread of Python and one-thread
BLAS, so on an idle host its CPU time is its wall time; on a shared host the
kernel leaves out the time the hypervisor runs other guests on this vCPU
(steal), which wall time counts at random.

An item is one `identity_residual` call, the unit of every battery the
workloads run; commands outside a battery count in the pass time only.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def _corrupt_so31(build_algebra):
    """Algebra factory with one so31 structure constant broken (criterion 9)."""
    import dataclasses
    from fractions import Fraction

    real = build_algebra("so31")
    structure = [[list(row) for row in plane] for plane in real.structure]
    structure[0][3][4] += 1
    structure[3][0][4] -= 1
    table = tuple(
        tuple(tuple((c, Fraction(x)) for c, x in enumerate(structure[a][b]) if x != 0)
              for b in range(real.dim))
        for a in range(real.dim))
    corrupted = dataclasses.replace(
        real, structure=tuple(tuple(tuple(r) for r in p) for p in structure),
        bracket_table=table)
    return lambda name: corrupted if name == "so31" else build_algebra(name)


def _cpu_time():
    """CPU time of this process and of the child processes it has reaped."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _time_items(module, attr, items):
    """Wrap module.attr so each call appends its CPU time to `items`."""
    fn = getattr(module, attr)

    def timed(*args, **kwargs):
        t0 = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            items.append(time.process_time() - t0)

    setattr(module, attr, timed)


def _run_command(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            traceback.print_exc()
            rc = None
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()[-4000:]}


def main(plan_path, launch):
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    from cartanforms import algebra, cli, suites

    tracer = None
    if plan["trace"]:
        sys.path.insert(0, HERE)
        import tracing
        tracer = tracing.Tracer(plan["pass_id"])
        tracing.install(tracer)

    items = []
    _time_items(suites, "identity_residual", items)
    if plan.get("inject") == "corrupt_so31":
        suites.algebra_factory = _corrupt_so31(algebra.build_algebra)

    for name in plan["algebras"]:
        algebra.build_algebra(name)
    for path in plan["inputs"]:
        with open(path) as fh:
            json.load(fh)
    setup_end = time.monotonic()

    t0 = time.perf_counter()
    c0 = _cpu_time()
    outputs = {}
    for cmd in plan["commands"]:
        outputs[cmd["name"]] = _run_command(cli, cmd["argv"])
    wall = time.perf_counter() - t0
    pass_cpu = _cpu_time() - c0

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "setup_s": setup_end - launch,
        "wall_s": wall,
        "pass_cpu_s": pass_cpu,
        "items_s": items,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "outputs": outputs,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        tracing.dump_spans(tracer, plan["spans_out"])
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
