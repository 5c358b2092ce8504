"""The benchmark's per-layer trace hooks still bind to the package.

`perfbench/tracing.install` wraps package functions by the names they are
bound to, so a function that moves or is renamed leaves its metric at zero
without an error.  In a fresh interpreter that writes no bytecode (so
`perfbench/` is left as it is), this installs the hooks on a new Tracer,
wraps `suites.identity_residual` with `perfbench/child.py`'s own item
timer, runs a default `verify` on seed 0, a small `eval --action tmg` and
a short `holonomy`, and reads the pass's per-layer metrics.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

PASS = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import child, tracing
from cartanforms import cli, suites
from cartanforms.actions import analytic_coframe
from cartanforms.algebra import build_algebra
from cartanforms.calculus import save_fields

so31 = build_algebra("so31")
save_fields({fields!r}, so31, {{"e": analytic_coframe(so31, seed=0)}})
with open({path!r}, "w") as fh:
    json.dump({{"segments": [{{"from": [0, 0], "to": [0.1, 0]}},
                             {{"from": [0.1, 0], "to": [0.1, 0.1]}}]}}, fh)
tracer = tracing.Tracer(0)
tracing.install(tracer)
items = []
child._time_items(suites, "identity_residual", items)
rcs = [child._run_command(cli, argv)["rc"] for argv in (
    ["verify", "--seeds", "0"],
    ["eval", "--fields", {fields!r}, "--action", "tmg", "--mu", "5",
     "--grid", "6"],
    ["holonomy", "--model", "sphere", "--path", {path!r}, "--steps", "20"])]
print(json.dumps({{"rcs": rcs, "items": len(items),
                  "layers": tracing.layer_metrics(tracer)}}))
"""

# run.py adds these from the pass's process times, not from the spans
FROM_PROCESS_TIMES = {"process.cpu_s", "process.wall_s", "trace.overhead_s"}


def test_trace_hooks_bind_to_the_package(tmp_path):
    script = PASS.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"),
                         fields=str(tmp_path / "coframe.json"),
                         path=str(tmp_path / "path.json"))
    out = subprocess.run([sys.executable, "-B", "-c", script],
                         capture_output=True, text=True, timeout=300,
                         check=True).stdout
    run = json.loads(out.splitlines()[-1])
    assert run["rcs"] == [0, 0, 0]
    layers = run["layers"]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(layers) == {m["name"] for m in bench["per_layer"]} \
        - FROM_PROCESS_TIMES
    # the default battery: 5 identities x 3 algebras x 3 couplings
    assert layers["actions.identity_residual.calls"] == run["items"] == 45
    for name in ("actions.levi_civita.solve.calls", "cartan.matrices.calls",
                 "cartan.expm.calls"):
        assert layers[name] > 0, name
