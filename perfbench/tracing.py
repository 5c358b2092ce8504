"""Per-layer tracing of the cartanforms package from outside the package.

`install` wraps the public functions of every package module at every
place they are bound: the defining module, each module that copied the
name with `from .x import name`, module-level dispatch tables, and the
package namespace.  A few methods the per-layer metrics need are wrapped on
their class.  Each call records a span (name, start, end, parent, pass id);
spans stay in memory until `layer_metrics` reduces them at the end of the
pass.  Self time is a span's duration minus the time of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

MODULES = ("exactla", "algebra", "calculus", "cartan", "actions", "suites",
           "cli")

# metric group -> span names it covers
GROUPS = {
    "algebra.forms": ("algebra.invariant_form", "algebra.killing_form",
                      "algebra.star_form"),
    "actions.exact_functionals": ("actions.cs_action", "actions.palatini_action",
                                  "actions.torsion_pairing",
                                  "actions.cs_omega_torsion_action",
                                  "actions.mm_action"),
}

# (metric, statistic) pairs reported from spans; statistic is calls,
# self_s (span minus children) or total_s (outermost spans of the group)
SPAN_METRICS = {
    "calculus.lie_bracket_forms": ("calls", "self_s"),
    "calculus.beta_pair": ("calls", "self_s"),
    "calculus.exterior_d": ("calls", "self_s"),
    "calculus.random_form": ("calls", "self_s"),
    "algebra.forms": ("calls", "self_s"),
    "exactla.det": ("calls", "self_s"),
    "algebra.build_algebra": ("calls", "total_s"),
    "actions.identity_residual": ("calls", "total_s"),
    "actions.exact_functionals": ("calls", "total_s"),
    "cartan.curvature": ("calls", "total_s"),
    "actions.levi_civita.solve": ("calls", "self_s"),
    "calculus.evaluate_mesh": ("calls", "self_s"),
    "actions.tmg_action": ("calls", "total_s"),
    "cartan.coframe_check": ("calls", "total_s"),
    "cartan.holonomy": ("calls", "total_s"),
    "cartan.matrices": ("calls", "self_s"),
    "cartan.expm": ("calls", "self_s"),
    "suites.run_suite": ("self_s",),
    "suites.emit_report": ("total_s",),
    "cli.main": ("self_s",),
    "calculus.load_fields": ("total_s",),
}

# counters recorded at the wrapped boundaries: name -> unit
COUNTERS = {
    "calculus.kernel.product_terms": "count",
    "calculus.kernel.output_modes": "count",
    "calculus.kernel.max_input_modes": "count",
    "actions.levi_civita.solve.points": "count",
    "calculus.evaluate_mesh.points": "count",
    "cartan.holonomy.steps": "count",
    "suites.checks": "count",
    "suites.failed": "count",
}


def metric_units():
    """Every per-layer metric the traced pass reports, with its unit."""
    units = {}
    for name, stats in SPAN_METRICS.items():
        for stat in stats:
            units[f"{name}.{stat}"] = "count" if stat == "calls" else "s"
    units.update(COUNTERS)
    units["calculus.kernel.kept_ratio"] = "ratio"
    units["calculus.random_form.distinct_ratio"] = "ratio"
    for module in MODULES:
        units[f"{module}.self_s"] = "s"
    return units


class Tracer:
    def __init__(self, pass_id):
        self.pass_id = pass_id
        self.spans = []      # [name, start, end, parent index]
        self._stack = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.random_form_calls = 0
        self.random_form_keys = set()

    def wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- counters taken from arguments and results ---------------------------

    def _kernel(self, w, m, out):
        wm = [len(p.nums) for p in w.comps.values()]
        mm = [len(p.nums) for p in m.comps.values()]
        c = self.counts
        c["calculus.kernel.product_terms"] += sum(wm) * sum(mm)
        c["calculus.kernel.output_modes"] += sum(len(p.nums)
                                                 for p in out.comps.values())
        c["calculus.kernel.max_input_modes"] = max(
            c["calculus.kernel.max_input_modes"], max(wm + mm, default=0))

    def after_bracket(self, args, kwargs, out):
        self._kernel(args[0], args[1], out)

    def after_pair(self, args, kwargs, out):
        self._kernel(args[1], args[2], out)

    def random_form_hook(self, signature):
        def after(args, kwargs, out):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            key = tuple((k, getattr(v, "name", v))
                        for k, v in bound.arguments.items())
            self.random_form_calls += 1
            self.random_form_keys.add(repr(key))
        return after

    def after_solve(self, args, kwargs, out):
        self.counts["actions.levi_civita.solve.points"] += int(args[1][0].size)

    def after_mesh(self, args, kwargs, out):
        self.counts["calculus.evaluate_mesh.points"] += int(out.size)

    def after_holonomy(self, args, kwargs, out):
        self.counts["cartan.holonomy.steps"] += int(out.steps)

    def after_run_suite(self, args, kwargs, out):
        results, _ = out
        self.counts["suites.checks"] += len(results)
        self.counts["suites.failed"] += sum(not r.passed for r in results)


def _public_callables(module):
    for attr, obj in vars(module).items():
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield attr, obj


def install(tracer, package="cartanforms"):
    """Wrap every public function of the package at all of its bindings."""
    pkg = importlib.import_module(package)
    mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
    hooks = {
        "calculus.lie_bracket_forms": tracer.after_bracket,
        "calculus.beta_pair": tracer.after_pair,
        "calculus.random_form": tracer.random_form_hook(
            inspect.signature(mods["calculus"].random_form)),
        "cartan.holonomy": tracer.after_holonomy,
        "suites.run_suite": tracer.after_run_suite,
    }
    replace = {}
    for short, mod in mods.items():
        for attr, fn in _public_callables(mod):
            name = f"{short}.{attr}"
            replace[id(fn)] = (fn, tracer.wrap(name, fn, hooks.get(name)))
    expm = mods["cartan"].expm
    replace[id(expm)] = (expm, tracer.wrap("cartan.expm", expm))

    for site in list(mods.values()) + [pkg]:
        for attr, obj in list(vars(site).items()):
            if attr.startswith("__"):
                continue
            if isinstance(obj, dict):
                for key, value in list(obj.items()):
                    hit = replace.get(id(value))
                    if hit and hit[0] is value:
                        obj[key] = hit[1]
                continue
            hit = replace.get(id(obj))
            if hit and hit[0] is obj:
                setattr(site, attr, hit[1])

    trig = mods["calculus"].TrigPoly
    trig.evaluate_mesh = tracer.wrap("calculus.evaluate_mesh",
                                     trig.evaluate_mesh, tracer.after_mesh)
    lc = mods["actions"].LeviCivitaConnection
    lc.solve = tracer.wrap("actions.levi_civita.solve", lc.solve,
                           tracer.after_solve)
    point = mods["cartan"].PointConnection
    init = point.__init__

    @functools.wraps(init)
    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.matrices = tracer.wrap("cartan.matrices", self.matrices)

    point.__init__ = traced_init


def dump_spans(tracer, path):
    """Write the pass's spans as [name, start, end, parent, pass id] rows."""
    with open(path, "w") as fh:
        json.dump([s + [tracer.pass_id] for s in tracer.spans], fh)


def layer_metrics(tracer):
    """Reduce the spans and counters of one pass to per-layer metrics."""
    spans = tracer.spans
    group_of = {}
    for group, names in GROUPS.items():
        for n in names:
            group_of[n] = group
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start

    stats = {}
    module_self = dict.fromkeys(MODULES, 0.0)
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        self_s = dur - child[i]
        module_self[name.split(".", 1)[0]] += self_s
        key = group_of.get(name, name)
        if key not in SPAN_METRICS:
            continue
        s = stats.setdefault(key, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        s["calls"] += 1
        s["self_s"] += self_s
        p = parent
        while p >= 0 and group_of.get(spans[p][0], spans[p][0]) != key:
            p = spans[p][3]
        if p < 0:
            s["total_s"] += dur

    out = {}
    for name, wanted in SPAN_METRICS.items():
        s = stats.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for stat in wanted:
            out[f"{name}.{stat}"] = s[stat]
    out.update(tracer.counts)
    terms = tracer.counts["calculus.kernel.product_terms"]
    out["calculus.kernel.kept_ratio"] = (
        tracer.counts["calculus.kernel.output_modes"] / terms if terms else 0.0)
    calls = tracer.random_form_calls
    out["calculus.random_form.distinct_ratio"] = (
        len(tracer.random_form_keys) / calls if calls else 0.0)
    for module, value in module_self.items():
        out[f"{module}.self_s"] = value
    return out
