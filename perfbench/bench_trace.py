"""Span tracing of toricmmp's public entry points, installed from outside.

`Tracer.install()` wraps every entry point in `ENTRY_POINTS` and rebinds
the wrapper wherever a toricmmp module imported the name (and on the class
for methods such as `Fan.support_convex`); `uninstall()` puts every
original object back.  No profiling hook is used and vector helpers are
not wrapped: their time stays in the self time of the wrapped caller.

Each call becomes one span (name, layer, start, end, parent span, instance
id, raised flag) kept in flat arrays until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# layer -> entry points; the corpus layer only runs during set-up and is
# reported as a layer total, without per-function rows
ENTRY_POINTS = {
    "exactlin": ("solve_linear", "nullspace", "solve_nonneg", "lp_feasible",
                 "extreme_rays_of_halfspaces", "lattice_points",
                 "smith_normal_form"),
    "fan": ("cone_contains", "cone_covered", "Fan.support_convex",
            "validate_fan", "parallelepiped_points", "common_refinement",
            "resolve", "check_morphism"),
    "curves": ("walls", "contracted_walls", "ne_cone", "nefness"),
    "divisor": ("support_function", "pullback"),
    "mmp": ("run_mmp", "contract", "flip", "verify_negativity",
            "contract_face"),
    "sections": ("hilbert_basis", "graded_lattice_points",
                 "is_pseudo_effective", "zariski_decompose", "verify_ckm"),
    "singularities": ("classify_pair", "discrepancy"),
    "newton": ("model", "ambient_resolution"),
    "corpus": ("termination_instances", "affine_instances",
               "random_complete_fan", "random_affine_instance"),
    "io": ("load_fan", "dumps"),
    "cli": ("main",),
}
LAYERS = tuple(ENTRY_POINTS)
FN_LAYERS = tuple(layer for layer in LAYERS if layer != "corpus")

# the process-global lru caches, as (metric name, module, attribute)
CACHES = (("fan.cone_dim", "fan", "cone_dim"),
          ("fan.cone_span_perp", "fan", "cone_span_perp"),
          ("fan.cone_facets", "fan", "cone_facets"),
          ("fan.check_morphism", "fan", "check_morphism"),
          ("curves.walls", "curves", "walls"),
          ("curves.contracted_walls", "curves", "contracted_walls"),
          ("divisor.support_function", "divisor", "support_function"))

STEP_KINDS = ("divisorial", "flipping", "fano")
SETUP_INSTANCE = -1


def _toricmmp_modules():
    importlib.import_module("toricmmp.cli")  # imports every module
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "toricmmp"
                                  or name.startswith("toricmmp."))]


def cache_objects():
    """The original lru-cached functions, looked up before any wrapping."""
    return {name: getattr(importlib.import_module("toricmmp." + mod), attr)
            for name, mod, attr in CACHES}


def clear_caches(caches):
    for fn in caches.values():
        fn.cache_clear()


def cache_counts(caches):
    """name -> (hits, misses, entries)."""
    out = {}
    for name, fn in caches.items():
        info = fn.cache_info()
        out[name] = (info.hits, info.misses, info.currsize)
    return out


class Tracer:
    def __init__(self):
        self.names = [f"{layer}.{fn.split('.')[-1]}"
                      for layer in LAYERS for fn in ENTRY_POINTS[layer]]
        self.instance = SETUP_INSTANCE
        self.name_ix = array("i")
        self.parent = array("i")
        self.inst = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = bytearray()
        self.outermost = bytearray()  # no enclosing span of the same name
        self.steps = dict.fromkeys(STEP_KINDS, 0)
        self._stack = []
        self._active = [0] * len(self.names)
        self._saved = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, ix, fn):
        stack, active = self._stack, self._active
        name_ix, parent, inst = self.name_ix, self.parent, self.inst
        start, end = self.start, self.end
        raised, outermost = self.raised, self.outermost
        clock = time.perf_counter
        counts_steps = self.names[ix] == "mmp.run_mmp"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(name_ix)
            name_ix.append(ix)
            parent.append(stack[-1] if stack else -1)
            inst.append(self.instance)
            outermost.append(active[ix] == 0)
            raised.append(1)
            start.append(0.0)
            end.append(0.0)
            stack.append(span)
            active[ix] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised[span] = 0
            finally:
                t1 = clock()
                active[ix] -= 1
                stack.pop()
                start[span] = t0
                end[span] = t1
            if counts_steps:
                for s in result.steps:
                    self.steps[s.kind] += 1
            return result

        return traced

    def install(self):
        modules = _toricmmp_modules()
        ix = 0
        for layer in LAYERS:
            home = importlib.import_module("toricmmp." + layer)
            for entry in ENTRY_POINTS[layer]:
                if "." in entry:
                    cls_name, attr = entry.split(".")
                    owner = getattr(home, cls_name)
                    original = owner.__dict__[attr]
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(ix, original))
                else:
                    original = getattr(home, entry)
                    wrapper = self._wrap(ix, original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._saved.append((mod, attr, original))
                                setattr(mod, attr, wrapper)
                ix += 1
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- aggregation ----------------------------------------------------------

    def aggregate(self):
        """Sums per name and per layer, mergeable across processes."""
        n = len(self.name_ix)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        fn = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "raised": 0}
              for name in self.names}
        contracts_in_run_mmp = 0
        run_mmp_ix = self.names.index("mmp.run_mmp")
        contract_ix = self.names.index("mmp.contract")
        for i in range(n):
            row = fn[self.names[self.name_ix[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            row["raised"] += self.raised[i]
            if self.outermost[i]:
                row["busy_s"] += dur
            p = self.parent[i]
            if (self.name_ix[i] == contract_ix and p >= 0
                    and self.name_ix[p] == run_mmp_ix):
                contracts_in_run_mmp += 1
        return {"fn": fn, "steps": dict(self.steps),
                "contracts_in_run_mmp": contracts_in_run_mmp}


def scale_times(agg, factor):
    """Multiply the span times of an aggregate by a speed factor."""
    for row in agg["fn"].values():
        row["busy_s"] *= factor
        row["self_s"] *= factor
    return agg


def merge_aggregates(parts):
    out = None
    for part in parts:
        if out is None:
            out = {"fn": {k: dict(v) for k, v in part["fn"].items()},
                   "steps": dict(part["steps"]),
                   "contracts_in_run_mmp": part["contracts_in_run_mmp"]}
            continue
        for name, row in part["fn"].items():
            for key, value in row.items():
                out["fn"][name][key] += value
        for kind, count in part["steps"].items():
            out["steps"][kind] += count
        out["contracts_in_run_mmp"] += part["contracts_in_run_mmp"]
    return out


def layer_metrics(agg, cache):
    """Per-layer metric dict from merged aggregates and cache counters
    (name -> (hits, misses, entries), counted from cleared caches and summed
    over processes)."""
    out = {}
    for layer in LAYERS:
        rows = [row for name, row in agg["fn"].items()
                if name.split(".")[0] == layer]
        out[f"{layer}.calls"] = sum(r["calls"] for r in rows)
        out[f"{layer}.self_s"] = sum(r["self_s"] for r in rows)
        out[f"{layer}.raised"] = sum(r["raised"] for r in rows)
    for name, row in agg["fn"].items():
        if name.split(".")[0] in FN_LAYERS:
            out[f"{name}.calls"] = row["calls"]
            out[f"{name}.busy_s"] = row["busy_s"]
    steps = agg["steps"]
    for kind in STEP_KINDS:
        out[f"mmp.steps.{kind}"] = steps[kind]
    total_steps = sum(steps.values())
    out["mmp.steps.total"] = total_steps
    out["mmp.contracts_per_step"] = (agg["contracts_in_run_mmp"] / total_steps
                                     if total_steps else 0.0)
    entries = 0
    for name, _mod, _attr in CACHES:
        hits, misses, size = cache[name]
        out[f"cache.{name}.hit_ratio"] = (hits / (hits + misses)
                                          if hits + misses else 0.0)
        entries += size
    out["cache.entries"] = entries
    return out
