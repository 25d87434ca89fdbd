"""Span tracing for the benchmark's traced run.

Spans are recorded from the benchmark's own code: each listed entry point of
``wildstrat`` is replaced, for the duration of one traced pass, by a wrapper
that records a span (name, start, end, parent span, op id).  A function is
wrapped at every module attribute of ``wildstrat.*`` that *is* it and at every
class attribute that *is* it, so call sites reached through ``from .x import f``
(or through an alias such as ``__rmul__ = __mul__``) cannot escape the trace.

Spans stay in memory and are written out once, after the pass, as gzipped
JSON lines; a parent or op id of -1 means none.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("linalg", "rootdata", "elements", "strat", "orbit", "parab", "uea",
          "singmod", "quant", "cli")

# Spanned entry points: the object path inside wildstrat, which is also the
# metric prefix; a class path means its __init__.
SPANS = (
    "linalg.minimal_polynomial", "linalg.rref", "linalg.solve", "linalg.nullspace",
    "linalg.rank", "linalg.det", "linalg.inverse", "rootdata.root_datum",
    "elements.is_semisimple", "elements.semisimple_split", "elements.exp_ad",
    "orbit.birkhoff_normalize", "orbit.centralizer", "strat.LeviPoset",
    "strat.enumerate_filtrations", "strat.weyl_orbits_and_quotient",
    "strat.dual_stratum_contains", "parab.enumerate_parabolic",
    "parab.enumerate_parabolic_filtrations", "parab.is_nonsingular", "parab.dual_basis",
    "singmod.SingularityModule.dual_block", "singmod.SingularityModule.apply_letter",
    "singmod.SingularityModule.shapovalov_block", "singmod.ShapovalovBlock.rank",
    "singmod.ShapovalovBlock.determinant", "singmod.factorize_block", "singmod.reassemble",
    "quant.inverse_shapovalov_series", "quant.first_order_check", "quant.star_bidiff",
    "quant.associativity_check", "quant.V0Context.project_word",
    "uea.UEAContext.normal_form", "cli.main",
)

# Counted only, no span: the per-call cost of a span would swamp it.
COUNTS = (("linalg.cpoly_mul", "linalg.CPoly.__mul__"),)

# Span name of one benchmark op; its self time is the benchmark's own glue.
OP_SPAN = "bench.op"


def metric_names():
    """Every per-layer metric the traced run reports, in report order."""
    names = []
    for name in SPANS:
        names += [f"{name}.calls", f"{name}.self_s", f"{name}.total_s"]
    names += [f"{name}.calls" for name, _ in COUNTS]
    names += ["linalg.rref.max_cells", "singmod.block_dim.max", "singmod.block_dim.sum",
              "uea.normal_form.distinct_ratio"]
    names += [f"{layer}.self_s" for layer in LAYERS]
    names += ["bench.self_s", "trace.op_s", "trace.overhead_s"]
    return names


def metric_unit(name):
    return "s" if name.endswith("_s") else ("ratio" if name.endswith("_ratio") else "count")


def _resolve(path):
    """The function at a path like 'singmod.ShapovalovBlock.rank'; a class gives its __init__."""
    parts = path.split(".")
    obj = sys.modules["wildstrat." + parts[0]]
    for part in parts[1:]:
        obj = getattr(obj, part)
    return obj.__init__ if isinstance(obj, type) else obj


class Tracer:
    """Installs span wrappers, records spans and counters, restores on exit.

    Spans are kept column-wise (one array per field) to stay small: a traced
    ``quantize`` pass records several hundred thousand.  A call nested in a
    call of the same function (the recursion of ``normal_form``) is counted
    but opens no span of its own; its time stays in the outer span.
    """

    def __init__(self):
        self.names = list(SPANS) + [OP_SPAN]
        self.ids = array("q")
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self.stack = [-1]
        self.next_id = 0
        self.op_id = -1
        self.enabled = False     # calls between ops (the benchmark's checks) are not traced
        self.counts = defaultdict(int)
        self.rref_max_cells = 0
        self.block_dims = []
        self.nf_words = set()
        self._patched = []

    # -- installation ----------------------------------------------------------

    def install(self):
        wrappers = {}
        for name in SPANS:
            fn = _resolve(name)
            wrappers[id(fn)] = self._span_wrapper(name, fn)
        for name, path in COUNTS:
            fn = _resolve(path)
            wrappers[id(fn)] = self._count_wrapper(name, fn)
        for modname, module in list(sys.modules.items()):
            if modname != "wildstrat" and not modname.startswith("wildstrat."):
                continue
            for owner in [module] + [v for v in vars(module).values()
                                     if isinstance(v, type) and v.__module__ == modname]:
                for attr, value in list(vars(owner).items()):
                    wrapper = wrappers.get(id(value))
                    if wrapper is not None:
                        self._patched.append((owner, attr, value))
                        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched = []

    def _record(self, sid, name_id, start, end, parent):
        self.ids.append(sid)
        self.name_ids.append(name_id)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.ops.append(self.op_id)

    def _span_wrapper(self, name, fn):
        tracer = self
        name_id = self.names.index(name)
        hook = _HOOKS.get(name)
        cache_info = getattr(fn, "cache_info", None)
        depth = 0   # open calls of this function

        def wrapper(*args, **kwargs):
            nonlocal depth
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if depth:
                tracer.counts[name] += 1
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, result)
                return result
            sid = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1]
            tracer.stack.append(sid)
            depth += 1
            misses = cache_info().misses if cache_info else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                depth -= 1
                tracer.stack.pop()
            # an lru_cache hit is not a build: only cold calls count
            if cache_info is None or cache_info().misses != misses:
                tracer.counts[name] += 1
                tracer._record(sid, name_id, start, end, parent)
            if hook is not None:
                hook(tracer, args, result)
            return result

        if cache_info is not None:
            wrapper.cache_clear = fn.cache_clear
            wrapper.cache_info = fn.cache_info
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- op spans ------------------------------------------------------------

    def begin_op(self, op_id):
        self.op_id = op_id
        sid = self.next_id
        self.next_id += 1
        self.stack.append(sid)
        self.enabled = True
        return sid, time.perf_counter()

    def end_op(self, token):
        sid, start = token
        end = time.perf_counter()
        self.enabled = False
        self.stack.pop()
        self._record(sid, len(self.names) - 1, start, end, -1)
        self.op_id = -1

    # -- aggregation ----------------------------------------------------------

    def breakdown(self, overhead_s):
        """Per-layer metrics: calls / self / total per span name, layer sums."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child_time = defaultdict(float)
        for parent, d in zip(self.parents, durations):
            if parent >= 0:
                child_time[parent] += d
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        for sid, name_id, d in zip(self.ids, self.name_ids, durations):
            name = self.names[name_id]
            self_s[name] += d - child_time[sid]
            total_s[name] += d
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = self.counts[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.total_s"] = total_s[name]
        for name, _ in COUNTS:
            out[f"{name}.calls"] = self.counts[name]
        out["linalg.rref.max_cells"] = self.rref_max_cells
        out["singmod.block_dim.max"] = max(self.block_dims, default=0)
        out["singmod.block_dim.sum"] = sum(self.block_dims)
        nf_calls = self.counts["uea.UEAContext.normal_form"]
        out["uea.normal_form.distinct_ratio"] = len(self.nf_words) / nf_calls if nf_calls else 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                         if k.split(".", 1)[0] == layer)
        out["bench.self_s"] = self_s[OP_SPAN]
        out["trace.op_s"] = total_s[OP_SPAN]
        out["trace.overhead_s"] = overhead_s
        return out

    def write(self, path):
        """All spans as gzipped JSON lines: [id, name, start, end, parent, op]."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for row in zip(self.ids, self.name_ids, self.starts, self.ends,
                           self.parents, self.ops):
                fh.write(json.dumps([row[0], self.names[row[1]], *row[2:]]) + "\n")


def _rref_hook(tracer, args, result):
    m = args[0]
    cells = len(m) * (len(m[0]) if m else 0)
    if cells > tracer.rref_max_cells:
        tracer.rref_max_cells = cells


def _block_hook(tracer, args, result):
    tracer.block_dims.append(result.dim())


def _normal_form_hook(tracer, args, result):
    tracer.nf_words.add(tuple(args[1]))


_HOOKS = {
    "linalg.rref": _rref_hook,
    "singmod.SingularityModule.dual_block": _block_hook,
    "singmod.SingularityModule.shapovalov_block": _block_hook,
    "uea.UEAContext.normal_form": _normal_form_hook,
}
