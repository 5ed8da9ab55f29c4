"""Span tracing of hvconic's layers, installed from outside the program.

The tracer replaces each traced public function by a wrapper at every
hvconic module that binds the function's name (``cli`` and ``checks``
import their callees by name, so patching the defining module alone would
miss those calls).  While active, a wrapper records one span per call:
layer name, start, end, busy time, parent span and operation index.  Spans
stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Traced functions, named "<module>.<function>" after their defining module.
TRACED = (
    "cli.run",
    "reconstruct.load_problem",
    "reconstruct.local_search",
    "reconstruct.exhaustive",
    "reconstruct.write_result",
    "grid.parse_hvset",
    "grid.format_hvset",
    "grid.sample_hv_convex",
    "grid.enumerate_hv_connected",
    "grid.combine",
    "grid.dilate",
    "grid.min_cover",
    "conic.conic_of",
    "conic.sup_norm_diff",
    "conic.l1_norm_diff",
    "conic.field_to_csv",
    "conic.field_to_pgm",
    "metrics.hausdorff",
    "metrics.tube_area",
    "checks.check_concavity",
    "checks.check_area_superadditivity",
    "checks.check_stability_bound",
    "checks.check_convergence",
    "checks.check_dilation_bound",
    "checks.check_polyline_bound",
)

# verify mode -> checker function in hvconic.checks
CHECKERS = {
    "concavity": "check_concavity",
    "superadd": "check_area_superadditivity",
    "stability": "check_stability_bound",
    "convergence": "check_convergence",
    "dilation": "check_dilation_bound",
    "polyline": "check_polyline_bound",
}

MODULES = ("hvconic", "hvconic.cli", "hvconic.checks", "hvconic.conic",
           "hvconic.grid", "hvconic.metrics", "hvconic.reconstruct")

# span record fields
NAME, START, END, PARENT, OP, BUSY, INFO = range(7)


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.op_keys: list[str] = []  # key of each traced operation, by span OP index
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []  # module, name, original, wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if not self._patches:
            mods = [importlib.import_module(m) for m in MODULES]
            for name in TRACED:
                module, func = name.split(".")
                orig = getattr(sys.modules["hvconic." + module], func)
                # a generator is busy only while it runs, inside next()
                wrap = self._wrap_gen if inspect.isgeneratorfunction(orig) else self._wrap
                wrapper = wrap(name, orig)
                for mod in mods:
                    for attr, value in vars(mod).items():
                        if value is orig:
                            self._patches.append((mod, attr, orig, wrapper))
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig, _ in self._patches:
            setattr(mod, attr, orig)

    # -- recording -----------------------------------------------------------

    def _begin(self, name: str, t0: float) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, t0, t0, parent, self.op, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = tracer._begin(name, perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                rec[BUSY] = rec[END] - rec[START]
                tracer._stack.pop()
            steps = getattr(result, "steps", None)
            if steps is not None:
                rec[INFO] = steps
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_gen(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            return _TracedIter(tracer, name, it) if tracer.active else it

        traced.__wrapped__ = fn
        return traced

    # -- summaries -----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict]:
        """Per layer: calls, busy and self seconds, summed span info, and the
        exact number of calls made by each operation (as a histogram)."""
        child_busy = defaultdict(float)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child_busy[rec[PARENT]] += rec[BUSY]
        out: dict[str, dict] = {}
        per_op: dict[str, Counter] = defaultdict(Counter)
        for idx, rec in enumerate(self.spans):
            row = out.setdefault(rec[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "info": 0})
            row["calls"] += 1
            row["busy_s"] += rec[BUSY]
            row["self_s"] += rec[BUSY] - child_busy[idx]
            row["info"] += rec[INFO] or 0
            per_op[rec[NAME]][rec[OP]] += 1
        for name, row in out.items():
            row["calls_per_op_histogram"] = dict(Counter(per_op[name].values()))
        return out

    def dump(self, path: str, header: dict) -> None:
        doc = dict(header)
        doc["op_keys"] = self.op_keys
        doc["span_fields"] = ["name", "start", "end", "parent", "op", "busy", "info"]
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")


class _TracedIter:
    """Iterator proxy that records one span for a generator's whole life.

    The span is on the stack only while the generator runs, so calls the
    consumer makes between items are not charged to it.
    """

    def __init__(self, tracer: Tracer, name: str, it):
        self._tracer = tracer
        self._name = name
        self._it = it
        self._rec = None
        self._idx = -1

    def __iter__(self):
        return self

    def __next__(self):
        tr = self._tracer
        t0 = perf_counter()
        if self._rec is None:
            self._rec = tr._begin(self._name, t0)
            self._idx = len(tr.spans) - 1
        else:
            tr._stack.append(self._idx)
        try:
            item = next(self._it)
        finally:
            t1 = perf_counter()
            self._rec[END] = t1
            self._rec[BUSY] += t1 - t0
            tr._stack.pop()
        self._rec[INFO] = (self._rec[INFO] or 0) + 1
        return item


def _mean(total: float, count: int, scale: float) -> float:
    return total / count * scale if count else 0.0


def layer_metrics(totals: dict[str, dict], ops: int, anneal_exact: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, by name, as (value, unit).

    A layer the workload never calls reads 0.
    """

    def row(name):
        return totals.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "info": 0})

    def per_call(name, scale, key="busy_s"):
        r = row(name)
        return _mean(r[key], r["calls"], scale)

    ls, ex, en = row("reconstruct.local_search"), row("reconstruct.exhaustive"), row("grid.enumerate_hv_connected")
    l1, csv, pgm = row("conic.l1_norm_diff"), row("conic.field_to_csv"), row("conic.field_to_pgm")
    m = {
        "reconstruct.anneal_us_per_step": (_mean(ls["busy_s"], ls["info"], 1e6), "us"),
        "reconstruct.anneal_steps_per_call": (_mean(ls["info"], ls["calls"], 1.0), "count"),
        "reconstruct.anneal_exact": (float(anneal_exact), "count"),
        "reconstruct.exhaustive_ms": (per_call("reconstruct.exhaustive", 1e3), "ms"),
        "reconstruct.exhaustive_candidates_per_s": (_mean(ex["info"], ex["busy_s"], 1.0), "1/s"),
        "grid.enumerate_sets_per_s": (_mean(en["info"], en["busy_s"], 1.0), "1/s"),
        "conic.l1_norm_diff_us": (per_call("conic.l1_norm_diff", 1e6), "us"),
        "conic.l1_norm_diff_calls_per_op": (_mean(l1["calls"], ops, 1.0), "count"),
        "conic.sup_norm_diff_us": (per_call("conic.sup_norm_diff", 1e6), "us"),
        "conic.conic_of_us": (per_call("conic.conic_of", 1e6), "us"),
        "metrics.hausdorff_us": (per_call("metrics.hausdorff", 1e6), "us"),
        "grid.min_cover_us": (per_call("grid.min_cover", 1e6), "us"),
        "grid.combine_us": (per_call("grid.combine", 1e6), "us"),
        "grid.sample_us": (per_call("grid.sample_hv_convex", 1e6), "us"),
        "grid.dilate_ms": (per_call("grid.dilate", 1e3), "ms"),
        "metrics.tube_area_ms": (per_call("metrics.tube_area", 1e3), "ms"),
    }
    for mode, func in CHECKERS.items():
        m[f"checks.{mode}_self_ms"] = (per_call("checks." + func, 1e3, "self_s"), "ms")
    m["conic.field_export_ms"] = (_mean(csv["busy_s"] + pgm["busy_s"], csv["calls"], 1e3), "ms")
    m["grid.parse_hvset_us"] = (per_call("grid.parse_hvset", 1e6), "us")
    m["grid.format_hvset_us"] = (per_call("grid.format_hvset", 1e6), "us")
    m["reconstruct.load_problem_ms"] = (per_call("reconstruct.load_problem", 1e3), "ms")
    m["reconstruct.write_result_ms"] = (per_call("reconstruct.write_result", 1e3), "ms")
    m["cli.self_ms_per_op"] = (_mean(row("cli.run")["self_s"], ops, 1e3), "ms")
    return m

