"""Spans around the package's public functions, and per-layer figures.

The traced run replaces each function named in LAYERS, in every loaded
pdsflow module that refers to it, by a wrapper that records a span: its
name, start, end, parent span and the op id it ran under, plus the
layer's counters read off the call's result.  Spans stay in memory and
are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict


def _field(obj, name):
    return obj[name] if isinstance(obj, dict) else getattr(obj, name)


def _saturation_counts(result):
    return {"transitions_added": len(result.trace),
            "constraints": len(result.constraints)}


def _solver_counts(sol):
    return {"applications": _field(sol.stats, "applications"),
            "changes": _field(sol.stats, "changes")}


# (module, function) -> (layer span name, counters read off the result)
LAYERS = {
    ("pdsflow.cli", "main"): ("cli.main", None),
    ("pdsflow.encode", "load_icfg"): ("encode.load_icfg", None),
    ("pdsflow.encode", "encode_icfg"): ("encode.encode_icfg", None),
    ("pdsflow.encode", "analysis_report"): (
        "encode.analysis_report",
        lambda table: {"reachable_nodes": sum(v is not None for v in table.values())},
    ),
    ("pdsflow.encode", "render_report"): ("encode.render_report", None),
    ("pdsflow.saturation", "pre_star"): ("saturation.pre_star", _saturation_counts),
    ("pdsflow.saturation", "post_star"): ("saturation.post_star", _saturation_counts),
    ("pdsflow.solver", "solve_least"): ("solver.solve_least", _solver_counts),
    ("pdsflow.automaton", "query"): ("automaton.query", None),
    ("pdsflow.automaton", "load_automaton"): ("automaton.load_automaton", None),
    ("pdsflow.pds", "load_pds"): ("pds.load_pds", lambda pds: {"rules": len(pds.rules)}),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, op, name, start, end, counts]
        self._stack = []
        self.op = None

    @contextlib.contextmanager
    def span(self, name, op=None):
        """A span; given ``op``, it is the root of that op's spans."""
        if op is not None:
            self.op = op
        record = [len(self.spans), self._stack[-1] if self._stack else None,
                  self.op, name, time.perf_counter(), None, {}]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record[6]
        finally:
            self._stack.pop()
            record[5] = time.perf_counter()

    def wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts.update(counter(result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Route every reference to a LAYERS function through a wrapper,
        and put the originals back on exit."""
        for module, _ in LAYERS:
            importlib.import_module(module)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "pdsflow" or n.startswith("pdsflow."))]
        patched = []
        for (module, fname), (name, counter) in LAYERS.items():
            original = getattr(sys.modules[module], fname)
            traced = self.wrap(original, name, counter)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, traced)
                        patched.append((m, attr, original))
        try:
            yield
        finally:
            for m, attr, original in patched:
                setattr(m, attr, original)

    def per_op(self):
        """{op: {layer: {"self": s, "total": s, counts...}}}, summed over
        the op's calls of each layer; the root span is named "op"."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s[1] is not None:
                child_time[s[1]] += s[5] - s[4]
        ops = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
        for s in self.spans:
            total = s[5] - s[4]
            layer = ops[s[2]][s[3]]
            layer["calls"] += 1
            layer["total"] += total
            layer["self"] += total - child_time[s[0]]
            for key, value in s[6].items():
                layer[key] += value
        return ops

    def dump(self, path):
        keys = ("id", "parent", "op", "name", "start", "end", "counts")
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps(dict(zip(keys, s))) + "\n")


MS = 1000.0

# per-layer metric -> (layer name or name prefix, field, scale, unit)
PER_LAYER = {
    "saturation.post_star_ms": ("saturation.post_star", "self", MS, "ms"),
    "saturation.pre_star_ms": ("saturation.pre_star", "self", MS, "ms"),
    "saturation.transitions_added": ("saturation", "transitions_added", 1, "count"),
    "saturation.constraints": ("saturation", "constraints", 1, "count"),
    "solver.solve_least_ms": ("solver.solve_least", "self", MS, "ms"),
    "solver.applications": ("solver.solve_least", "applications", 1, "count"),
    "solver.changes": ("solver.solve_least", "changes", 1, "count"),
    "encode.load_icfg_ms": ("encode.load_icfg", "self", MS, "ms"),
    "encode.encode_icfg_ms": ("encode.encode_icfg", "self", MS, "ms"),
    "encode.analysis_report_ms": ("encode.analysis_report", "self", MS, "ms"),
    "encode.render_report_ms": ("encode.render_report", "self", MS, "ms"),
    "encode.reachable_nodes": ("encode.analysis_report", "reachable_nodes", 1, "count"),
    "automaton.query_ms": ("automaton.query", "self", MS, "ms"),
    "automaton.load_automaton_ms": ("automaton.load_automaton", "self", MS, "ms"),
    "pds.load_pds_ms": ("pds.load_pds", "self", MS, "ms"),
    "pds.rules": ("pds.load_pds", "rules", 1, "count"),
    "cli.main_ms": ("cli.main", "total", MS, "ms"),
    "cli.self_ms": ("cli.main", "self", MS, "ms"),
    "trace.op_ms": ("op", "total", MS, "ms"),
    "trace.unattributed_ms": ("op", "self", MS, "ms"),
}


def _median(values):
    return statistics.median(values) if values else 0


def layer_metrics(ops: dict, extra_counts: dict) -> dict:
    """Each metric is the median, over the ops that reach its layer, of
    the layer's per-op figure; 0 when no op reaches it."""
    metrics = {}
    for metric, (layer, key, scale, unit) in PER_LAYER.items():
        values = []
        for layers in ops.values():
            hit = [v[key] for n, v in layers.items()
                   if n == layer or n.startswith(layer + ".")]
            if hit:
                values.append(sum(hit) * scale)
        metrics[metric] = {"value": _median(values), "unit": unit}
    ratios = [l["solver.solve_least"]["changes"] / l["solver.solve_least"]["applications"]
              for l in ops.values()
              if l.get("solver.solve_least", {}).get("applications")]
    metrics["solver.useful_ratio"] = {"value": _median(ratios), "unit": "ratio"}
    # The mean, not the median: most queries have one run, and the
    # ambiguous ones set the readout work.
    runs = extra_counts.get("automaton.runs_per_query", [])
    metrics["automaton.runs_per_query"] = {
        "value": statistics.fmean(runs) if runs else 0, "unit": "count"}
    return metrics
