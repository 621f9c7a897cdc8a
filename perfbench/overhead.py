"""Tracing overhead: untraced and traced runs back to back, alternating,
on one seed, and the cost of one span.

    python3 perfbench/overhead.py

For every workload in BENCHMARK.json it makes three untraced and three
traced runs of ``run_seconds`` each on seed 1, the seed of the README's
per-layer figures, in the order U T T U U T, so that both kinds see the
same phases of the machine and a steady drift of the machine's speed
cancels.  It prints, per workload, the untraced op median
(``op_p50_ms``), the traced op median (``trace.op_ms``), the median per
op of the layers' summed self times and of the time inside no layer, the
spans per op, and what those spans cost at the measured per-span cost.

A span costs far more right after ``gc.collect()``, where every op
starts, than in a hot loop, so both costs are measured.  Separate runs
also differ in how the process runs: the untraced run pauses between
passes for its set-up probes.  So the ops are also timed in one process,
in blocks of at least 110 ops with tracing off and on, alternating.
"""

from __future__ import annotations

import contextlib
import gc
import json
import statistics
import sys
import time
from collections import defaultdict

import run
import spans
from steady import HERE, SPEC, run_once
from workloads import WORKLOADS

SEED = 1
PAIRS = 3
LOOPS, CALLS, COLD_CALLS = 5, 100_000, 2_000


def span_cost() -> tuple:
    """Seconds a wrapped call with a counter costs over a bare call:
    (hot, the median of LOOPS loops of CALLS calls each; cold, the median
    over COLD_CALLS single calls each made right after gc.collect())."""
    def bare(x):
        return x

    def traced_bare():
        # A new tracer each time, so that old spans do not slow gc.collect().
        return spans.Tracer().wrap(bare, "layer", lambda r: {"n": 1})

    hot = []
    for _ in range(LOOPS):
        traced = traced_bare()
        t0 = time.perf_counter()
        for i in range(CALLS):
            bare(i)
        t1 = time.perf_counter()
        for i in range(CALLS):
            traced(i)
        t2 = time.perf_counter()
        hot.append(((t2 - t1) - (t1 - t0)) / CALLS)
    traced = traced_bare()
    cold = {bare: [], traced: []}
    for i in range(COLD_CALLS):
        for fn in cold:
            gc.collect()
            t0 = time.perf_counter()
            fn(i)
            cold[fn].append(time.perf_counter() - t0)
    return (statistics.median(hot),
            statistics.median(cold[traced]) - statistics.median(cold[bare]))


def dump_figures(workload: str, seed: int) -> tuple:
    """(layers' self ms, unattributed ms, spans) per op, as medians over
    the timed ops of the traced run's span dump."""
    rows = [json.loads(line) for line in
            (HERE / "out" / f"trace-{workload}-{seed}.jsonl").open(encoding="utf-8")]
    child = defaultdict(float)
    for s in rows:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    per_op = defaultdict(lambda: [0.0, 0.0, 0])
    for s in rows:
        if s["op"] == "setup":
            continue
        fig = per_op[s["op"]]
        self_time = s["end"] - s["start"] - child[s["id"]]
        fig[0 if s["name"] != "op" else 1] += self_time * 1000
        fig[2] += 1
    return tuple(statistics.median(f[k] for f in per_op.values()) for k in range(3))


def in_process(workload: str) -> tuple:
    """Median op ms (untraced, traced) over PAIRS blocks each, timed as
    run.measure times them, in one process, in the order U T T U U T."""
    run.import_package()
    wl = WORKLOADS[workload]()
    workdir = HERE / "out" / f"{workload}-{SEED}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl.generate(SEED, workdir)
    wl.references()
    wl.setup()
    times = ([], [])
    for pair in range(PAIRS):
        for trace in ((0, 1) if pair % 2 == 0 else (1, 0)):
            tracer = spans.Tracer() if trace else None
            with tracer.installed() if trace else contextlib.nullcontext():
                r = run.measure(wl, 0, tracer)
            if r["bad"]:
                sys.exit(f"error: {workload} ops {sorted(r['bad'])} differ from the references")
            times[trace].extend(r["times"])
    return tuple(statistics.median(t) * 1000 for t in times)


def main() -> int:
    hot, cold = (c * 1000 for c in span_cost())
    print(f"one span with a counter costs {hot * 1000:.2f} us in a hot loop, "
          f"{cold * 1000:.2f} us right after gc.collect()")
    for workload in (w["name"] for w in SPEC["workloads"]):
        untraced, traced, figures = [], [], []
        for pair in range(PAIRS):
            for trace in ((0, 1) if pair % 2 == 0 else (1, 0)):
                if trace:
                    traced.append(run_once(workload, SEED, 1)["metrics"]
                                  ["trace.op_ms"]["value"])
                    figures.append(dump_figures(workload, SEED))
                else:
                    untraced.append(run_once(workload, SEED)["metrics"]
                                    ["op_p50_ms"]["value"])
        layers, unattributed, nspans = (statistics.median(f[k] for f in figures)
                                        for k in range(3))
        u, t = statistics.median(untraced), statistics.median(traced)
        iu, it = in_process(workload)
        print(f"{workload}:\n"
              f"  untraced op_p50_ms {u:.4f}  runs {[round(v, 4) for v in untraced]}\n"
              f"  traced trace.op_ms {t:.4f}  runs {[round(v, 4) for v in traced]}\n"
              f"  traced - untraced  {t - u:+.4f} ms ({(t - u) / u:+.1%})\n"
              f"  in one process     untraced {iu:.4f}, traced {it:.4f}, "
              f"{it - iu:+.4f} ms ({(it - iu) / iu:+.1%})\n"
              f"  layers' self       {layers:.4f} ms; in no layer {unattributed:.4f} ms\n"
              f"  spans per op       {nspans:g}, costing {nspans * hot:.4f} ms hot, "
              f"{nspans * cold:.4f} ms cold",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
