"""Benchmark entry point: one workload, one process, one JSON line.

    python3 perfbench/run.py --workload analyze-fwd --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from the seed and their expected outputs
from the references, then runs whole passes over the workload's op list
for at least ``--seconds`` seconds and checks every output.  Between
passes it times the program's set-up in fresh processes, spread evenly
over the run.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it wraps the package's layer functions and prints the
per-layer metrics instead, and writes the spans to perfbench/out/.  The last line of stdout is the result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 21
MIN_OPS = 110  # at least ten samples beyond p90


def import_package():
    """Make the checkout's own src/pdsflow importable, or stop."""
    if not (SRC / "pdsflow" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'pdsflow'}")
    sys.path.insert(0, str(SRC))


def probe_setup(args) -> float:
    """The program's set-up time in a fresh interpreter, so the sample
    pays the import; input generation happens before the clock."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.split()[-1])


def measure(wl, seconds, tracer=None, between=None) -> dict:
    """Whole passes over the op list until ``seconds`` have passed and
    MIN_OPS ops are timed; outputs are checked, and ``between`` is called
    with the share of ``seconds`` passed so far, after each pass.  Time
    spent in ``between`` does not count towards ``seconds``.  A pass's
    rate counts only time in ops."""
    r = {"times": [], "rates": [], "bad": set(), "failed": 0, "attempted": 0,
         "counts": {}}
    start = time.perf_counter()
    while True:
        outputs = {}
        pass_time = 0.0
        for i in wl.order:
            r["attempted"] += 1
            span = (contextlib.nullcontext() if tracer is None
                    else tracer.span("op", op=f"op:{r['attempted']}"))
            # Every op starts from an empty collector, as a fresh command
            # does; otherwise where the collections fall would follow the
            # seeded op order, and on query-mix that alone moved the
            # median op time by up to 2x.
            gc.collect()
            t0 = time.perf_counter()
            try:
                with span:
                    outputs[i] = wl.run(i)
            except Exception as exc:  # counted, reported, and the run goes on
                r["failed"] += 1
                print(f"op {i} failed: {exc!r}", file=sys.stderr)
                continue
            elapsed = time.perf_counter() - t0
            r["times"].append(elapsed)
            pass_time += elapsed
        if outputs:
            r["rates"].append(len(outputs) / pass_time)
        r["bad"].update(wl.check(outputs))
        if tracer is not None:
            for i in outputs:
                for key, value in wl.trace_counts(i).items():
                    r["counts"].setdefault(key, []).append(value)
        if between is not None:
            t0 = time.perf_counter()
            between(min(1.0, (t0 - start) / seconds) if seconds else 1.0)
            start += time.perf_counter() - t0
        if time.perf_counter() - start >= seconds and r["attempted"] >= MIN_OPS:
            if not r["times"]:
                sys.exit(f"error: all {r['attempted']} ops failed")
            return r


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="time the set-up once and print it (internal)")
    args = parser.parse_args(argv)
    import_package()

    workdir = HERE / "out" / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload]()
    wl.generate(args.seed, workdir)
    if args.probe:
        gc.collect()  # the generator's garbage is not the program's
        t0 = time.perf_counter()
        wl.setup()
        print(time.perf_counter() - t0)
        return 0

    wl.references()
    if not args.trace:
        # Set-up samples are spread evenly over the run, between passes,
        # so that a burst of machine noise in one part of the run cannot
        # set their median.
        setup = []

        def probe(share):
            while len(setup) < round(SETUP_PROBES * share):
                setup.append(probe_setup(args))

        wl.setup()
        r = measure(wl, args.seconds, between=probe)
        probe(1.0)
        deciles = statistics.quantiles(r["times"], n=10)
        metrics = {
            "ops_per_s": {"value": statistics.median(r["rates"]), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(r["times"]) * 1000, "unit": "ms"},
            "op_p90_ms": {"value": deciles[8] * 1000, "unit": "ms"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024, "unit": "MiB"},
        }
    else:
        tracer = spans.Tracer()
        with tracer.installed():
            with tracer.span("setup", op="setup"):
                wl.setup()
            r = measure(wl, args.seconds, tracer)
        ops = tracer.per_op()
        missing = [layer for layer in wl.required
                   if not any(layer in layers for layers in ops.values())]
        if missing:
            sys.exit(f"error: traced run recorded no call to {', '.join(missing)} "
                     f"on {args.workload}")
        tracer.dump(HERE / "out" / f"trace-{args.workload}-{args.seed}.jsonl")
        metrics = spans.layer_metrics(ops, r["counts"])

    bad = sorted(r["bad"])
    if bad:
        print(f"error: {len(bad)} outputs differ from the references: ops {bad}",
              file=sys.stderr)
    print(json.dumps({"correct": not bad, "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
