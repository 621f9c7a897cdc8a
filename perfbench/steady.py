"""Steadiness check: run each workload on several seeds and report, for
every end-to-end metric, the median, the quartiles and the spread
(interquartile distance over the median) against its bound.

    python3 perfbench/steady.py [--first-seed 1]

Every workload in BENCHMARK.json gets ten runs of ``run_seconds`` each,
on seeds counting up from ``--first-seed``.  Each run is a separate
``run.py`` process, one after another.  It exits 1 when a spread is
over its bound.  Raw results go to perfbench/out/steady-<first seed>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
RUNS = 10


def run_once(workload: str, seed: int, trace: int = 0) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(results: list) -> list:
    """(metric, median, q1, q3, spread, bound) for each end-to-end metric."""
    rows = []
    for m in SPEC["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        rows.append((m["name"], med, q1, q3, (q3 - q1) / med, m["bound"]))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    seeds = range(args.first_seed, args.first_seed + RUNS)

    raw, steady = {}, True
    for workload in (w["name"] for w in SPEC["workloads"]):
        results = [run_once(workload, seed) for seed in seeds]
        raw[workload] = results
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: {RUNS} runs, seeds {seeds.start}..{seeds.stop - 1}, "
              f"attempted {sum(r['attempted'] for r in results)}, "
              f"failed shares {sorted(shares)}, all correct "
              f"{all(r['correct'] for r in results)}")
        for name, med, q1, q3, spread, bound in summarize(results):
            flag = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER")
            steady &= flag != "OVER"
            print(f"  {name:14s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"spread {spread:6.1%} of bound {bound:.0%}  {flag}")
    out = HERE / "out" / f"steady-{args.first_seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw, indent=1), encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
