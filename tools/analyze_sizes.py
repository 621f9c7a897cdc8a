"""Time ``pdsflow analyze --direction pre`` on large graphs of the
benchmark's recursive family, for one or more source trees.

    python3 tools/analyze_sizes.py --src PARENT/src --src CHANGE/src \\
        --sizes 1280 5120 20480 --reps 3 --workdir /tmp/sizes

There is one graph per size, made by ``perfbench/gen.py``
``baseline_icfg`` with shape seed 1000, label seed 1, 4 facts and
density 0.3; the analysis runs backward from ``<p: P0_8>``, main's exit.
Each timing runs in a fresh interpreter that imports ``pdsflow`` from one
source tree and times one ``cli.main`` call, parser included, with stdout
sent to a file.  Within each repetition the sources take turns, and the
turn order alternates between repetitions.  Prints one JSON row per
(size, repetition, source): wall time, exit code, cyclic GC collections
per generation during the call, peak RSS, and the md5 of the output.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gen  # noqa: E402

CHILD = """
import contextlib, gc, hashlib, json, resource, sys, time
src, icfg, out = sys.argv[1:4]
sys.path.insert(0, src)
from pdsflow.cli import main
argv = ["analyze", "--icfg", icfg, "--direction", "pre", "--init-config", "<p: P0_8>"]
before = [s["collections"] for s in gc.get_stats()]
with open(out, "w", encoding="utf-8") as handle, contextlib.redirect_stdout(handle):
    start = time.perf_counter()
    code = main(argv)
    ms = (time.perf_counter() - start) * 1000
after = [s["collections"] for s in gc.get_stats()]
with open(out, "rb") as handle:
    digest = hashlib.md5(handle.read()).hexdigest()
rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"ms": ms, "exit": code,
                  "gc_collections": [b - a for a, b in zip(before, after)],
                  "peak_rss_mib": rss_mib, "output_md5": digest}))
"""


def graph(n: int, workdir: Path) -> Path:
    path = workdir / f"baseline-{n}.icfg"
    if not path.exists():
        path.write_text(gen.baseline_icfg(random.Random(1000), random.Random(1), n,
                                          gen.fact_names(4), 0.3), encoding="utf-8")
    return path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", required=True,
                        help="a source tree holding the pdsflow package; repeatable")
    parser.add_argument("--sizes", type=int, nargs="+", default=[1280, 5120, 20480])
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()
    args.workdir.mkdir(parents=True, exist_ok=True)
    for n in args.sizes:
        icfg = graph(n, args.workdir)
        for rep in range(args.reps):
            order = args.src if rep % 2 == 0 else args.src[::-1]
            for src in order:
                done = subprocess.run(
                    [sys.executable, "-c", CHILD, str(Path(src).resolve()), str(icfg),
                     str(args.workdir / f"out-{n}.txt")],
                    capture_output=True, text=True, check=True)
                row = {"n": n, "rep": rep, "src": src}
                row.update(json.loads(done.stdout.splitlines()[-1]))
                print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main()
