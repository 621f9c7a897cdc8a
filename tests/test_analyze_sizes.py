"""``tools/analyze_sizes.py`` times whole ``analyze`` commands per size."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pdsflow
from pdsflow.cli import main

TOOL = Path(__file__).parents[1] / "tools" / "analyze_sizes.py"


def test_one_row_per_size_repetition_and_source(tmp_path):
    src = str(Path(pdsflow.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, str(TOOL), "--src", src, "--src", src, "--sizes", "20", "40",
         "--reps", "2", "--workdir", str(tmp_path)],
        capture_output=True, text=True, timeout=120, check=True)
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert [(r["n"], r["rep"]) for r in rows] == [
        (n, rep) for n in (20, 40) for rep in (0, 1) for _ in range(2)]
    for r in rows:
        assert r["exit"] == 0 and r["ms"] > 0 and len(r["gc_collections"]) == 3
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", "--icfg", str(tmp_path / "baseline-40.icfg"),
                     "--direction", "pre", "--init-config", "<p: P0_8>"]) == 0
    digest = hashlib.md5(out.getvalue().encode()).hexdigest()
    assert {r["output_md5"] for r in rows if r["n"] == 40} == {digest}
