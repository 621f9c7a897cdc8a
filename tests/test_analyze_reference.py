"""``analyze`` against the benchmark's independent reference, on
irregular graphs.

``perfbench/ref.py`` computes the summary-based join over valid paths
on the graph itself and shares no code with pdsflow; it is imported
read-only, as ``perfbench/test_perfbench.py`` imports it.  Each graph
from ``strategies.icfgs`` is analysed forward from main's entry and
backward from main's exit, and the report must equal the reference's
byte for byte.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from pdsflow.cli import main

from strategies import icfgs

sys.path[:0] = [str(Path(__file__).parents[1] / "perfbench")]

import ref  # noqa: E402


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    return tmp_path_factory.mktemp("graphs") / "g.icfg"


def analyze(path, direction: str, node: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["analyze", "--icfg", str(path), "--direction", direction,
                     f"--init-config=<p: {node}>"])
    assert code == 0
    return out.getvalue()


@settings(max_examples=300)
@given(text=icfgs())
def test_analyze_matches_reference(graph_file, text):
    g = ref.parse_icfg(text)
    entry, exit_ = g["procs"][g["main"]]
    graph_file.write_text(text)
    assert analyze(graph_file, "post", entry) == ref.analyze(text, "post")
    assert analyze(graph_file, "pre", exit_) == ref.analyze(text, "pre")
