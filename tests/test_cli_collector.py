"""``cli.main`` pauses the cyclic garbage collector while a command runs.

The collector is left as the caller had it on every way out of ``main``,
and no command leaves cyclic garbage, so the pause frees nothing later
than reference counting would.
"""

import gc
from pathlib import Path

import pytest

from pdsflow import encode
from pdsflow.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
PDS = str(FIXTURES / "w_pre.pds")
AUT_PRE = str(FIXTURES / "w_pre.aut")
AUT_POST = str(FIXTURES / "w_post.aut")
ICFG = str(FIXTURES / "demo.icfg")

ANALYZE = ["analyze", "--icfg", ICFG, "--init-config", "<p: m0>"]
SUBCOMMANDS = {
    "prestar": ["prestar", "--pds", PDS, "--automaton", AUT_PRE],
    "poststar": ["poststar", "--pds", PDS, "--automaton", AUT_POST],
    "solve": ["solve", "--pds", PDS, "--automaton", AUT_PRE, "--direction", "pre"],
    "query": ["query", "--pds", PDS, "--automaton", AUT_PRE, "--direction", "pre",
              "--config", "<p: a end>"],
    "oracle": ["oracle", "--pds", PDS, "--automaton", AUT_POST, "--direction",
               "post", "--mode", "soundness", "--depth", "6"],
    "check-algebra": ["check-algebra", "--pds", PDS],
    "analyze": ANALYZE,
}


@pytest.fixture
def collector():
    """Restore the collector's state after the test, whatever it did."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def crash(*args, **kwargs):
    raise RuntimeError("injected fault")


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv, code, fault", [
    (ANALYZE, 0, False),
    (["analyze", "--icfg", "nope.icfg", "--init-config", "<p: m0>"], 2, False),
    (["frobnicate"], 2, False),
    (ANALYZE, 5, True),
], ids=["ok", "pdsflow-error", "usage-error", "internal-error"])
def test_collector_state_is_restored(collector, monkeypatch, capsys,
                                     enabled, argv, code, fault):
    """Every way out of ``main`` leaves the collector as it found it: a
    caller that had disabled it finds it still disabled."""
    seen = []  # the collector's state while the graph is read
    load_icfg = crash if fault else encode.load_icfg
    monkeypatch.setattr(encode, "load_icfg", lambda *a, **k: (
        seen.append(gc.isenabled()) or load_icfg(*a, **k)))
    (gc.enable if enabled else gc.disable)()
    assert main(argv) == code
    capsys.readouterr()
    assert gc.isenabled() is enabled
    assert seen == ([False] if argv is ANALYZE else [])


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_command_leaves_no_cyclic_garbage(collector, capsys, command):
    """With the collector off, so that no automatic collection can hide a
    cycle, a command leaves nothing for ``gc.collect()`` to free.  The
    first run builds the process's parser, in which argparse leaves
    cycles before any command starts; the second run is checked."""
    argv = SUBCOMMANDS[command]
    gc.disable()
    assert main(argv) == 0
    gc.collect()
    assert main(argv) == 0
    capsys.readouterr()
    assert gc.collect() == 0
