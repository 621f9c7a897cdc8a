"""Cold start: a command loads only the modules it runs.

Each check runs in a fresh interpreter and reads ``sys.modules``, not
the clock.  ``import pdsflow`` loads no submodule; the pipeline
commands and the library path never load the oracle, the law checker
or the tabulated algebra; no command and no exported name loads
``dataclasses`` or the ``inspect`` module it pulls in; only ``analyze``
loads the graph front end; every exported name is the very object its
submodule defines.  A tabulated system runs through the pipeline
without building its carrier, which only the law checker reads.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdsflow

from test_reference_readout import NON_DISTRIBUTIVE

FIXTURES = Path(__file__).parent / "fixtures"
PDS = str(FIXTURES / "w_pre.pds")
AUT_PRE = str(FIXTURES / "w_pre.aut")
AUT_POST = str(FIXTURES / "w_post.aut")
ICFG = str(FIXTURES / "demo.icfg")

CHECKERS = {"pdsflow.oracle", "pdsflow.laws", "pdsflow.tabulated"}
CODEGEN = {"dataclasses", "inspect"}  # what dataclass records would load

LOADED = ("sorted(m for m in sys.modules if m.partition('.')[0] == 'pdsflow'"
          f" or m in {sorted(CODEGEN)})")

RUN_MAIN = f"""
import contextlib, io, json, sys
from pdsflow.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps({{"code": code, "modules": {LOADED}}}))
"""


def fresh(script, *args):
    """Run ``script`` in a new interpreter and decode the JSON it prints."""
    env = dict(os.environ, PYTHONPATH=str(Path(pdsflow.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@functools.cache
def run_main(argv: tuple):
    return fresh(RUN_MAIN, json.dumps(argv))


def test_import_loads_no_submodule():
    assert fresh(f"import json, sys, pdsflow\nprint(json.dumps({LOADED}))") \
        == ["pdsflow"]


PIPELINE = {
    "analyze": ("analyze", "--icfg", ICFG, "--init-config", "<p: m0>"),
    "prestar": ("prestar", "--pds", PDS, "--automaton", AUT_PRE),
    "poststar": ("poststar", "--pds", PDS, "--automaton", AUT_POST),
    "solve": ("solve", "--pds", PDS, "--automaton", AUT_PRE,
              "--direction", "pre"),
    "query": ("query", "--pds", PDS, "--automaton", AUT_PRE,
              "--direction", "pre", "--config", "<p: a end>"),
}


@pytest.mark.parametrize("command", sorted(PIPELINE))
def test_pipeline_commands_load_no_checker(command):
    out = run_main(PIPELINE[command])
    assert out["code"] == 0
    assert CHECKERS.isdisjoint(out["modules"]), out["modules"]


@pytest.mark.parametrize("command", sorted(PIPELINE))
def test_pipeline_commands_load_no_code_generation(command):
    out = run_main(PIPELINE[command])
    assert out["code"] == 0
    assert CODEGEN.isdisjoint(out["modules"]), out["modules"]
    assert ("pdsflow.encode" in out["modules"]) is (command == "analyze")


CHECKING = {
    "check-algebra": ("check-algebra", "--pds", PDS),
    **{f"oracle-{mode}": ("oracle", "--pds", PDS, "--automaton", AUT_PRE,
                          "--direction", "pre", "--mode", mode, "--depth", "4")
       for mode in ("soundness", "completeness")},
}


@pytest.mark.parametrize("command", sorted(CHECKING))
def test_checking_commands_load_no_code_generation(command):
    out = run_main(CHECKING[command])
    assert out["code"] == 0
    assert CODEGEN.isdisjoint(out["modules"]), out["modules"]


def test_exported_names_load_no_code_generation():
    script = f"""
import json, sys, pdsflow
for name in pdsflow.__all__:
    getattr(pdsflow, name)
print(json.dumps({LOADED}))
"""
    out = fresh(script)
    assert CHECKERS <= set(out), out
    assert CODEGEN.isdisjoint(out), out


def test_library_path_loads_no_checker_cli_or_encode():
    script = f"""
import json, sys
import pdsflow as pf
pds = pf.load_pds(open(sys.argv[1]).read())
aut = pf.load_automaton(open(sys.argv[2]).read(), pds, pf.PRE)
result = pf.pre_star(pds, aut)
sol = pf.solve_least(result.constraints, pds.algebra)
value = pf.query(result.automaton, sol, pf.parse_config_text("<p: a end>"))
print(json.dumps({{"value": pds.algebra.render(value), "modules": {LOADED}}}))
"""
    out = fresh(script, PDS, AUT_PRE)
    assert out["value"] == "2"
    skipped = CHECKERS | CODEGEN | {"pdsflow.cli", "pdsflow.encode"}
    assert skipped.isdisjoint(out["modules"]), out["modules"]


# counts the closures built: each one runs tabulated._close once
COUNT_CLOSURES = """
from pdsflow import tabulated
closures = []
close = tabulated._close
tabulated._close = lambda *args: closures.append(1) or close(*args)
"""


def test_tabulated_library_path_leaves_the_carrier_unbuilt():
    script = COUNT_CLOSURES + """
import json, sys
import pdsflow as pf
pds = pf.load_pds(sys.argv[1])
aut = pf.load_automaton("final f\\ntrans s z f\\n", pds, pf.PRE)
result = pf.pre_star(pds, aut)
sol = pf.solve_least(result.constraints, pds.algebra)
value = pf.query(result.automaton, sol, pf.parse_config_text("<p: a b c z>"))
print(json.dumps({"value": pds.algebra.render(value), "closures": len(closures)}))
"""
    out = fresh(script, NON_DISTRIBUTIVE)
    assert out["value"] == "[{x,y}->{x},{x}->{x},{y}->{x},{}->{}]"
    assert out["closures"] == 0


def test_check_algebra_builds_the_tabulated_carrier(tmp_path):
    path = tmp_path / "nd.pds"
    path.write_text(NON_DISTRIBUTIVE)
    script = COUNT_CLOSURES + f"""
import contextlib, io, json
from pdsflow.cli import main
with contextlib.redirect_stdout(io.StringIO()) as table:
    code = main(["check-algebra", "--pds", {str(path)!r}])
print(json.dumps({{"code": code, "closures": len(closures),
                  "table": table.getvalue()}}))
"""
    out = fresh(script)
    assert out["code"] == 0
    assert out["closures"] == 1
    assert "distributes-right: FAILS" in out["table"]


def test_check_algebra_loads_the_law_checker():
    out = run_main(CHECKING["check-algebra"])
    assert out["code"] == 0
    assert "pdsflow.laws" in out["modules"]


def test_exports_are_the_objects_their_submodules_define():
    script = """
import importlib, json, pdsflow
listed = set(dir(pdsflow))
bad = [name for name, module in sorted(pdsflow._EXPORTS.items())
       if name not in listed
       or getattr(pdsflow, name)
       is not getattr(importlib.import_module(f"pdsflow.{module}"), name)]
print(json.dumps({"all": pdsflow.__all__, "bad": bad}))
"""
    out = fresh(script)
    assert out["all"] == sorted(pdsflow._EXPORTS)
    assert out["bad"] == []
