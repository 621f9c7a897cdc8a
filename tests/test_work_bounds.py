"""Work budgets on the benchmark's chain family, as counts of calls.

A count of ``extend`` and ``combine`` calls is exact and does not depend
on the host, so it resolves changes that timings cannot.  ``FlowAlgebra``
is a named tuple, so the counting algebra is the graph's own with
counting wrappers in place of the two operations, put into the system
with ``_replace``; the package itself is not patched.

The inputs are ``perfbench/gen.py`` ``baseline_icfg`` graphs (shape seed
1000, label seed 1, 4 facts, density 0.3) at N = 80, 320 and 1,280
procedures, analysed backward from ``<p: P0_8>`` and forward from
``<p: P0_0>``.  Counts when the budgets were set, backward and forward:

- report ``extend`` calls per labelled transition: 1.006 and 1.09–1.21
  at N=80, 1.002 and 1.006 at N=320, 1.000 and 1.002–1.005 at N=1,280;
- solver applications equal the constraints in every case;
- ``extend`` + ``combine`` calls per transition, the whole pipeline:
  3.83 and 3.61–3.84 at N=80, 3.71 and 3.35 at N=320, 3.71 and 3.34 at
  N=1,280.

Where a forward count is a range, it moves with ``PYTHONHASHSEED`` (40
seeds tried), which orders the automaton's transition set and so the
order in which the report visits states; the outputs do not move.

A change that lowers a count tightens its budget here; one that raises
a count says so where it is described.
"""

import random
import sys
from pathlib import Path

import pytest

from pdsflow import (
    Configuration,
    analysis_report,
    encode_icfg,
    load_icfg,
    post_star,
    pre_star,
    solve_least,
)
from pdsflow.automaton import POST, PRE
from pdsflow.cli import single_config_automaton

sys.path[:0] = [str(Path(__file__).parents[1] / "perfbench")]

import gen  # noqa: E402

SIZES = (80, 320, 1280)
START = {PRE: "P0_8", POST: "P0_0"}


def counted_run(g, direction: str) -> dict:
    """Runs saturate, solve and report once, counting the algebra calls
    of the whole pipeline and of the report alone."""
    pds = encode_icfg(g)
    alg = pds.algebra
    calls = {"extend": 0, "combine": 0}

    def counting(name, op):
        def wrapped(a, b):
            calls[name] += 1
            return op(a, b)
        return wrapped

    alg = alg._replace(extend=counting("extend", alg.extend),
                       combine=counting("combine", alg.combine))
    pds = pds._replace(algebra=alg)
    aut = single_config_automaton(pds, Configuration("p", (START[direction],)),
                                  direction)
    result = (pre_star if direction == PRE else post_star)(pds, aut)
    sol = solve_least(result.constraints, alg)
    before = calls["extend"]
    analysis_report(g, sol, result.automaton)
    transitions = result.automaton.transitions
    return {
        "transitions": len(transitions),
        "labelled": sum(t.label is not None for t in transitions),
        "states": len(result.automaton.states),
        "constraints": len(result.constraints),
        "applications": sol.stats["applications"],
        "report_extends": calls["extend"] - before,
        "calls": calls["extend"] + calls["combine"],
    }


@pytest.fixture(scope="module")
def counts() -> dict:
    out = {}
    for n in SIZES:
        g = load_icfg(gen.baseline_icfg(random.Random(1000), random.Random(1), n,
                                        gen.fact_names(4), 0.3))
        for direction in (PRE, POST):
            out[n, direction] = counted_run(g, direction)
    return out


@pytest.mark.parametrize("direction", [PRE, POST])
def test_report_extends_about_once_per_labelled_transition(counts, direction):
    """A state with self-loops is closed under them once per visit, so
    backward, where every transition into ``p`` is a self-loop, ``p`` is
    not visited a second time."""
    for n in SIZES:
        c = counts[n, direction]
        assert c["report_extends"] <= c["labelled"] + 2 * c["states"], (n, c)
        if direction == PRE:
            assert c["report_extends"] <= 1.01 * c["labelled"], (n, c)


@pytest.mark.parametrize("direction", [PRE, POST])
def test_solver_applies_each_constraint_once(counts, direction):
    """No input of the family makes the solver re-apply a constraint."""
    for n in SIZES:
        c = counts[n, direction]
        assert c["applications"] == c["constraints"], (n, c)


@pytest.mark.parametrize("direction", [PRE, POST])
def test_work_per_transition_is_flat_in_size(counts, direction):
    """Compared from N=320 on, where the edges of the family weigh little:
    at N=80 forward the ratio reads 3.61 to 3.84 against 3.35 at N=320."""
    small, large = (counts[n, direction] for n in (320, 1280))
    ratio = (large["calls"] / large["transitions"]) / (small["calls"] / small["transitions"])
    assert abs(ratio - 1) <= 0.05, (small, large)
