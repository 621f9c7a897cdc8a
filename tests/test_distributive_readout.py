"""The readout's one value per automaton state.

Where ``extend`` distributes over ``combine`` (a
``DistributiveFlowAlgebra``), ``query`` joins the values that reach a
state, so it makes at most |stack| x |transitions| calls to ``extend``;
other algebras walk their powerset lifting.  Both must equal the join
over accepting runs.  The marked built-ins must pass both
distributivity laws, and the tabulated domain stays unmarked.
"""

import random

import pytest
from hypothesis import given

from pdsflow import (
    Configuration,
    DistributiveFlowAlgebra,
    FlowAlgebra,
    KillGenElement,
    Solution,
    boolean_algebra,
    check_laws,
    killgen_algebra,
    load_automaton,
    load_pds,
    minplus_algebra,
    powerset_lattice,
    query,
    tabulated_framework_algebra,
)
from pdsflow.algebra import INF

from strategies import ALGEBRAS, TABULATED, instances
from test_reference_readout import (
    NON_DISTRIBUTIVE,
    ambiguous_system,
    assert_query_matches,
    solved,
    tabulated_instance,
)

DISTRIBUTES = ("distributes-left", "distributes-right")


def test_extend_calls_are_bounded_by_stack_times_transitions():
    """<p: a^40 z> has 2^40 accepting runs through the states p and r."""
    pds = ambiguous_system(40)
    aut, sol = solved(pds, load_automaton("final f\ntrans p z f\ntrans r z f\n",
                                          pds, "pre"))
    alg = sol.algebra
    calls = 0

    def counting(a, b):
        nonlocal calls
        calls += 1
        return alg.extend(a, b)

    counted = Solution(alg._replace(extend=counting), sol.assignment)
    assert isinstance(counted.algebra, DistributiveFlowAlgebra)
    c = Configuration("p", ("a",) * 40 + ("z",))
    value = query(aut, counted, c)
    assert value == query(aut, sol, c)
    assert 0 < calls <= len(c.stack) * len(aut.transitions)


def assert_distributes(alg, samples=None, exhaustive=False):
    report = check_laws(alg, samples=samples)
    for law in DISTRIBUTES:
        verdict = report.verdict(law)
        assert not verdict.failed, (alg.name, law, verdict.counterexample)
        if exhaustive:
            assert verdict.status == "holds", (alg.name, law)
    assert report.classification in ("distributive flow algebra",
                                     "idempotent semiring")


def test_bool_distributes_exhaustively():
    assert_distributes(boolean_algebra(), exhaustive=True)


@pytest.mark.parametrize("n", [1, 2])
def test_killgen_over_few_facts_distributes_exhaustively(n):
    assert_distributes(killgen_algebra([f"f{i}" for i in range(n)]), exhaustive=True)


@pytest.mark.parametrize("n", range(3, 9))
def test_killgen_over_more_facts_distributes_on_samples(n):
    facts = [f"f{i}" for i in range(n)]
    rng = random.Random(n)
    samples = [KillGenElement(rng.sample(facts, rng.randint(0, n)),
                              rng.sample(facts, rng.randint(0, n)))
               for _ in range(16)]
    assert_distributes(killgen_algebra(facts), samples=samples)


def test_minplus_distributes_on_samples():
    assert_distributes(minplus_algebra(), samples=[0, 1, 2, 3, 7, 100, INF])


def test_which_algebras_are_marked():
    for alg in (boolean_algebra(), minplus_algebra(), killgen_algebra(["f"])):
        assert isinstance(alg, DistributiveFlowAlgebra)
        assert isinstance(alg._replace(header_params="x"), DistributiveFlowAlgebra)
    for text in ("algebra bool\n", "algebra minplus\n",
                 "algebra killgen domain={x}\n"):
        assert isinstance(load_pds(text).algebra, DistributiveFlowAlgebra)
    lattice = powerset_lattice(["x", "y"])
    unmarked = [
        tabulated_framework_algebra(lattice, []),
        load_pds(NON_DISTRIBUTIVE).algebra,
        tabulated_instance(0)[0].algebra,
        TABULATED["tabulated"][0],
        FlowAlgebra("max", 0, 0, max, lambda a, b: a + b, str, int),
    ]
    for alg in unmarked:
        assert not isinstance(alg, DistributiveFlowAlgebra), alg.name


@given(instances({**ALGEBRAS, **TABULATED}))
def test_query_is_the_join_over_runs(instance):
    pds, *automata = instance
    for aut in automata:
        assert_query_matches(pds, aut, max_stack=3)
