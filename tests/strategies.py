"""Hypothesis strategies for small weighted pushdown systems and their
input automata, in the minplus, bool and killgen algebras.

Systems have two control locations, two stack symbols and two to eight
rules, recursion included; pop, swap and push rules are equally likely.
Input automata meet the preconditions of saturation: their transitions
leave a control location or an extra state and enter an extra state,
and only extra states are final.
"""

from hypothesis import strategies as st

from pdsflow import (
    KillGenElement,
    PushdownSystem,
    Rule,
    Transition,
    boolean_algebra,
    killgen_algebra,
    make_automaton,
    minplus_algebra,
)
from pdsflow.automaton import POST, PRE

LOCATIONS = ("p0", "p1")
SYMBOLS = ("a", "b")
STATES = ("s0", "s1")  # automaton states that are not control locations
FACTS = ("u", "v")

_FACT_SETS = st.frozensets(st.sampled_from(FACTS))
ALGEBRAS = {
    "minplus": (minplus_algebra(), st.integers(0, 5)),
    "bool": (boolean_algebra(), st.booleans()),
    "killgen": (killgen_algebra(FACTS), st.builds(KillGenElement, _FACT_SETS, _FACT_SETS)),
}

_SYMBOL = st.sampled_from(SYMBOLS)
_WORDS = st.tuples() | st.tuples(_SYMBOL) | st.tuples(_SYMBOL, _SYMBOL)
_SHAPES = st.tuples(st.sampled_from(LOCATIONS), _SYMBOL, st.sampled_from(LOCATIONS),
                    _WORDS)


@st.composite
def systems(draw):
    """A system in one of the algebras; rules with one shape merge."""
    alg, weights = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    rules = draw(st.lists(st.tuples(_SHAPES, weights), min_size=2, max_size=8))
    return PushdownSystem.from_rules([Rule(*shape, w) for shape, w in rules], alg)


@st.composite
def instances(draw):
    """A system with a backward and a forward input automaton, both with
    the same transitions and final states."""
    pds = draw(systems())
    transitions = draw(st.lists(
        st.builds(Transition, st.sampled_from(LOCATIONS + STATES), _SYMBOL,
                  st.sampled_from(STATES)),
        min_size=1, max_size=4))
    finals = draw(st.sets(st.sampled_from(STATES), min_size=1))
    return (pds, make_automaton(pds, transitions, finals, PRE),
            make_automaton(pds, transitions, finals, POST))
