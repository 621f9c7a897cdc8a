"""Hypothesis strategies for small weighted pushdown systems and their
input automata, in the minplus, bool, killgen and tabulated algebras.

Systems have two control locations, two stack symbols and two to eight
rules, recursion included; pop, swap and push rules are equally likely.
Input automata meet the preconditions of saturation: their transitions
leave a control location or an extra state and enter an extra state,
and only extra states are final.  Tabulated weights are random monotone
maps on the powerset of two facts, some of which do not preserve joins.
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
    powerset_lattice,
    tabulated_framework_algebra,
)
from pdsflow.automaton import POST, PRE

LOCATIONS = ("p0", "p1")
SYMBOLS = ("a", "b")
STATES = ("s0", "s1")  # automaton states that are not control locations
FACTS = ("u", "v")

_FACT_SETS = st.frozensets(st.sampled_from(FACTS))
_LATTICE = powerset_lattice(FACTS)


@st.composite
def monotone_tables(draw, lattice):
    """A random monotone map on a powerset lattice, as a table: each
    subset's image holds its subsets' images plus drawn facts."""
    facts = st.frozensets(st.sampled_from(sorted(lattice.domain)))
    out: dict = {}
    for s in sorted(lattice.elements, key=len):
        out[s] = frozenset().union(*(out[t] for t in out if t < s)) | draw(facts)
    return tuple(out[e] for e in lattice.elements)


ALGEBRAS = {
    "minplus": (minplus_algebra(), st.integers(0, 5)),
    "bool": (boolean_algebra(), st.booleans()),
    "killgen": (killgen_algebra(FACTS), st.builds(KillGenElement, _FACT_SETS, _FACT_SETS)),
}
# drawn by a property of its own, so the three above keep their examples
TABULATED = {
    "tabulated": (tabulated_framework_algebra(_LATTICE, []), monotone_tables(_LATTICE)),
}

_SYMBOL = st.sampled_from(SYMBOLS)
_WORDS = st.tuples() | st.tuples(_SYMBOL) | st.tuples(_SYMBOL, _SYMBOL)
_SHAPES = st.tuples(st.sampled_from(LOCATIONS), _SYMBOL, st.sampled_from(LOCATIONS),
                    _WORDS)


@st.composite
def systems(draw, algebras=ALGEBRAS):
    """A system in one of ``algebras``; rules with one shape merge."""
    alg, weights = algebras[draw(st.sampled_from(sorted(algebras)))]
    rules = draw(st.lists(st.tuples(_SHAPES, weights), min_size=2, max_size=8))
    return PushdownSystem.from_rules([Rule(*shape, w) for shape, w in rules], alg)


@st.composite
def instances(draw, algebras=ALGEBRAS):
    """A system in one of ``algebras`` with a backward and a forward input
    automaton, both with the same transitions and final states."""
    pds = draw(systems(algebras))
    transitions = draw(st.lists(
        st.builds(Transition, st.sampled_from(LOCATIONS + STATES), _SYMBOL,
                  st.sampled_from(STATES)),
        min_size=1, max_size=4))
    finals = draw(st.sets(st.sampled_from(STATES), min_size=1))
    return (pds, make_automaton(pds, transitions, finals, PRE),
            make_automaton(pds, transitions, finals, POST))
