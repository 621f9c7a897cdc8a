"""Hypothesis strategies for small weighted pushdown systems and their
input automata, in the minplus, bool, killgen and tabulated algebras.

Systems have two control locations, two stack symbols and two to eight
rules, recursion included; pop, swap and push rules are equally likely.
Input automata meet the preconditions of saturation: their transitions
leave a control location or an extra state and enter an extra state,
and only extra states are final.  Tabulated weights are random monotone
maps on the powerset of two facts, some of which do not preserve joins.

Graphs for ``analyze`` are texts in the graph format: one to six
procedures of two to six nodes over one to 64 facts, with edges and
calls drawn between each procedure's own nodes.
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


# a graph step: (kind, three node or procedure picks, kill and gen fact
# masks); kind 0 is a call, the others edges, and picks are reduced
# modulo what there is to pick from
_PICK = st.integers(0, 63)
_MASK = st.integers(0, 2**64 - 1)
_GRAPH_STEP = st.tuples(st.integers(0, 3), _PICK, _PICK, _PICK, _MASK, _MASK)


@st.composite
def icfgs(draw):
    """The text of a graph: each procedure draws its edges and calls at
    random, so self-loops, dead ends, unreachable nodes and repeated
    edges and calls occur; a call targets any procedure, the caller
    included, and ``main`` is any procedure."""
    facts = [f"f{i}" for i in range(draw(st.integers(1, 64)))]
    procs = [f"P{i}" for i in range(draw(st.integers(1, 6)))]
    lines = ["domain {" + ",".join(facts) + "}"]
    for name in procs:
        nodes = [f"{name}_{k}" for k in range(draw(st.integers(2, 6)))]
        lines.append(f"proc {name} entry {nodes[0]} exit {nodes[-1]}")
        for kind, a, b, c, kill, gen in draw(
                st.lists(_GRAPH_STEP, max_size=3 * len(nodes))):
            src, dst = nodes[a % len(nodes)], nodes[c % len(nodes)]
            if kind == 0:
                lines.append(f"call {src} -> {procs[b % len(procs)]} return {dst}")
            else:
                kill, gen = (",".join(f for i, f in enumerate(facts) if mask >> i & 1)
                             for mask in (kill, gen))
                lines.append(f"edge {src} -> {dst} kill={{{kill}}} gen={{{gen}}}")
    lines.append(f"main {procs[draw(_PICK) % len(procs)]}")
    return "\n".join(lines) + "\n"
