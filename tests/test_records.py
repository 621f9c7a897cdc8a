"""The pipeline's records behave like the frozen dataclasses they
replaced.

Most are named tuples: each hashes as the tuple of its fields, which is
also how the frozen dataclasses hashed, so sets and dicts of records
iterate in the same order as before and no output changes.
``Solution``, ``PAutomaton`` and ``ICFG`` are hand-written records that
stay unequal to tuples.  The old definitions are kept below, verbatim,
to compare against; ``PushdownSystem`` and ``Solution`` keep only the
methods the comparisons use.  ``Constraint`` also changed shape, from a
list of ``Const`` and ``Var`` factors to ``before``, ``weight`` and
``after``: its record contract is checked against a frozen dataclass of
the new fields, and its text against the factor-list dataclass, kept as
``FactorConstraint``.
"""

from __future__ import annotations

import inspect
import operator
import pickle
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields
from functools import cached_property
from types import SimpleNamespace
from typing import Any, Callable, Optional

import pytest
from hypothesis import given, strategies as st

import pdsflow as pf
from pdsflow.algebra import KillGenElement
from pdsflow.automaton import PRE, POST, transition_key
from pdsflow.encode import validate_icfg
from pdsflow.errors import MissingAssignmentError, ValidationError
from pdsflow.pds import EPS_TEXT, label_text

from reference_oracle import transition_witness


# ---------------------------------------------------------------------------
# the frozen-dataclass definitions the records replaced


@dataclass(frozen=True)
class Transition:
    src: str
    label: Optional[str]  # None is the epsilon label
    dst: str

    def text(self) -> str:
        return f"l({self.src},{label_text(self.label)},{self.dst})"


@dataclass(frozen=True)
class Rule:
    """One rewrite rule <from_loc, from_sym> -> <to_loc, to_word>.

    from_sym None means the rule fires without consuming a stack symbol
    and only occurs in derived rule systems, never in user input.
    """

    from_loc: str
    from_sym: Optional[str]
    to_loc: str
    to_word: tuple
    weight: Any

    def text(self, alg: FlowAlgebra) -> str:
        rhs = " ".join(self.to_word) if self.to_word else EPS_TEXT
        lhs_sym = label_text(self.from_sym)
        return (
            f"rule <{self.from_loc}, {lhs_sym}> -> <{self.to_loc}, {rhs}>"
            f" weight {alg.render(self.weight)}"
        )


@dataclass(frozen=True)
class Configuration:
    """A control location paired with a stack, top of stack first."""

    loc: str
    stack: tuple

    def text(self) -> str:
        if not self.stack:
            return f"<{self.loc}:>"
        return f"<{self.loc}: {' '.join(self.stack)}>"


@dataclass(frozen=True)
class Const:
    value: Any


@dataclass(frozen=True)
class Var:
    transition: Transition


@dataclass(frozen=True)
class FactorConstraint:
    """An inequation: ordered product of factors below one transition
    variable.  Factor order is semantic; the product does not commute."""

    lhs: tuple
    rhs: Transition

    def text(self, alg: FlowAlgebra) -> str:
        parts = [
            alg.render(f.value) if isinstance(f, Const) else f.transition.text()
            for f in self.lhs
        ]
        return f"{' (x) '.join(parts)} <= {self.rhs.text()}"


@dataclass(frozen=True)
class Constraint:
    before: tuple
    weight: Any
    after: tuple
    rhs: Transition


@dataclass(frozen=True)
class IntraEdge:
    src: str
    dst: str
    weight: KillGenElement  # .kill and .gen are its fact sets


@dataclass(frozen=True)
class CallEdge:
    src: str
    callee: str
    return_node: str


@dataclass(frozen=True)
class FlowAlgebra:
    """A weight domain: carrier with combine/extend and their units.

    ``combine`` must be an idempotent commutative join with neutral
    element ``zero``; ``extend`` an associative product with neutral
    element ``one``, monotone on both sides with respect to the order
    induced by combine (a below b iff combine(a, b) equals b).

    Elements are hashable values compared with ``==``.  ``render`` gives
    equal elements equal text and distinct elements distinct text, and
    ``parse`` inverts ``render`` on every element any operation can
    produce.

    ``elements`` enumerates the carrier explicitly when that is
    feasible, as a sequence; ``None`` marks an abstract carrier whose
    elements are only produced by operations.
    """

    name: str
    zero: Any
    one: Any
    combine: Callable[[Any, Any], Any]
    extend: Callable[[Any, Any], Any]
    render: Callable[[Any], str]
    parse: Callable[[str], Any]
    elements: Optional[Sequence] = None
    header_params: str = ""

    def eq(self, a, b) -> bool:
        return a == b

    def leq(self, a, b) -> bool:
        """Induced partial order: a is below b iff combine(a, b) = b."""
        return self.combine(a, b) == b


@dataclass(frozen=True)
class PushdownSystem:
    locations: frozenset
    alphabet: frozenset
    rules: tuple
    algebra: FlowAlgebra


@dataclass(frozen=True)
class Run:
    """A chained transition sequence spelling a stack string."""

    transitions: tuple

    def spelled(self) -> tuple:
        return tuple(t.label for t in self.transitions if t.label is not None)


@dataclass(frozen=True)
class PAutomaton:
    states: frozenset
    alphabet: frozenset
    transitions: frozenset
    initials: frozenset
    finals: frozenset
    direction: str  # PRE or POST
    saturated: bool = False

    @cached_property
    def _by_src(self) -> dict:
        index: dict = {}
        for t in sorted(self.transitions, key=transition_key):
            index.setdefault(t.src, []).append(t)
        return index

    def outgoing(self, state: str) -> list:
        return self._by_src.get(state, [])


@dataclass(frozen=True)
class SaturationResult:
    automaton: PAutomaton
    constraints: tuple
    trace: tuple
    original: PAutomaton


@dataclass(frozen=True)
class Solution(Mapping):
    """A total assignment of algebra elements to transition variables.

    ``stats`` carries solver counters (applications, changes) when the
    worklist solver produced the solution; it never affects equality.
    """

    algebra: FlowAlgebra
    assignment: dict
    stats: dict = field(default=None, compare=False)

    def __getitem__(self, t: Transition):
        return self.assignment[t]

    def __iter__(self):
        return iter(self.assignment)

    def __len__(self) -> int:
        return len(self.assignment)

    def value(self, t: Transition):
        try:
            return self.assignment[t]
        except KeyError:
            raise MissingAssignmentError(f"no value assigned to {t.text()}") from None


@dataclass(frozen=True)
class SolverConfig:
    max_applications: int = 1_000_000


@dataclass(frozen=True)
class Procedure:
    name: str
    entry: str
    exit: str
    nodes: tuple  # each node once, in order of first mention


@dataclass(frozen=True)
class ICFG:
    """A graph, validated when built; ``nodes`` lists every node, sorted."""

    domain: frozenset
    procedures: tuple
    intra_edges: tuple
    call_edges: tuple
    main: str
    nodes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        validate_icfg(self)
        object.__setattr__(self, "nodes", tuple(sorted(
            {n for p in self.procedures for n in p.nodes})))


# ---------------------------------------------------------------------------

TUPLES = ("Transition", "Rule", "Configuration", "Constraint", "IntraEdge",
          "CallEdge", "FlowAlgebra", "PushdownSystem", "Run",
          "SaturationResult", "SolverConfig", "Procedure")
CLASSES = ("Solution", "PAutomaton", "ICFG")
OLD = SimpleNamespace(**{name: globals()[name] for name in TUPLES + CLASSES})
MP = pf.minplus_algebra()

T = pf.Transition("p", "a", "q")
T_REPR = "Transition(src='p', label='a', dst='q')"
EPS = pf.Transition("p", None, "q")
EPS_REPR = "Transition(src='p', label=None, dst='q')"
R = pf.Rule("p", "a", "q", ("b", "c"), 2)
R_REPR = "Rule(from_loc='p', from_sym='a', to_loc='q', to_word=('b', 'c'), weight=2)"
ALG = pf.FlowAlgebra("max", 0, 0, max, operator.add, str, int)  # picklable
ALG_REPR = ("FlowAlgebra(name='max', zero=0, one=0, combine=<built-in function max>, "
            "extend=<built-in function add>, render=<class 'str'>, "
            "parse=<class 'int'>, elements=None, header_params='')")
AUT_VALUES = (frozenset({"p"}), frozenset({"a"}), frozenset({T}), frozenset({"p"}),
              frozenset({"q"}), PRE, False)
AUT = pf.PAutomaton(*AUT_VALUES[:-1])  # saturated defaults to False
AUT_REPR = (f"PAutomaton(states=frozenset({{'p'}}), alphabet=frozenset({{'a'}}), "
            f"transitions=frozenset({{{T_REPR}}}), initials=frozenset({{'p'}}), "
            f"finals=frozenset({{'q'}}), direction='pre', saturated=False)")
PROC = pf.Procedure("main", "n0", "n1", ("n0", "n1"))
PROC_REPR = "Procedure(name='main', entry='n0', exit='n1', nodes=('n0', 'n1'))"
EDGE = pf.IntraEdge("n0", "n1", KillGenElement([], ["u"]))
EDGE_REPR = ("IntraEdge(src='n0', dst='n1', "
             "weight=KillGenElement(kill=frozenset(), gen=frozenset({'u'})))")
ICFG_VALUES = (frozenset({"u"}), (PROC,), (EDGE,), (), "main")

EXAMPLES = [
    ("Transition", ("p", "a", "q"), T_REPR),
    ("Rule", ("p", "a", "q", ("b", "c"), 2), R_REPR),
    ("Configuration", ("p", ("a", "b")), "Configuration(loc='p', stack=('a', 'b'))"),
    ("Constraint", ((T,), 1, (), EPS),
     f"Constraint(before=({T_REPR},), weight=1, after=(), rhs={EPS_REPR})"),
    ("IntraEdge", EDGE, EDGE_REPR),
    ("CallEdge", ("c", "Q", "r"), "CallEdge(src='c', callee='Q', return_node='r')"),
    ("FlowAlgebra", ALG, ALG_REPR),
    ("PushdownSystem", (frozenset({"p"}), frozenset({"a"}), (R,), ALG),
     f"PushdownSystem(locations=frozenset({{'p'}}), alphabet=frozenset({{'a'}}), "
     f"rules=({R_REPR},), algebra={ALG_REPR})"),
    ("Run", ((T,),), f"Run(transitions=({T_REPR},))"),
    ("SaturationResult",
     (AUT, (pf.Constraint((), 0, (), T),), (T,), AUT),
     f"SaturationResult(automaton={AUT_REPR}, "
     f"constraints=(Constraint(before=(), weight=0, after=(), rhs={T_REPR}),), "
     f"trace=({T_REPR},), "
     f"original={AUT_REPR})"),
    ("SolverConfig", (5,), "SolverConfig(max_applications=5)"),
    ("Procedure", PROC, PROC_REPR),
    ("Solution", (ALG, {T: 3}, {"changes": 1}),
     f"Solution(algebra={ALG_REPR}, assignment={{{T_REPR}: 3}}, "
     f"stats={{'changes': 1}})"),
    ("PAutomaton", AUT_VALUES, AUT_REPR),
    ("ICFG", ICFG_VALUES,
     f"ICFG(domain=frozenset({{'u'}}), procedures=({PROC_REPR},), "
     f"intra_edges=({EDGE_REPR},), call_edges=(), main='main')"),
]


def signature(cls) -> list:
    """(name, default, kind) of each constructor parameter."""
    return [(p.name, p.default, p.kind)
            for p in inspect.signature(cls).parameters.values()]


@pytest.mark.parametrize("name, values, text", EXAMPLES,
                         ids=[name for name, _, _ in EXAMPLES])
def test_record_contract(name, values, text):
    cls, old = getattr(pf, name), getattr(OLD, name)
    values = tuple(values)
    record = cls(*values)
    names = tuple(f.name for f in fields(old) if f.init)
    assert cls._fields == cls.__match_args__ == names
    assert signature(cls) == signature(old)
    assert [getattr(record, name) for name in names] == list(values)
    assert cls(**dict(zip(names, values))) == record
    assert repr(record) == repr(old(*values)) == text
    if name == "Solution":  # its assignment is a dict
        for unhashable in (record, old(*values)):
            with pytest.raises(TypeError):
                hash(unhashable)
    else:
        assert hash(record) == hash(values)
        assert hash(record) == hash(old(*values))
    # named tuples equal the tuple of their fields; the others equal no tuple
    assert (record == values) is (name in TUPLES)
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is cls and back == record
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)


def test_solution_equality_is_strict_and_ignores_stats():
    sol = pf.Solution(ALG, {T: 3}, {"changes": 1})
    assert sol == pf.Solution(ALG, {T: 3})
    assert sol != pf.Solution(ALG, {T: 4}) and sol != pf.Solution(MP, {T: 3})
    assert sol != {T: 3} and {T: 3} != sol
    assert isinstance(sol, Mapping) and dict(sol) == {T: 3} and sol[T] == 3


def test_icfg_leaves_nodes_out_and_validates_when_built():
    g = pf.ICFG(*ICFG_VALUES)
    assert g.nodes == ("n0", "n1")
    other = pf.ICFG(*ICFG_VALUES)
    object.__setattr__(other, "nodes", ())
    assert other == g and hash(other) == hash(g) and repr(other) == repr(g)
    with pytest.raises(ValidationError, match="main procedure nowhere"):
        pf.ICFG(*ICFG_VALUES[:4], "nowhere")
    with pytest.raises(AttributeError):
        g.nodes = ()


def test_automaton_index_is_built_on_first_use_and_not_pickled():
    aut = pf.PAutomaton(*AUT_VALUES)
    assert aut.outgoing("p") == (T,) and aut.outgoing("q") == ()
    back = pickle.loads(pickle.dumps(aut))
    assert back == aut and back.outgoing("p") == (T,)


def test_equality_is_tuple_equality():
    assert T == ("p", "a", "q")
    src, label, dst = T
    assert (src, label, dst) == ("p", "a", "q")
    assert {T: 1}[("p", "a", "q")] == 1


def test_witness_tells_rules_from_transitions():
    """``transition_witness`` expands matched transitions and keeps rules;
    it tells them apart by class, not by shape."""
    pds = pf.load_pds("algebra minplus\n"
                      "rule <p, a> -> <p, b> weight 1\n"
                      "rule <p, b> -> <p, eps> weight 1\n")
    assert not isinstance(T, pf.Rule) and not isinstance(R, pf.Transition)
    aut = pf.make_automaton(pds, [pf.Transition("p", "end", "f")], ["f"], PRE)
    witness = transition_witness(pf.pre_star(pds, aut), pds,
                                 pf.Transition("p", "a", "p"))
    assert witness == (pf.Rule("p", "a", "p", ("b",), 1),
                       pf.Rule("p", "b", "p", (), 1))
    assert all(type(r) is pf.Rule for r in witness)
    aut = pf.make_automaton(pds, [pf.Transition("p", "a", "f")], ["f"], POST)
    witness = transition_witness(pf.post_star(pds, aut), pds,
                                 pf.Transition("p", None, "f"))
    assert witness == (pf.Rule("f", None, "p", ("a",), 0),
                       pf.Rule("p", "a", "p", ("b",), 1),
                       pf.Rule("p", "b", "p", (), 1))
    assert all(type(r) is pf.Rule for r in witness)


NAMES = st.sampled_from(["p", "q", "a", "b", "mid:p:a"])
LABELS = st.none() | NAMES
WEIGHTS = st.integers(0, 3)
TRANSITIONS = st.tuples(NAMES, LABELS, NAMES)
RULES = st.tuples(NAMES, LABELS, NAMES, st.lists(NAMES, max_size=2).map(tuple),
                  WEIGHTS)
FACTS = st.frozensets(st.sampled_from(["u", "v"]))
KINDS = ("Transition", "Rule", "Configuration", "IntraEdge", "CallEdge")
RAW = {
    "Transition": TRANSITIONS,
    "Rule": RULES,
    "Configuration": st.tuples(NAMES, st.lists(NAMES, max_size=3).map(tuple)),
    "IntraEdge": st.tuples(NAMES, NAMES, st.builds(KillGenElement, FACTS, FACTS)),
    "CallEdge": st.tuples(NAMES, NAMES, NAMES),
}
TEXT_ARGS = {"Transition": (), "Configuration": (), "Rule": (MP,)}


def build(defs, kind: str, raw):
    """The record that ``raw`` describes, made of the classes in ``defs``."""
    return getattr(defs, kind)(*raw)


@given(st.data())
def test_sets_iterate_as_sets_of_the_frozen_dataclasses(data):
    kind = data.draw(st.sampled_from(KINDS))
    raws = data.draw(st.lists(RAW[kind], max_size=40))
    new = [build(pf, kind, raw) for raw in raws]
    old = [build(OLD, kind, raw) for raw in raws]
    assert list(map(hash, new)) == list(map(hash, old))
    assert list(map(repr, new)) == list(map(repr, old))
    assert list(map(repr, set(new))) == list(map(repr, set(old)))
    assert list(map(repr, frozenset(new))) == list(map(repr, frozenset(old)))
    if kind in TEXT_ARGS:
        args = TEXT_ARGS[kind]
        assert [r.text(*args) for r in new] == [r.text(*args) for r in old]


SIDES = st.lists(TRANSITIONS, max_size=2)


@given(SIDES, WEIGHTS, SIDES, TRANSITIONS)
def test_constraint_reads_as_the_factor_list_it_replaced(before, weight, after, rhs):
    """``before (x) weight (x) after <= rhs`` has the text of the factor
    list ``Var``s, ``Const``, ``Var``s, and hashes as its field tuple."""
    new = pf.Constraint(tuple(pf.Transition(*t) for t in before), weight,
                        tuple(pf.Transition(*t) for t in after), pf.Transition(*rhs))
    old = FactorConstraint(
        (*(Var(Transition(*t)) for t in before), Const(weight),
         *(Var(Transition(*t)) for t in after)),
        Transition(*rhs))
    assert new.text(MP) == old.text(MP)
    assert hash(new) == hash((new.before, weight, new.after, new.rhs))
