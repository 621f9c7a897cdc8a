"""The pipeline's records are named tuples that behave like the frozen
dataclasses they replaced.

Each record hashes as the tuple of its fields, which is also how the
frozen dataclasses hashed, so sets and dicts of records iterate in the
same order as before and no output changes.  The old definitions are
kept below, verbatim, to compare against.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import Any, Optional

import pytest
from hypothesis import given, strategies as st

import pdsflow as pf
from pdsflow.algebra import FlowAlgebra, KillGenElement
from pdsflow.automaton import PRE, POST
from pdsflow.pds import EPS_TEXT, label_text
from pdsflow.saturation import Const, Var


# ---------------------------------------------------------------------------
# the frozen-dataclass definitions the named tuples replaced


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
class Constraint:
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
class TraceEntry:
    """One saturation step: the transition it added, the rule that fired,
    and the matched automaton transitions in left-hand-side order."""

    transition: Transition
    rule: Rule
    matched: tuple


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


# ---------------------------------------------------------------------------

KINDS = ("Transition", "Rule", "Configuration", "Constraint", "TraceEntry",
         "IntraEdge", "CallEdge")
OLD = SimpleNamespace(**{kind: globals()[kind] for kind in KINDS})
MP = pf.minplus_algebra()

T = pf.Transition("p", "a", "q")
T_REPR = "Transition(src='p', label='a', dst='q')"
EPS = pf.Transition("p", None, "q")
EPS_REPR = "Transition(src='p', label=None, dst='q')"
R = pf.Rule("p", "a", "q", ("b", "c"), 2)
R_REPR = "Rule(from_loc='p', from_sym='a', to_loc='q', to_word=('b', 'c'), weight=2)"

EXAMPLES = [
    (pf.Transition, ("p", "a", "q"), T_REPR),
    (pf.Rule, ("p", "a", "q", ("b", "c"), 2), R_REPR),
    (pf.Configuration, ("p", ("a", "b")), "Configuration(loc='p', stack=('a', 'b'))"),
    (pf.Constraint, ((Const(1), Var(T)), EPS),
     f"Constraint(lhs=(Const(value=1), Var(transition={T_REPR})), "
     f"rhs={EPS_REPR})"),
    (pf.TraceEntry, (EPS, R, (T,)),
     f"TraceEntry(transition={EPS_REPR}, rule={R_REPR}, matched=({T_REPR},))"),
    (pf.IntraEdge, ("x", "y", KillGenElement([], ["u"])),
     "IntraEdge(src='x', dst='y', "
     "weight=KillGenElement(kill=frozenset(), gen=frozenset({'u'})))"),
    (pf.CallEdge, ("c", "Q", "r"), "CallEdge(src='c', callee='Q', return_node='r')"),
]


@pytest.mark.parametrize("cls, values, text", EXAMPLES,
                         ids=[cls.__name__ for cls, _, _ in EXAMPLES])
def test_record_contract(cls, values, text):
    record = cls(*values)
    names = tuple(f.name for f in fields(getattr(OLD, cls.__name__)))
    assert cls._fields == names
    assert [getattr(record, name) for name in names] == list(values)
    assert cls(**dict(zip(names, values))) == record
    assert hash(record) == hash(values)
    assert hash(record) == hash(getattr(OLD, cls.__name__)(*values))
    assert repr(record) == text
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is cls and back == record
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])


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
    witness = pf.transition_witness(pf.pre_star(pds, aut), pds,
                                    pf.Transition("p", "a", "p"))
    assert witness == (pf.Rule("p", "a", "p", ("b",), 1),
                       pf.Rule("p", "b", "p", (), 1))
    assert all(type(r) is pf.Rule for r in witness)
    aut = pf.make_automaton(pds, [pf.Transition("p", "a", "f")], ["f"], POST)
    witness = pf.transition_witness(pf.post_star(pds, aut), pds,
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
FACTORS = st.tuples(st.just("var"), TRANSITIONS) | st.tuples(st.just("const"), WEIGHTS)
FACTS = st.frozensets(st.sampled_from(["u", "v"]))
RAW = {
    "Transition": TRANSITIONS,
    "Rule": RULES,
    "Configuration": st.tuples(NAMES, st.lists(NAMES, max_size=3).map(tuple)),
    "Constraint": st.tuples(st.lists(FACTORS, max_size=3).map(tuple), TRANSITIONS),
    "TraceEntry": st.tuples(TRANSITIONS, st.none() | RULES,
                            st.lists(TRANSITIONS, max_size=2).map(tuple)),
    "IntraEdge": st.tuples(NAMES, NAMES, st.builds(KillGenElement, FACTS, FACTS)),
    "CallEdge": st.tuples(NAMES, NAMES, NAMES),
}
TEXT_ARGS = {"Transition": (), "Configuration": (), "Rule": (MP,), "Constraint": (MP,)}


def build(defs, kind: str, raw):
    """The record that ``raw`` describes, made of the classes in ``defs``."""
    if kind == "Constraint":
        lhs, rhs = raw
        return defs.Constraint(
            tuple(Var(defs.Transition(*x)) if f == "var" else Const(x) for f, x in lhs),
            defs.Transition(*rhs))
    if kind == "TraceEntry":
        t, rule, matched = raw
        return defs.TraceEntry(defs.Transition(*t),
                               None if rule is None else defs.Rule(*rule),
                               tuple(defs.Transition(*m) for m in matched))
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
