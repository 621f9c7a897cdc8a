"""The round-based pre* and post* that pdsflow shipped before its
worklist engine, kept as a reference.

Each round re-matches every rule against a snapshot of all transitions
until neither a transition nor a constraint is added.  The tests
require the worklist engine to produce exactly the same constraints,
automaton and trace transitions as this copy.  The copy keeps the
constraint records of that time, whose left-hand side is a list of
``Const`` and ``Var`` factors, and deduplicates constraints by text.
"""

from typing import Any, NamedTuple

from pdsflow.algebra import FlowAlgebra
from pdsflow.automaton import (
    POST,
    PRE,
    PAutomaton,
    Transition,
    transition_key,
    validate_input_automaton,
)
from pdsflow.errors import InvalidInputAutomatonError
from pdsflow.pds import PushdownSystem, Rule, mid_location
from pdsflow.record import Record
from pdsflow.saturation import SaturationResult


class Const(Record):
    """A constant factor; unequal to a ``Var`` and to any tuple."""

    __slots__ = _fields = ("value",)

    def __init__(self, value: Any):
        _set_value(self, value)


class Var(Record):
    """A transition-variable factor."""

    __slots__ = _fields = ("transition",)

    def __init__(self, transition: Transition):
        _set_transition(self, transition)


# Saturation builds factors by the hundred: each sets its one slot through
# the slot's own setter, the cheapest way past Record.__setattr__.
_set_value = Const.value.__set__
_set_transition = Var.transition.__set__


class Constraint(NamedTuple):
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


class _Builder:
    """Shared bookkeeping: transition set, constraint set, trace."""

    def __init__(self, aut: PAutomaton, alg: FlowAlgebra):
        self.alg = alg
        self.transitions = set(aut.transitions)
        self.constraints: dict = {}
        self.trace: list = []

    def add_constraint(self, c: Constraint) -> bool:
        key = c.text(self.alg)
        if key in self.constraints:
            return False
        self.constraints[key] = c
        return True

    def add(self, t: Transition, c: Constraint, rule: Rule, matched: tuple) -> bool:
        changed = False
        if t not in self.transitions:
            self.transitions.add(t)
            self.trace.append(t)
            changed = True
        if self.add_constraint(c):
            changed = True
        return changed

    def sorted_constraints(self) -> tuple:
        return tuple(
            sorted(
                self.constraints.values(),
                key=lambda c: (c.rhs.text(), c.text(self.alg)),
            )
        )


def _seed(builder: _Builder, aut: PAutomaton) -> None:
    one = builder.alg.one
    for t in sorted(aut.transitions, key=transition_key):
        builder.add_constraint(Constraint((Const(one),), t))


def pre_star(pds: PushdownSystem, aut: PAutomaton) -> SaturationResult:
    """Backward saturation with constraint generation.

    Rule cases, matched against the current automaton:
      pop   <p,g> -> <p',eps>:    add p -g-> p',  f(r) <= l(p,g,p')
      swap  <p,g> -> <p',g'>:     for p' -g'-> q,
                                  add p -g-> q,   f(r) (x) l(p',g',q) <= l(p,g,q)
      push  <p,g> -> <p',g1 g2>:  for p' -g1-> q' -g2-> q,
                                  add p -g-> q,
                                  f(r) (x) l(p',g1,q') (x) l(q',g2,q) <= l(p,g,q)
    plus a seed constraint (one below the variable) per original
    transition.  Stops when neither a transition nor a constraint can
    be added; no states are created.
    """
    if aut.direction != PRE:
        raise InvalidInputAutomatonError("pre_star needs a Pre-direction automaton")
    validate_input_automaton(aut)
    builder = _Builder(aut, pds.algebra)
    _seed(builder, aut)

    changed = True
    while changed:
        changed = False
        snapshot = sorted(builder.transitions, key=transition_key)
        by_src_label: dict = {}
        for t in snapshot:
            by_src_label.setdefault((t.src, t.label), []).append(t)
        for r in pds.rules:
            w = Const(r.weight)
            if len(r.to_word) == 0:
                t_new = Transition(r.from_loc, r.from_sym, r.to_loc)
                changed |= builder.add(
                    t_new, Constraint((w,), t_new), r, ()
                )
            elif len(r.to_word) == 1:
                for t1 in by_src_label.get((r.to_loc, r.to_word[0]), []):
                    t_new = Transition(r.from_loc, r.from_sym, t1.dst)
                    changed |= builder.add(
                        t_new, Constraint((w, Var(t1)), t_new), r, (t1,)
                    )
            else:
                for t1 in by_src_label.get((r.to_loc, r.to_word[0]), []):
                    for t2 in by_src_label.get((t1.dst, r.to_word[1]), []):
                        t_new = Transition(r.from_loc, r.from_sym, t2.dst)
                        changed |= builder.add(
                            t_new,
                            Constraint((w, Var(t1), Var(t2)), t_new),
                            r,
                            (t1, t2),
                        )

    saturated = PAutomaton(
        states=aut.states,
        alphabet=aut.alphabet,
        transitions=frozenset(builder.transitions),
        initials=aut.initials,
        finals=aut.finals,
        direction=PRE,
        saturated=True,
    )
    return SaturationResult(
        automaton=saturated,
        constraints=builder.sorted_constraints(),
        trace=tuple(builder.trace),
        original=aut,
    )


def _eps_paths(transitions, gamma: str, p: str) -> list:
    """Paths that consume gamma when entered at p, possibly after one
    epsilon step: either p -gamma-> q, or p -eps-> q' -gamma-> q.

    Returns (end state, lhs factors, matched transitions); the factors
    put the gamma transition first, then the epsilon one.
    """
    ordered = sorted(transitions, key=transition_key)
    direct = [t for t in ordered if t.src == p and t.label == gamma]
    eps = [t for t in ordered if t.src == p and t.label is None]
    out = [(t.dst, (Var(t),), (t,)) for t in direct]
    for te in eps:
        for t2 in ordered:
            if t2.src == te.dst and t2.label == gamma:
                out.append((t2.dst, (Var(t2), Var(te)), (t2, te)))
    return out


def post_star(pds: PushdownSystem, aut: PAutomaton) -> SaturationResult:
    """Forward saturation with constraint generation.

    A fresh mid state is created up front for every push rule.  Rule
    cases, each matched against paths that consume the rule's left
    symbol out of its source location (one leading epsilon step
    allowed):
      pop   <p,g> -> <p',eps>:    add p' -eps-> q,  path (x) f(r) <= l(p',eps,q)
      swap  <p,g> -> <p',g'>:     add p' -g'-> q,   path (x) f(r) <= l(p',g',q)
      push  <p,g> -> <p',g1 g2>:  add p' -g1-> mid and mid -g2-> q, with
                                  one <= l(p',g1,mid) and
                                  path (x) f(r) <= l(mid,g2,q)
    where path is the variable product of the matched run.
    """
    if aut.direction != POST:
        raise InvalidInputAutomatonError("post_star needs a Post-direction automaton")
    validate_input_automaton(aut)
    builder = _Builder(aut, pds.algebra)
    _seed(builder, aut)

    states = set(aut.states)
    for r in pds.rules:
        if len(r.to_word) == 2:
            states.add(mid_location(r.to_loc, r.to_word[0]))

    changed = True
    while changed:
        changed = False
        snapshot = frozenset(builder.transitions)
        for r in pds.rules:
            w = Const(r.weight)
            for q_end, prefix, matched in _eps_paths(snapshot, r.from_sym, r.from_loc):
                if len(r.to_word) == 0:
                    t_new = Transition(r.to_loc, None, q_end)
                    changed |= builder.add(
                        t_new, Constraint(prefix + (w,), t_new), r, matched
                    )
                elif len(r.to_word) == 1:
                    t_new = Transition(r.to_loc, r.to_word[0], q_end)
                    changed |= builder.add(
                        t_new, Constraint(prefix + (w,), t_new), r, matched
                    )
                else:
                    mid = mid_location(r.to_loc, r.to_word[0])
                    t_mid = Transition(r.to_loc, r.to_word[0], mid)
                    changed |= builder.add(
                        t_mid,
                        Constraint((Const(pds.algebra.one),), t_mid),
                        r,
                        (),
                    )
                    t_out = Transition(mid, r.to_word[1], q_end)
                    changed |= builder.add(
                        t_out, Constraint(prefix + (w,), t_out), r, matched
                    )

    saturated = PAutomaton(
        states=frozenset(states),
        alphabet=aut.alphabet,
        transitions=frozenset(builder.transitions),
        initials=aut.initials,
        finals=aut.finals,
        direction=POST,
        saturated=True,
    )
    return SaturationResult(
        automaton=saturated,
        constraints=builder.sorted_constraints(),
        trace=tuple(builder.trace),
        original=aut,
    )
