"""Saturation procedures that grow an automaton and emit constraints.

Both directions add transitions until a fixpoint and record, for every
rule match, an ordering constraint over transition variables.  They
share one worklist loop, after Esparza, Hansel, Rossmanith & Schwoon
(CAV 2000) and Schwoon (2002, ch. 3): each transition is popped once,
indexed by (source, label), and matched against the rules it can take
part in; only the pop/swap/push matching differs by direction.  Solving
the constraints afterwards yields the weighted readout; keeping the two
phases apart puts no algebraic requirements on this module beyond the
existence of the operations themselves.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Union

from .algebra import FlowAlgebra
from .automaton import (
    POST,
    PRE,
    PAutomaton,
    Transition,
    transition_key,
    validate_input_automaton,
)
from .errors import InvalidInputAutomatonError
from .pds import PushdownSystem, Rule, mid_location


@dataclass(frozen=True)
class Const:
    value: Any


@dataclass(frozen=True)
class Var:
    transition: Transition


Factor = Union[Const, Var]


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
class SaturationResult:
    automaton: PAutomaton
    constraints: tuple
    trace: tuple
    original: PAutomaton


def render_constraints(result: SaturationResult, alg: FlowAlgebra) -> str:
    return "\n".join(c.text(alg) for c in result.constraints) + "\n"


def _saturate(pds: PushdownSystem, aut: PAutomaton,
              states: frozenset) -> SaturationResult:
    """The worklist fixpoint both directions share.

    Every transition, original or added, is popped once; popping it
    indexes it and fires each rule match that uses it together with
    transitions popped before.  A constraint is kept once per key made
    of its right-hand side, its transition factors and its constant's
    rendered text, which together fix the constraint's text.
    """
    validate_input_automaton(aut)
    alg = pds.algebra
    one = (Const(alg.one), alg.render(alg.one))
    rules = [(r, (Const(r.weight), alg.render(r.weight))) for r in pds.rules]
    transitions: dict = {}  # insertion-ordered set
    constraints: dict = {}
    trace: list = []
    worklist: deque = deque()
    out: dict = {}  # src -> label -> popped transitions
    eps_into: dict = {}  # dst -> popped epsilon transitions

    def emit(t, before, w, after, rule=None) -> None:
        """Record before (x) w (x) after <= t, and add t if it is new;
        ``w`` is a constant with its rendered text."""
        key = (t, before, w[1], after)
        if key not in constraints:
            lhs = tuple(map(Var, before)) + (w[0],) + tuple(map(Var, after))
            constraints[key] = Constraint(lhs, t)
        if t not in transitions:
            transitions[t] = None
            worklist.append(t)
            trace.append(TraceEntry(t, rule, before + after))

    def popped(src: str, label) -> list:
        return out.get(src, {}).get(label, ())

    original = sorted(aut.transitions, key=transition_key)
    transitions.update(dict.fromkeys(original))
    worklist.extend(original)
    for t in original:
        emit(t, (), one, ())

    if aut.direction == PRE:
        first: dict = {}  # (to_loc, to_word[0]) -> swap and push rules
        second: dict = {}  # to_word[1] -> push rules
        for r, w in rules:
            if not r.to_word:
                emit(Transition(r.from_loc, r.from_sym, r.to_loc), (), w, (), r)
                continue
            first.setdefault((r.to_loc, r.to_word[0]), []).append((r, w))
            if len(r.to_word) == 2:
                second.setdefault(r.to_word[1], []).append((r, w))

        def fire(t: Transition) -> None:
            for r, w in first.get((t.src, t.label), ()):
                if len(r.to_word) == 1:
                    emit(Transition(r.from_loc, r.from_sym, t.dst),
                         (), w, (t,), r)
                    continue
                for t2 in popped(t.dst, r.to_word[1]):
                    emit(Transition(r.from_loc, r.from_sym, t2.dst),
                         (), w, (t, t2), r)
            for r, w in second.get(t.label, ()):
                for t1 in popped(r.to_loc, r.to_word[0]):
                    if t1.dst == t.src:
                        emit(Transition(r.from_loc, r.from_sym, t.dst),
                             (), w, (t1, t), r)
    else:
        by_lhs: dict = {}  # (from_loc, from_sym) -> rules
        for r, w in rules:
            by_lhs.setdefault((r.from_loc, r.from_sym), []).append((r, w))

        def apply(r: Rule, w: tuple, q: str, path: tuple) -> None:
            if len(r.to_word) == 2:
                mid = mid_location(r.to_loc, r.to_word[0])
                emit(Transition(r.to_loc, r.to_word[0], mid), (), one, (), r)
                t_new = Transition(mid, r.to_word[1], q)
            else:
                label = r.to_word[0] if r.to_word else None
                t_new = Transition(r.to_loc, label, q)
            emit(t_new, path, w, (), r)

        def fire(t: Transition) -> None:
            for r, w in by_lhs.get((t.src, t.label), ()):
                apply(r, w, t.dst, (t,))
            for te in eps_into.get(t.src, ()):
                for r, w in by_lhs.get((te.src, t.label), ()):
                    apply(r, w, t.dst, (t, te))
            if t.label is None:
                for label, after in out.get(t.dst, {}).items():
                    for r, w in by_lhs.get((t.src, label), ()):
                        for t2 in after:
                            apply(r, w, t2.dst, (t2, t))

    while worklist:
        t = worklist.popleft()
        out.setdefault(t.src, {}).setdefault(t.label, []).append(t)
        if t.label is None:
            eps_into.setdefault(t.dst, []).append(t)
        fire(t)

    saturated = PAutomaton(
        states=states,
        alphabet=aut.alphabet,
        transitions=frozenset(transitions),
        initials=aut.initials,
        finals=aut.finals,
        direction=aut.direction,
        saturated=True,
    )
    return SaturationResult(
        automaton=saturated,
        constraints=tuple(sorted(
            constraints.values(), key=lambda c: (c.rhs.text(), c.text(alg))
        )),
        trace=tuple(trace),
        original=aut,
    )


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
    return _saturate(pds, aut, aut.states)


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
    mids = {mid_location(r.to_loc, r.to_word[0])
            for r in pds.rules if len(r.to_word) == 2}
    return _saturate(pds, aut, aut.states | mids)


# ---------------------------------------------------------------------------
# witnesses


def transition_witness(result: SaturationResult, pds: PushdownSystem,
                       t: Transition) -> tuple:
    """A rule sequence over the composite system justifying ``t``.

    Backward direction: replaying the sequence from <src, label> empties
    the stack at dst.  Forward direction: replaying from <dst, empty>
    reaches <src, label>.  Built from the saturation trace; original
    transitions are justified by their pop or generator rule directly.
    """
    alg = pds.algebra
    direction = result.automaton.direction
    first_entry: dict = {}
    for entry in result.trace:
        first_entry.setdefault(entry.transition, entry)
    originals = result.original.transitions

    def build(t: Transition) -> tuple:
        if t in originals:
            if direction == PRE:
                return (Rule(t.src, t.label, t.dst, (), alg.one),)
            return (Rule(t.dst, None, t.src, (t.label,), alg.one),)
        entry = first_entry[t]
        r = entry.rule
        if direction == PRE:
            parts = [(r,)]
            parts.extend(build(m) for m in entry.matched)
            return tuple(x for part in parts for x in part)
        # forward direction
        if len(r.to_word) == 2:
            mid = mid_location(r.to_loc, r.to_word[0])
            if t.src == r.to_loc and t.dst == mid:
                return (Rule(mid, None, r.to_loc, (r.to_word[0],), alg.one),)
            split = Rule(r.from_loc, r.from_sym, mid, (r.to_word[1],), r.weight)
            path = tuple(x for m in entry.matched for x in build(m))
            return path + (split,)
        path = tuple(x for m in entry.matched for x in build(m))
        return path + (r,)

    return build(t)
