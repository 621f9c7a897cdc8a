"""Saturation procedures that grow an automaton and emit constraints.

Both directions add transitions until a fixpoint and record, for every
rule match, a ``Constraint``: the rule's weight next to the matched
transition variables, below the added transition's variable.  Backward
the variables follow the weight, forward they precede it.  The two
directions share one worklist loop, after Esparza, Hansel, Rossmanith &
Schwoon (CAV 2000) and Schwoon (2002, ch. 3): each transition is popped
once, indexed by (source, label), and matched against the rules it can
take part in; only the pop/swap/push matching differs by direction.
Solving the constraints afterwards yields the weighted readout; keeping
the two phases apart puts no algebraic requirements on this module
beyond the existence of the operations themselves.
"""

from __future__ import annotations

from collections import deque
from typing import Any, NamedTuple

from .algebra import FlowAlgebra, _new
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


class Constraint(NamedTuple):
    """The inequation ``before (x) weight (x) after <= rhs``.

    ``before`` and ``after`` are tuples of transition variables and
    ``weight`` is a rule weight or ``one``.  Backward constraints have an
    empty ``before``, forward ones an empty ``after``, seed constraints
    both; each side holds at most two variables.  The product is taken
    left to right and does not commute."""

    before: tuple
    weight: Any
    after: tuple
    rhs: Transition

    def text(self, alg: FlowAlgebra) -> str:
        parts = [t.text() for t in self.before]
        parts.append(alg.render(self.weight))
        parts += [t.text() for t in self.after]
        return f"{' (x) '.join(parts)} <= {self.rhs.text()}"


class SaturationResult(NamedTuple):
    """The saturated automaton and its constraints.  ``trace`` holds the
    transitions saturation added, in the order it added them; the first
    constraint below each one is the rule match that added it."""

    automaton: PAutomaton
    constraints: tuple
    trace: tuple
    original: PAutomaton


def render_constraints(result: SaturationResult, alg: FlowAlgebra) -> str:
    """The constraints as text, sorted by right-hand side, then by text."""
    lines = sorted((c.rhs.text(), c.text(alg)) for c in result.constraints)
    return "\n".join(text for _, text in lines) + "\n"


def _saturate(pds: PushdownSystem, aut: PAutomaton) -> SaturationResult:
    """The worklist fixpoint both directions share.

    Every transition, original or added, is popped once; popping it
    indexes it and fires each rule match that uses it together with
    transitions popped before.  Equal constraints are kept once.
    Constraints are returned in discovery order, which is deterministic
    (only insertion-ordered containers are iterated) and hands the
    solver each constraint soon after the ones it depends on; nothing
    is rendered here, and ``render_constraints`` sorts for output.
    """
    validate_input_automaton(aut)
    alg = pds.algebra
    transitions: dict = {}  # insertion-ordered set
    constraints: dict = {}  # insertion-ordered set
    worklist: deque = deque()
    out: dict = {}  # src -> label -> popped transitions
    eps_into: dict = {}  # dst -> popped epsilon transitions
    mids: set = set()  # forward: the mid state of every push rule

    def emit(t, before, w, after) -> None:
        """Record before (x) w (x) after <= t, and add t if it is new."""
        constraints[_new(Constraint, (before, w, after, t))] = None
        if t not in transitions:
            transitions[t] = None
            worklist.append(t)

    original = sorted(aut.transitions, key=transition_key)
    for t in original:
        emit(t, (), alg.one, ())

    if aut.direction == PRE:
        first: dict = {}  # (to_loc, to_word[0]) -> swap and push rules
        halves: dict = {}  # (q', g2) -> half-applied (push rule, p' -g1-> q')
        for r in pds.rules:
            if not r.to_word:
                emit(_new(Transition, (r.from_loc, r.from_sym, r.to_loc)),
                     (), r.weight, ())
                continue
            first.setdefault((r.to_loc, r.to_word[0]), []).append(r)

        def fire(t: Transition) -> None:
            for r in first.get((t.src, t.label), ()):
                if len(r.to_word) == 1:
                    emit(_new(Transition, (r.from_loc, r.from_sym, t.dst)),
                         (), r.weight, (t,))
                    continue
                halves.setdefault((t.dst, r.to_word[1]), []).append((r, t))
                for t2 in out.get(t.dst, {}).get(r.to_word[1], ()):
                    emit(_new(Transition, (r.from_loc, r.from_sym, t2.dst)),
                         (), r.weight, (t, t2))
            for r, t1 in halves.get((t.src, t.label), ()):
                emit(_new(Transition, (r.from_loc, r.from_sym, t.dst)),
                     (), r.weight, (t1, t))
    else:
        by_lhs: dict = {}  # (from_loc, from_sym) -> rules
        for r in pds.rules:
            by_lhs.setdefault((r.from_loc, r.from_sym), []).append(r)
            if len(r.to_word) == 2:
                mids.add(mid_location(r.to_loc, r.to_word[0]))

        def apply(r: Rule, q: str, path: tuple) -> None:
            if len(r.to_word) == 2:
                mid = mid_location(r.to_loc, r.to_word[0])
                emit(_new(Transition, (r.to_loc, r.to_word[0], mid)),
                     (), alg.one, ())
                t_new = _new(Transition, (mid, r.to_word[1], q))
            else:
                label = r.to_word[0] if r.to_word else None
                t_new = _new(Transition, (r.to_loc, label, q))
            emit(t_new, path, r.weight, ())

        def fire(t: Transition) -> None:
            for r in by_lhs.get((t.src, t.label), ()):
                apply(r, t.dst, (t,))
            for te in eps_into.get(t.src, ()):
                for r in by_lhs.get((te.src, t.label), ()):
                    apply(r, t.dst, (t, te))
            if t.label is None:
                for label, after in out.get(t.dst, {}).items():
                    for r in by_lhs.get((t.src, label), ()):
                        for t2 in after:
                            apply(r, t2.dst, (t2, t))

    while worklist:
        t = worklist.popleft()
        out.setdefault(t.src, {}).setdefault(t.label, []).append(t)
        if t.label is None:
            eps_into.setdefault(t.dst, []).append(t)
        fire(t)

    saturated = PAutomaton(
        states=aut.states | mids,
        alphabet=aut.alphabet,
        transitions=frozenset(transitions),
        initials=aut.initials,
        finals=aut.finals,
        direction=aut.direction,
        saturated=True,
    )
    return SaturationResult(
        automaton=saturated,
        constraints=tuple(constraints),
        trace=tuple(transitions)[len(original):],
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
    return _saturate(pds, aut)


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
    return _saturate(pds, aut)
