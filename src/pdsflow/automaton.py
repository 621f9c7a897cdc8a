"""Automata over regular sets of pushdown configurations.

States include the pushdown control locations as initial states; a
configuration <p, s> is accepted when some run from p spelling s ends
in a final state.  Weighted readout multiplies a solved assignment
along a run, left to right for the backward direction and in reverse
for the forward one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional

from .errors import (
    InvalidInputAutomatonError,
    MissingAssignmentError,
    NotAcceptedError,
    ParseError,
    UnknownLocationError,
)
from .pds import (
    EPS_TEXT,
    IDENTIFIER_RE,
    Configuration,
    PushdownSystem,
    label_text,
)

PRE = "pre"
POST = "post"


@dataclass(frozen=True)
class Transition:
    src: str
    label: Optional[str]  # None is the epsilon label
    dst: str

    def text(self) -> str:
        return f"l({self.src},{label_text(self.label)},{self.dst})"


def transition_key(t: Transition) -> tuple:
    return (t.src, t.label is not None, t.label or "", t.dst)


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

    def text(self) -> str:
        lines = []
        if self.states:
            lines.append("states " + " ".join(sorted(self.states)))
        if self.finals:
            lines.append("final " + " ".join(sorted(self.finals)))
        for t in sorted(self.transitions, key=transition_key):
            lines.append(f"trans {t.src} {label_text(t.label)} {t.dst}")
        return "\n".join(lines) + "\n"


def make_automaton(
    pds: PushdownSystem,
    transitions: Iterable[Transition],
    finals: Iterable[str],
    direction: str,
    extra_states: Iterable[str] = (),
) -> PAutomaton:
    transitions = frozenset(transitions)
    states = (
        frozenset(pds.locations)
        | frozenset(extra_states)
        | frozenset(x for t in transitions for x in (t.src, t.dst))
        | frozenset(finals)
    )
    labels = frozenset(t.label for t in transitions if t.label is not None)
    return PAutomaton(
        states=states,
        alphabet=frozenset(pds.alphabet) | labels,
        transitions=transitions,
        initials=frozenset(pds.locations),
        finals=frozenset(finals),
        direction=direction,
    )


def validate_input_automaton(aut: PAutomaton) -> None:
    """Check the preconditions saturation relies on.

    Input automata may not have transitions into initial states, may
    not use the epsilon label, and must keep initial and final states
    disjoint.  Automata that are themselves saturation outputs violate
    the first two by construction and are exempt, which is what makes
    re-saturation a usable no-op.
    """
    if not aut.saturated:
        for t in sorted(aut.transitions, key=transition_key):
            if t.dst in aut.initials:
                raise InvalidInputAutomatonError(
                    f"transition {t.text()} enters the initial state {t.dst}"
                )
            if t.label is None:
                raise InvalidInputAutomatonError(
                    f"transition {t.src} -> {t.dst} carries the epsilon label"
                )
    overlap = aut.initials & aut.finals
    if overlap:
        raise InvalidInputAutomatonError(
            f"initial and final states overlap: {', '.join(sorted(overlap))}"
        )
    if aut.direction not in (PRE, POST):
        raise InvalidInputAutomatonError(f"unknown direction {aut.direction!r}")


def load_automaton(
    text: str,
    pds: PushdownSystem,
    direction: str,
    source: str = "<automaton>",
) -> PAutomaton:
    """Parse the automaton format; initial states are the PDS locations."""
    declared: set = set()
    finals: set = set()
    transitions: set = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "states":
            declared.update(parts[1:])
        elif parts[0] == "final":
            if len(parts) < 2:
                raise ParseError("final line needs at least one state", source, lineno)
            finals.update(parts[1:])
        elif parts[0] == "trans":
            if len(parts) != 4:
                raise ParseError(
                    "trans line must be: trans <src> <label|eps> <dst>",
                    source, lineno,
                )
            src, label, dst = parts[1], parts[2], parts[3]
            if label == EPS_TEXT:
                raise ParseError(
                    "input automata may not use epsilon transitions",
                    source, lineno,
                )
            for name, what in ((src, "state"), (label, "stack symbol"), (dst, "state")):
                if not IDENTIFIER_RE.match(name):
                    raise ParseError(f"invalid {what} {name!r}", source, lineno)
            transitions.add(Transition(src, label, dst))
        else:
            raise ParseError(f"unrecognized line: {line!r}", source, lineno)
    for name in declared | finals:
        if not IDENTIFIER_RE.match(name):
            raise ParseError(f"invalid state name {name!r}", source)
    aut = make_automaton(pds, transitions, finals, direction, extra_states=declared)
    validate_input_automaton(aut)
    return aut


# ---------------------------------------------------------------------------
# acceptance and runs


def accepting_runs(aut: PAutomaton, c: Configuration) -> list:
    """Every accepting run for ``c``, in lexicographic transition order.

    Forward-direction automata may contain epsilon transitions added by
    saturation; a run may use at most one, and only as its first step
    out of the initial state.
    """
    if c.loc not in aut.initials:
        raise UnknownLocationError(
            f"{c.loc!r} is not an initial state of the automaton"
        )
    stack = c.stack
    n = len(stack)
    finals = aut.finals
    results: list = []
    if n == 0 and c.loc in finals:
        results.append(Run(()))
    # depth-first over (state, symbols read, run so far); successors are
    # pushed in reverse so that they are popped in transition order
    todo = [
        (t.dst, 0 if t.label is None else 1, (t,))
        for t in reversed(aut.outgoing(c.loc))
        if (t.label is None and aut.direction == POST)
        or (n and t.label == stack[0])
    ]
    while todo:
        state, pos, prefix = todo.pop()
        if pos == n:
            if state in finals:
                results.append(Run(prefix))
            continue
        sym = stack[pos]
        for t in reversed(aut.outgoing(state)):
            if t.label == sym:
                todo.append((t.dst, pos + 1, prefix + (t,)))
    return results


def accepts(aut: PAutomaton, c: Configuration) -> bool:
    return bool(accepting_runs(aut, c))


def accepted_configs(aut: PAutomaton, max_stack: int) -> list:
    """All accepted configurations with stack length up to ``max_stack``."""
    out = []
    for p in sorted(aut.initials):
        starts = [(p, ())]
        if aut.direction == POST:
            starts += [
                (t.dst, ()) for t in aut.outgoing(p) if t.label is None
            ]
        seen = set()
        frontier = starts
        for _ in range(max_stack + 1):
            nxt = []
            for state, spelled in frontier:
                if (state, spelled) in seen:
                    continue
                seen.add((state, spelled))
                if state in aut.finals:
                    out.append(Configuration(p, spelled))
                if len(spelled) < max_stack:
                    for t in aut.outgoing(state):
                        if t.label is not None:
                            nxt.append((t.dst, spelled + (t.label,)))
            frontier = nxt
    unique = {(c.loc, c.stack): c for c in out}
    return [unique[k] for k in sorted(unique)]


# ---------------------------------------------------------------------------
# weighted readout


def _weight_of(sol: Mapping, t: Transition):
    try:
        return sol[t]
    except KeyError:
        raise MissingAssignmentError(f"no value assigned to {t.text()}") from None


def read_weight_pre(aut: PAutomaton, sol, rho: Run):
    """Product of the run's transition values, first transition first."""
    assert aut.direction == PRE
    alg = sol.algebra
    acc = alg.one
    for t in rho.transitions:
        acc = alg.extend(acc, _weight_of(sol, t))
    return acc


def read_weight_post(aut: PAutomaton, sol, rho: Run):
    """Product in reverse run order: the stack is built from the bottom,
    so the transition consumed last is multiplied first."""
    assert aut.direction == POST
    alg = sol.algebra
    acc = alg.one
    for t in reversed(rho.transitions):
        acc = alg.extend(acc, _weight_of(sol, t))
    return acc


def query(aut: PAutomaton, sol, c: Configuration):
    """Join of the weighted readouts over all accepting runs of ``c``."""
    runs = accepting_runs(aut, c)
    if not runs:
        raise NotAcceptedError(f"configuration {c.text()} is not accepted")
    read = read_weight_pre if aut.direction == PRE else read_weight_post
    alg = sol.algebra
    acc = read(aut, sol, runs[0])
    for rho in runs[1:]:
        acc = alg.combine(acc, read(aut, sol, rho))
    return acc
