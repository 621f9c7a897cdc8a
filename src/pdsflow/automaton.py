"""Automata over regular sets of pushdown configurations.

States include the pushdown control locations as initial states; a
configuration <p, s> is accepted when some run from p spelling s ends
in a final state.  Weighted readout multiplies a solved assignment
along a run, left to right for the backward direction and in reverse
for the forward one.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Iterable, NamedTuple, Optional

from .algebra import DistributiveFlowAlgebra
from .errors import (
    InvalidInputAutomatonError,
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
from .record import Record

PRE = "pre"
POST = "post"


class Transition(NamedTuple):
    src: str
    label: Optional[str]  # None is the epsilon label
    dst: str

    def text(self) -> str:
        return f"l({self.src},{label_text(self.label)},{self.dst})"


def transition_key(t: Transition) -> tuple:
    return (t.src, t.label is not None, t.label or "", t.dst)


class PAutomaton(Record):
    """An automaton; ``outgoing`` reads an index by source state that is
    built on first use."""

    _fields = ("states", "alphabet", "transitions", "initials", "finals",
               "direction", "saturated")
    __slots__ = _fields + ("_by_src",)

    def __init__(self, states: frozenset, alphabet: frozenset,
                 transitions: frozenset, initials: frozenset,
                 finals: frozenset, direction: str,  # PRE or POST
                 saturated: bool = False):
        self._assign(states, alphabet, transitions, initials, finals,
                     direction, saturated)
        object.__setattr__(self, "_by_src", None)

    def outgoing(self, state: str) -> tuple:
        """The transitions out of ``state``, in ``transition_key`` order."""
        index = self._by_src
        if index is None:
            lists: dict = {}
            for t in sorted(self.transitions, key=transition_key):
                lists.setdefault(t.src, []).append(t)
            index = {src: tuple(ts) for src, ts in lists.items()}
            object.__setattr__(self, "_by_src", index)
        return index.get(state, ())

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
# weighted readout


def check_initial(aut: PAutomaton, c: Configuration) -> None:
    """Raise ``UnknownLocationError`` unless ``c`` starts in an initial
    state of ``aut``; the readout and the run enumeration share it."""
    if c.loc not in aut.initials:
        raise UnknownLocationError(
            f"{c.loc!r} is not an initial state of the automaton"
        )


def then(aut: PAutomaton, alg):
    """``then(a, b)`` weighs a run piece weighing ``a`` followed by one
    weighing ``b``: backward runs multiply first transition first, and
    forward runs in reverse, as the stack is built from the bottom."""
    if aut.direction == PRE:
        return alg.extend
    return lambda a, b: alg.extend(b, a)


def readout_start(aut: PAutomaton, sol, p: str) -> list:
    """(state, value) after the runs from ``p`` that read no symbol: the
    empty run and, forward, one leading epsilon step."""
    start = [(p, sol.algebra.one)]
    if aut.direction == POST:
        start += [(t.dst, sol.value(t)) for t in aut.outgoing(p) if t.label is None]
    return start


def query(aut: PAutomaton, sol, c: Configuration):
    """Join of the weighted readouts over all accepting runs of ``c``.

    One walk over the stack keeps one value per automaton state and
    combines the values that arrive there, the path-sum of weighted
    pushdown systems.  Where extend distributes over combine (a
    ``DistributiveFlowAlgebra``) the value is an element, so a query
    makes at most |stack| x |transitions| calls to ``extend``.  Other
    algebras walk their powerset lifting: the value is the
    insertion-ordered set of prefix values, joined by union, and a step
    extends each member.  Both are the join over ``accepting_runs``."""
    check_initial(aut, c)
    alg = sol.algebra
    along = then(aut, alg)
    lifted = not isinstance(alg, DistributiveFlowAlgebra)
    if lifted:
        def step(values, w):
            return dict.fromkeys([along(v, w) for v in values])

        join = operator.or_
    else:
        step, join = along, alg.combine
    here: dict = {}  # state -> value of the prefixes that reach it
    for q, v in readout_start(aut, sol, c.loc):
        if lifted:
            v = {v: None}
        here[q] = join(here[q], v) if q in here else v
    moves: dict = {}  # (state, symbol) -> [(target, transition value)]
    for sym in c.stack:
        nxt: dict = {}
        for q, v in here.items():
            out = moves.get((q, sym))
            if out is None:
                out = moves[q, sym] = []
                for t in aut.outgoing(q):
                    if t.label == sym:
                        out.append((t.dst, sol.value(t)))
            for dst, w in out:
                w = step(v, w)
                nxt[dst] = join(nxt[dst], w) if dst in nxt else w
        here = nxt
    ends = [v for q, v in here.items() if q in aut.finals]
    if not ends:
        raise NotAcceptedError(f"configuration {c.text()} is not accepted")
    if lifted:
        ends = [v for values in ends for v in values]
    return reduce(alg.combine, ends)
