"""Least-solution computation for saturation constraints.

Kleene worklist iteration from the all-zero assignment: constraints are
re-evaluated only when a variable they mention changed, and the run
aborts cleanly when an application cap is hit (the symptom of a weight
domain with infinite ascending chains).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from typing import NamedTuple

from .algebra import FlowAlgebra
from .automaton import Transition, transition_key
from .errors import IterationLimitExceededError, MissingAssignmentError
from .record import Record
from .saturation import Constraint


class Solution(Record, Mapping):
    """A total assignment of algebra elements to transition variables.

    ``stats`` carries solver counters (applications, changes) when the
    worklist solver produced the solution; it never affects equality.
    A solution equals only another ``Solution``, never a plain dict, and
    is unhashable, as its assignment is a dict.  It iterates over its
    transitions in ``transition_key`` order, sorting them when iterated.
    """

    __slots__ = _fields = ("algebra", "assignment", "stats")
    __hash__ = None

    def __init__(self, algebra: FlowAlgebra, assignment: dict,
                 stats: dict = None):
        self._assign(algebra, assignment, stats)

    def _key(self) -> tuple:
        return self.algebra, self.assignment

    def __getitem__(self, t: Transition):
        return self.assignment[t]

    def __iter__(self):
        return iter(sorted(self.assignment, key=transition_key))

    def __len__(self) -> int:
        return len(self.assignment)

    def value(self, t: Transition):
        try:
            return self.assignment[t]
        except KeyError:
            raise MissingAssignmentError(f"no value assigned to {t.text()}") from None

    def render_lines(self) -> list:
        return [
            f"{t.text()} = {self.algebra.render(self.assignment[t])}"
            for t in sorted(self.assignment, key=lambda t: t.text())
        ]

    def text(self) -> str:
        return "\n".join(self.render_lines()) + "\n"


class SolverConfig(NamedTuple):
    max_applications: int = 1_000_000


def eval_lhs(sol, c: Constraint):
    """``before (x) weight (x) after`` under ``sol``, folded left to
    right: ``((b1 (x) b2) (x) weight) (x) a1 ...``."""
    extend, value = sol.algebra.extend, sol.value
    before = c.before
    if before:
        acc = value(before[0])
        for t in before[1:]:
            acc = extend(acc, value(t))
        acc = extend(acc, c.weight)
    else:
        acc = c.weight
    for t in c.after:
        acc = extend(acc, value(t))
    return acc


def solve_least(constraints, alg: FlowAlgebra,
                config: SolverConfig | None = None) -> Solution:
    """Least fixpoint by chaotic worklist iteration from all-zero.

    Result order-independence follows from uniqueness of least
    fixpoints of monotone maps; FIFO order just makes traces
    reproducible.
    """
    config = config or SolverConfig()
    constraints = list(constraints)
    dependents: dict = {}
    for i, c in enumerate(constraints):
        for t in c.before + c.after:
            dependents.setdefault(t, []).append(i)
    assignment = dict.fromkeys([*dependents, *(c.rhs for c in constraints)], alg.zero)
    sol = Solution(alg, assignment)

    worklist = deque(range(len(constraints)))
    queued = set(worklist)
    applications = 0
    changes = 0
    while worklist:
        i = worklist.popleft()
        queued.discard(i)
        applications += 1
        if applications > config.max_applications:
            raise IterationLimitExceededError(
                f"constraint solving exceeded {config.max_applications} "
                f"applications; the weight domain may lack the ascending "
                f"chain condition"
            )
        c = constraints[i]
        v = eval_lhs(sol, c)
        cur = assignment[c.rhs]
        new = alg.combine(cur, v)
        if new != cur:
            assignment[c.rhs] = new
            changes += 1
            for j in dependents.get(c.rhs, ()):
                if j not in queued:
                    worklist.append(j)
                    queued.add(j)
    return Solution(alg, assignment,
                    stats={"applications": applications, "changes": changes})
