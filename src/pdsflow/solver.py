"""Least-solution computation for saturation constraints.

Kleene worklist iteration from the all-zero assignment: constraints are
re-evaluated only when a variable they mention changed, and the run
aborts cleanly when an application cap is hit (the symptom of a weight
domain with infinite ascending chains).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from .algebra import FlowAlgebra
from .automaton import Transition, transition_key
from .errors import IterationLimitExceededError, MissingAssignmentError
from .saturation import Const, Constraint, Var


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
        if t not in self.assignment:
            raise MissingAssignmentError(f"no value assigned to {t.text()}")
        return self.assignment[t]

    def render_lines(self) -> list:
        return [
            f"{t.text()} = {self.algebra.render(self.assignment[t])}"
            for t in sorted(self.assignment, key=lambda t: t.text())
        ]

    def text(self) -> str:
        return "\n".join(self.render_lines()) + "\n"


@dataclass(frozen=True)
class SolverConfig:
    max_applications: int = 1_000_000


def eval_lhs(sol, c: Constraint):
    """Left-to-right product of the constraint's factors under ``sol``."""
    alg = sol.algebra
    acc = alg.one
    first = True
    for f in c.lhs:
        v = f.value if isinstance(f, Const) else sol.value(f.transition)
        acc = v if first else alg.extend(acc, v)
        first = False
    return acc


def constraint_variables(constraints) -> list:
    """Every transition mentioned by the constraints, sorted."""
    seen = set()
    for c in constraints:
        seen.add(c.rhs)
        for f in c.lhs:
            if isinstance(f, Var):
                seen.add(f.transition)
    return sorted(seen, key=transition_key)


def apply_F(sol: Solution, constraints) -> Solution:
    """One synchronous step: each variable becomes the join of its
    constraints' left-hand sides; unconstrained variables drop to zero."""
    alg = sol.algebra
    new = {t: alg.zero for t in sol.assignment}
    for c in constraints:
        v = eval_lhs(sol, c)
        new[c.rhs] = alg.combine(new.get(c.rhs, alg.zero), v)
    return Solution(alg, new)


def solve_least(constraints, alg: FlowAlgebra,
                config: SolverConfig | None = None) -> Solution:
    """Least fixpoint by chaotic worklist iteration from all-zero.

    Result order-independence follows from uniqueness of least
    fixpoints of monotone maps; FIFO order just makes traces
    reproducible.
    """
    config = config or SolverConfig()
    constraints = list(constraints)
    variables = constraint_variables(constraints)
    assignment = {t: alg.zero for t in variables}
    sol = Solution(alg, assignment)

    dependents: dict = {}
    for i, c in enumerate(constraints):
        for f in c.lhs:
            if isinstance(f, Var):
                dependents.setdefault(f.transition, []).append(i)

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
        if alg.render(new) != alg.render(cur):
            assignment[c.rhs] = new
            changes += 1
            for j in dependents.get(c.rhs, ()):
                if j not in queued:
                    worklist.append(j)
                    queued.add(j)
    return Solution(alg, assignment,
                    stats={"applications": applications, "changes": changes})


def iterate_to_fixpoint(constraints, alg: FlowAlgebra,
                        max_rounds: int = 10_000) -> Solution:
    """Naive synchronous iteration of apply_F from all-zero; the worklist
    solver must agree with this limit."""
    variables = constraint_variables(constraints)
    sol = Solution(alg, {t: alg.zero for t in variables})
    for _ in range(max_rounds):
        nxt = apply_F(sol, constraints)
        if all(alg.render(nxt[t]) == alg.render(sol[t]) for t in variables):
            return nxt
        sol = nxt
    raise IterationLimitExceededError(
        f"no fixpoint after {max_rounds} synchronous rounds"
    )
