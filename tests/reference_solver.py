"""Synchronous Kleene iteration over saturation constraints, kept as a
reference for the worklist solver.

``apply_F`` is the constraint system's monotone map: one step that sets
each variable to the join of its constraints' left-hand sides.
``iterate_to_fixpoint`` applies it from the all-zero assignment until
nothing changes.  The tests use both to check ``solve_least``: its
result must be a fixpoint of ``apply_F``, below every other one, and
equal to the limit of the synchronous iteration.  It evaluates the
constraints and collects their variables itself, sharing no code with
the solver.
"""

from pdsflow.algebra import FlowAlgebra
from pdsflow.automaton import transition_key
from pdsflow.errors import IterationLimitExceededError
from pdsflow.solver import Solution


def product(sol: Solution, c):
    """``before (x) weight (x) after`` under ``sol``, left to right."""
    factors = [sol.value(t) for t in c.before]
    factors.append(c.weight)
    factors += [sol.value(t) for t in c.after]
    acc = factors[0]
    for v in factors[1:]:
        acc = sol.algebra.extend(acc, v)
    return acc


def variables(constraints) -> list:
    """Every transition a constraint mentions, sorted."""
    seen = set()
    for c in constraints:
        seen.add(c.rhs)
        for t in c.before + c.after:
            seen.add(t)
    return sorted(seen, key=transition_key)


def apply_F(sol: Solution, constraints) -> Solution:
    """One synchronous step: each variable becomes the join of its
    constraints' left-hand sides; unconstrained variables drop to zero."""
    alg = sol.algebra
    new = {t: alg.zero for t in sol.assignment}
    for c in constraints:
        v = product(sol, c)
        new[c.rhs] = alg.combine(new.get(c.rhs, alg.zero), v)
    return Solution(alg, new)


def iterate_to_fixpoint(constraints, alg: FlowAlgebra,
                        max_rounds: int = 10_000) -> Solution:
    """Naive synchronous iteration of apply_F from all-zero; the worklist
    solver must agree with this limit."""
    sol = Solution(alg, {t: alg.zero for t in variables(constraints)})
    for _ in range(max_rounds):
        nxt = apply_F(sol, constraints)
        if nxt.assignment == sol.assignment:
            return nxt
        sol = nxt
    raise IterationLimitExceededError(
        f"no fixpoint after {max_rounds} synchronous rounds"
    )
