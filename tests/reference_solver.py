"""Synchronous Kleene iteration over saturation constraints, kept as a
reference for the worklist solver.

``apply_F`` is the constraint system's monotone map: one step that sets
each variable to the join of its constraints' left-hand sides.
``iterate_to_fixpoint`` applies it from the all-zero assignment until
nothing changes.  The tests use both to check ``solve_least``: its
result must be a fixpoint of ``apply_F``, below every other one, and
equal to the limit of the synchronous iteration.
"""

from pdsflow.algebra import FlowAlgebra
from pdsflow.errors import IterationLimitExceededError
from pdsflow.solver import Solution, constraint_variables, eval_lhs


def apply_F(sol: Solution, constraints) -> Solution:
    """One synchronous step: each variable becomes the join of its
    constraints' left-hand sides; unconstrained variables drop to zero."""
    alg = sol.algebra
    new = {t: alg.zero for t in sol.assignment}
    for c in constraints:
        v = eval_lhs(sol, c)
        new[c.rhs] = alg.combine(new.get(c.rhs, alg.zero), v)
    return Solution(alg, new)


def iterate_to_fixpoint(constraints, alg: FlowAlgebra,
                        max_rounds: int = 10_000) -> Solution:
    """Naive synchronous iteration of apply_F from all-zero; the worklist
    solver must agree with this limit."""
    variables = constraint_variables(constraints)
    sol = Solution(alg, {t: alg.zero for t in variables})
    for _ in range(max_rounds):
        nxt = apply_F(sol, constraints)
        if nxt.assignment == sol.assignment:
            return nxt
        sol = nxt
    raise IterationLimitExceededError(
        f"no fixpoint after {max_rounds} synchronous rounds"
    )
