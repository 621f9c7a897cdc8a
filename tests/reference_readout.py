"""The readout that pdsflow shipped before its one-walk readout, kept as
a reference.

``query_by_runs`` is the definition: the join of the weighted readouts
over every accepting run.  ``analysis_report`` joins per-state weights
to the final states with a round-based loop that re-scans every
transition until nothing changes.  The tests require ``query`` and
``encode.analysis_report`` to give the same results as this copy.
``read_weight_pre`` and ``read_weight_post`` weigh one run.
"""

from pdsflow.automaton import POST, PRE, PAutomaton
from pdsflow.encode import ICFG
from pdsflow.errors import IterationLimitExceededError, NotAcceptedError
from pdsflow.oracle import Run, accepting_runs


def read_weight_pre(aut: PAutomaton, sol, rho: Run):
    """Product of the run's transition values, first transition first."""
    assert aut.direction == PRE
    alg = sol.algebra
    acc = alg.one
    for t in rho.transitions:
        acc = alg.extend(acc, sol.value(t))
    return acc


def read_weight_post(aut: PAutomaton, sol, rho: Run):
    """Product in reverse run order: the stack is built from the bottom,
    so the transition consumed last is multiplied first."""
    assert aut.direction == POST
    alg = sol.algebra
    acc = alg.one
    for t in reversed(rho.transitions):
        acc = alg.extend(acc, sol.value(t))
    return acc


def query_by_runs(aut: PAutomaton, sol, c):
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


def _state_to_final_join(aut: PAutomaton, sol, max_rounds: int = 10_000) -> dict:
    """Join of run weights from each state to the final states.

    Forward direction multiplies in reverse run order, backward in run
    order; epsilon transitions are excluded because a run can only take
    one as its very first step, which the caller accounts for.
    """
    alg = sol.algebra
    dist: dict = {q: None for q in aut.states}
    for q in aut.finals:
        dist[q] = alg.one

    def merged(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return alg.combine(a, b)

    for _ in range(max_rounds):
        changed = False
        for t in sorted(aut.transitions, key=lambda t: t.text()):
            if t.label is None:
                continue
            via = dist[t.dst]
            if via is None:
                continue
            if aut.direction == POST:
                candidate = alg.extend(via, sol[t])
            else:
                candidate = alg.extend(sol[t], via)
            new = merged(dist[t.src], candidate)
            if dist[t.src] is None or alg.render(new) != alg.render(dist[t.src]):
                dist[t.src] = new
                changed = True
        if not changed:
            return dist
    raise IterationLimitExceededError(
        f"state-to-final join did not stabilize in {max_rounds} rounds"
    )


def analysis_report(g: ICFG, direction: str, sol, aut: PAutomaton) -> dict:
    """Per-node weights: for each node, the join of the query over every
    accepted configuration with that node on top of the stack, or None
    when no accepted configuration has it on top."""
    alg = sol.algebra
    dist = _state_to_final_join(aut, sol)
    table: dict = {n: None for n in g.nodes}

    def add(node, value):
        if node not in table:
            return
        table[node] = value if table[node] is None else alg.combine(table[node], value)

    for p in sorted(aut.initials):
        firsts = [((), t) for t in aut.outgoing(p) if t.label is not None]
        if direction == POST:
            for te in aut.outgoing(p):
                if te.label is None:
                    firsts += [
                        ((te,), t)
                        for t in aut.outgoing(te.dst)
                        if t.label is not None
                    ]
        for eps_prefix, t in firsts:
            rest = dist[t.dst]
            if rest is None:
                continue
            if direction == POST:
                value = alg.extend(rest, sol[t])
                for te in eps_prefix:
                    value = alg.extend(value, sol[te])
            else:
                value = alg.extend(sol[t], rest)
            add(t.label, value)
    return table
