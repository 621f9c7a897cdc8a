"""Brute-force helpers that only the tests use, kept out of the package.

``build_delta_post`` is the unsplit forward composite rule system, whose
depth bounds count pushdown steps; ``enumerate_paths_depth_first``
cross-checks the oracle's breadth-first enumeration.
"""

from pdsflow.automaton import transition_key
from pdsflow.oracle import PathQuery, step
from pdsflow.pds import PushdownSystem, Rule


def build_delta_post(pds: PushdownSystem, aut) -> list:
    """Generator rules plus the untouched user rules.

    The unsplit forward composite: pushes are single steps here, so
    reachability depth bounds speak about pushdown steps, not about the
    mid-location encoding of build_delta_post2.
    """
    one = pds.algebra.one
    gens = [
        Rule(t.dst, None, t.src, (t.label,), one)
        for t in sorted(aut.transitions, key=transition_key)
    ]
    return gens + list(pds.rules)


def enumerate_paths_depth_first(q: PathQuery) -> list:
    """Independent depth-first variant used to cross-check enumeration."""
    found = []

    def visit(sigma, cfg):
        if len(sigma) > q.depth_bound:
            return
        if q.matches(cfg):
            found.append(sigma)
        if len(sigma) == q.depth_bound:
            return
        for r, succ in step(q.rules, cfg):
            if len(succ.stack) <= q.stack_bound:
                visit(sigma + (r,), succ)

    visit((), q.source)
    return found
