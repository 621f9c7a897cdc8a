"""Brute-force ground truth for reachability weights.

The executable forms of the soundness and completeness statements.
Both checks read one search plan, a bounded breadth-first enumeration
of rule sequences over a composite rule system: backward, one search
per accepted configuration towards an empty stack at a final state;
forward, one search per final state from its empty stack, collecting
every accepted configuration it reaches.  Deliberately shares no
saturation or solving code with the engine.  The step relation, the
composite rule systems and the accepted configurations that the checks
read live here too, off the command path, with the run enumeration that
the benchmark's run counter is checked against.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .algebra import FlowAlgebra
from .automaton import (
    POST,
    PRE,
    PAutomaton,
    Transition,
    check_initial,
    query,
    transition_key,
)
from .errors import PreconditionNotMetError
from .laws import _DISTRIBUTIVITY_LAWS, _law_verdict
from .pds import Configuration, PushdownSystem, Rule, mid_location
from .saturation import SaturationResult


# ---------------------------------------------------------------------------
# runs and accepted configurations


class Run(NamedTuple):
    """A chained transition sequence spelling a stack string."""

    transitions: tuple

    def spelled(self) -> tuple:
        return tuple(t.label for t in self.transitions if t.label is not None)


def accepting_runs(aut: PAutomaton, c: Configuration) -> list:
    """Every accepting run for ``c``, in lexicographic transition order.

    Forward-direction automata may contain epsilon transitions added by
    saturation; a run may use at most one, and only as its first step
    out of the initial state.
    """
    check_initial(aut, c)
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
    return sorted(set(out))


# ---------------------------------------------------------------------------
# transition relation


def step(rules: Sequence[Rule], c: Configuration) -> list:
    """All one-step moves from ``c``: pairs (rule, successor).

    Rules consuming a symbol need it on top of the stack; rules with no
    left symbol push their word without consuming.
    """
    out = []
    for r in rules:
        if r.from_loc != c.loc:
            continue
        if r.from_sym is None:
            out.append((r, Configuration(r.to_loc, r.to_word + c.stack)))
        elif c.stack and c.stack[0] == r.from_sym:
            out.append((r, Configuration(r.to_loc, r.to_word + c.stack[1:])))
    return out


def path_weight(alg: FlowAlgebra, sigma: Sequence[Rule]):
    """Product of rule weights left to right; the empty sequence is one."""
    acc = alg.one
    for r in sigma:
        acc = alg.extend(acc, r.weight)
    return acc


# ---------------------------------------------------------------------------
# composite rule systems


def build_delta_pre(pds: PushdownSystem, aut) -> list:
    """User rules plus one weight-one pop rule per automaton transition.

    The combined system first behaves like the pushdown system, then
    consumes the remaining stack by simulating the automaton.
    """
    extra = [
        Rule(t.src, t.label, t.dst, (), pds.algebra.one)
        for t in sorted(aut.transitions, key=transition_key)
    ]
    return list(pds.rules) + extra


def build_delta_post2(pds: PushdownSystem, aut) -> list:
    """Generator rules, split push rules, and the untouched remainder.

    Each automaton transition src -label-> dst yields a weight-one
    generator rule from dst that pushes the label, or nothing for an
    epsilon, and moves to src, so runs from a final state rebuild
    accepted configurations.  Each push rule is split in two through its
    mid location; the pair chains to the original weight because the
    second half has weight one.
    """
    one = pds.algebra.one
    out = [Rule(t.dst, None, t.src, _word(t), one)
           for t in sorted(aut.transitions, key=transition_key)]
    for r in pds.rules:
        if len(r.to_word) == 2:
            mid = mid_location(r.to_loc, r.to_word[0])
            out.append(Rule(r.from_loc, r.from_sym, mid, (r.to_word[1],), r.weight))
            out.append(Rule(mid, None, r.to_loc, (r.to_word[0],), one))
        else:
            out.append(r)
    return out


def _word(t: Transition) -> tuple:
    """What ``t`` spells: its label, or nothing for an epsilon transition."""
    return () if t.label is None else (t.label,)


# ---------------------------------------------------------------------------
# bounded path search


def _walk_paths(rules, source: Configuration, depth_bound: int,
                stack_bound: int, collect):
    """Breadth-first path walk; calls ``collect(sigma, config)`` on every
    node including the root.  Returns the exhausted flag."""
    truncated = False
    frontier = [((), source)]
    collect((), source)
    depth = 0
    while frontier and depth < depth_bound:
        nxt = []
        for sigma, cfg in frontier:
            for r, succ in step(rules, cfg):
                if len(succ.stack) > stack_bound:
                    truncated = True
                    continue
                sigma2 = sigma + (r,)
                collect(sigma2, succ)
                nxt.append((sigma2, succ))
        frontier = nxt
        depth += 1
    if frontier and any(step(rules, cfg) for _, cfg in frontier):
        truncated = True
    return not truncated


# ---------------------------------------------------------------------------
# soundness and completeness checks


class OracleViolation(NamedTuple):
    config: Configuration
    sigma_count: int
    lhs_text: str
    rhs_text: str

    def line(self) -> str:
        return (
            f"VIOLATION {self.config.text()} {self.sigma_count} "
            f"{self.lhs_text} {self.rhs_text}"
        )


class OracleReport(NamedTuple):
    checked: int
    bound_limited: int
    ok_configs: tuple  # of Configuration
    violations: tuple  # of OracleViolation

    @property
    def passed(self) -> bool:
        return not self.violations

    def render_lines(self) -> list:
        lines = [f"OK {c.text()}" for c in self.ok_configs]
        lines += [v.line() for v in self.violations]
        lines.append(
            f"checked={self.checked} violations={len(self.violations)} "
            f"bound_limited={self.bound_limited}"
        )
        return lines

    def text(self) -> str:
        return "\n".join(self.render_lines()) + "\n"


def _search_plan(pds: PushdownSystem, result: SaturationResult,
                 accepted: list, depth_bound: int) -> list:
    """The module's search plan, in order, as (covered, exhausted, hits)
    triples: ``hits`` pairs an accepted configuration with each rule
    sequence, in breadth-first order, that links it to an empty stack at
    a final state, and ``covered`` holds the configurations whose
    sequences the search may find."""
    if depth_bound < 1:
        raise ValueError("depth_bound must be at least 1")
    aut = result.automaton
    backward = aut.direction == PRE
    if backward:
        rules = build_delta_pre(pds, result.original)
        searches = [(c, (c,)) for c in accepted]
    else:
        rules = build_delta_post2(pds, result.original)
        searches = [(Configuration(q, ()), accepted) for q in sorted(aut.finals)]
    targets = set(accepted)
    plan = []
    for source, covered in searches:
        hits: list = []

        def collect(sigma, cfg):
            if backward:
                if not cfg.stack and cfg.loc in aut.finals:
                    hits.append((source, sigma))
            elif cfg in targets:
                hits.append((cfg, sigma))

        exhausted = _walk_paths(rules, source, depth_bound,
                                len(source.stack) + 2 * depth_bound, collect)
        plan.append((covered, exhausted, hits))
    return plan


def check_soundness(pds: PushdownSystem, result: SaturationResult, sol,
                    *, depth_bound: int = 12,
                    config_stack_bound: int = 4) -> OracleReport:
    """Every enumerated sequence weight must sit below the readout of
    the accepted configuration it links to a final state.  ``checked``
    counts sequences and ``bound_limited`` counts searches: one per
    accepted configuration backward, one per final state forward.
    """
    alg = pds.algebra
    aut = result.automaton
    accepted = accepted_configs(aut, config_stack_bound)
    readout = {c: query(aut, sol, c) for c in accepted}
    checked = bound_limited = 0
    violations = []
    for _, exhausted, hits in _search_plan(pds, result, accepted, depth_bound):
        bound_limited += not exhausted
        for c, sigma in hits:
            checked += 1
            w = path_weight(alg, sigma)
            if not alg.leq(w, readout[c]):
                violations.append(OracleViolation(
                    c, len(sigma), alg.render(w), alg.render(readout[c]),
                ))
    bad = {v.config for v in violations}
    ok = tuple(c for c in accepted if c not in bad)
    return OracleReport(checked, bound_limited, ok, tuple(violations))


def check_completeness(pds: PushdownSystem, result: SaturationResult, sol,
                       *, depth_bound: int = 12,
                       config_stack_bound: int = 4,
                       samples=None) -> OracleReport:
    """The readout must equal the join over all paths when the search is
    exhaustive; bound-limited configurations only get the one-sided
    check.  Requires a distributivity verdict on the weight domain.
    ``checked`` and ``bound_limited`` count configurations.  A
    configuration's paths are joined within each search first, then
    across searches in plan order.
    """
    alg = pds.algebra
    for law in _DISTRIBUTIVITY_LAWS:
        if _law_verdict(alg, law, samples).failed:
            raise PreconditionNotMetError(
                f"completeness requires distributivity; {law} fails for "
                f"algebra {alg.name!r}"
            )

    aut = result.automaton
    accepted = accepted_configs(aut, config_stack_bound)
    found: dict = {}  # config -> (join over its paths, number of paths)
    limited = set()
    for covered, exhausted, hits in _search_plan(pds, result, accepted,
                                                 depth_bound):
        if not exhausted:
            limited.update(covered)
        within: dict = {}
        for c, sigma in hits:
            w = path_weight(alg, sigma)
            v, n = within.get(c, (None, 0))
            within[c] = (alg.combine(v, w) if n else w, n + 1)
        for c, (w, n) in within.items():
            v, m = found.get(c, (None, 0))
            found[c] = (alg.combine(v, w) if m else w, m + n)

    ok, violations = [], []
    for c in accepted:
        rhs = query(aut, sol, c)
        value, count = found.get(c, (None, 0))
        if c in limited:
            bad = count and not alg.leq(value, rhs)
        else:
            bad = not count or rhs != value
        if bad:
            violations.append(OracleViolation(
                c, count, alg.render(value) if count else "no paths",
                alg.render(rhs),
            ))
        else:
            ok.append(c)
    return OracleReport(len(accepted), len(limited), tuple(ok), tuple(violations))
