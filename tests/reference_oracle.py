"""Brute-force helpers that only the tests use, kept out of the package.

The bounded path search: ``PathQuery`` names a source configuration, a
target and the bounds; ``enumerate_paths`` lists the rule sequences it
finds and ``join_over_paths`` joins their weights into a
``PathSetValue``; ``reachable_configs`` and ``predecessor_configs``
collect the configurations within the bounds forwards and backwards.
``build_delta_post`` is the unsplit forward composite rule system, whose
depth bounds count pushdown steps; ``enumerate_paths_depth_first``
cross-checks the breadth-first enumeration.  ``check_soundness``
and ``check_completeness`` are the oracle's checks as they were before
both read one search plan, kept verbatim as the reference the new ones
must agree with: soundness inlines its own path enumeration, and forward
completeness runs one search per (accepted configuration, final state).
Their reports are the mutable ``OracleViolation`` and ``OracleReport``
dataclasses as they were then, whose ``text()`` is the package's.
``accepts`` decides acceptance by one walk over the stack, and
``transition_witness`` rebuilds, from the constraints of a saturation, a
rule sequence over the composite system that justifies one transition;
the package's checks use neither.
"""

from dataclasses import dataclass, field
from typing import Any, Optional

from pdsflow.algebra import FlowAlgebra
from pdsflow.automaton import (
    POST,
    PRE,
    PAutomaton,
    Transition,
    check_initial,
    query,
    transition_key,
)
from pdsflow.errors import PreconditionNotMetError
from pdsflow.laws import check_laws
from pdsflow.oracle import (
    _walk_paths,
    _word,
    accepted_configs,
    build_delta_post2,
    build_delta_pre,
    path_weight,
    step,
)
from pdsflow.pds import Configuration, PushdownSystem, Rule
from pdsflow.saturation import SaturationResult


@dataclass(frozen=True)
class PathQuery:
    """A bounded search for rule sequences from one source configuration.

    The target is either any empty-stack configuration at a final state
    or one exact configuration.  ``stack_bound`` limits intermediate
    stack heights; the default never prunes anything reachable within
    the depth bound, since a step grows the stack by at most one.
    """

    rules: tuple
    source: Configuration
    depth_bound: int
    stack_bound: int
    target_config: Optional[Configuration] = None
    target_finals: Optional[frozenset] = None

    def __post_init__(self):
        if self.depth_bound < 1:
            raise ValueError("depth_bound must be at least 1")
        if self.stack_bound < len(self.source.stack):
            raise ValueError("stack_bound below the source stack height")
        if (self.target_config is None) == (self.target_finals is None):
            raise ValueError("exactly one kind of target must be given")

    @classmethod
    def reaching_empty(cls, rules, source: Configuration, finals,
                       depth_bound: int, stack_bound: Optional[int] = None):
        return cls(
            rules=tuple(rules),
            source=source,
            depth_bound=depth_bound,
            stack_bound=cls._default_bound(source, depth_bound, stack_bound),
            target_finals=frozenset(finals),
        )

    @classmethod
    def reaching_config(cls, rules, source: Configuration,
                        target: Configuration, depth_bound: int,
                        stack_bound: Optional[int] = None):
        return cls(
            rules=tuple(rules),
            source=source,
            depth_bound=depth_bound,
            stack_bound=cls._default_bound(source, depth_bound, stack_bound),
            target_config=target,
        )

    @staticmethod
    def _default_bound(source, depth_bound, stack_bound):
        if stack_bound is not None:
            return stack_bound
        return len(source.stack) + 2 * depth_bound

    def matches(self, c: Configuration) -> bool:
        if self.target_config is not None:
            return c == self.target_config
        return not c.stack and c.loc in self.target_finals


@dataclass(frozen=True)
class PathSetValue:
    """Join of the weights of the sequences a search found.

    ``value`` is None when no sequence was found; an empty path set is
    reported as such, never silently as the zero weight.  ``exhausted``
    is True only when the whole search space within the stack bound was
    explored below the depth bound.
    """

    value: Any
    count: int
    exhausted: bool


def enumerate_paths(q: PathQuery) -> list:
    """All rule sequences within bounds leading from source to target,
    shortest first, lexicographic by rule position within a length."""
    found = []

    def collect(sigma, cfg):
        if q.matches(cfg):
            found.append(sigma)

    _walk_paths(q.rules, q.source, q.depth_bound, q.stack_bound, collect)
    return found


def join_over_paths(alg: FlowAlgebra, q: PathQuery) -> PathSetValue:
    """Join of path weights over every sequence the bounded search finds."""
    total = None
    count = 0

    def collect(sigma, cfg):
        nonlocal total, count
        if q.matches(cfg):
            w = path_weight(alg, sigma)
            total = w if total is None else alg.combine(total, w)
            count += 1

    exhausted = _walk_paths(q.rules, q.source, q.depth_bound, q.stack_bound,
                            collect)
    return PathSetValue(value=total, count=count, exhausted=exhausted)


def reachable_configs(rules, sources, *, depth_bound: int,
                      stack_bound: int) -> set:
    """Configurations reachable within the bounds (memoized, not paths)."""
    seen = set(sources)
    frontier = list(sources)
    for _ in range(depth_bound):
        nxt = []
        for cfg in frontier:
            for _, succ in step(rules, cfg):
                if len(succ.stack) <= stack_bound and succ not in seen:
                    seen.add(succ)
                    nxt.append(succ)
        frontier = nxt
    return seen


def predecessor_configs(rules, targets, *, depth_bound: int,
                        stack_bound: int) -> set:
    """Configurations that can reach a target within the bounds, found by
    walking the step relation backwards."""
    rules = list(rules)
    seen = set(targets)
    frontier = list(targets)
    for _ in range(depth_bound):
        nxt = []
        for cfg in frontier:
            for r in rules:
                if r.to_loc != cfg.loc:
                    continue
                k = len(r.to_word)
                if tuple(cfg.stack[:k]) != r.to_word:
                    continue
                rest = cfg.stack[k:]
                head = (r.from_sym,) if r.from_sym is not None else ()
                pred = Configuration(r.from_loc, head + rest)
                if len(pred.stack) <= stack_bound and pred not in seen:
                    seen.add(pred)
                    nxt.append(pred)
        frontier = nxt
    return seen


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


@dataclass(frozen=True)
class OracleViolation:
    config: Configuration
    sigma_count: int
    lhs_text: str
    rhs_text: str

    def line(self) -> str:
        return (
            f"VIOLATION {self.config.text()} {self.sigma_count} "
            f"{self.lhs_text} {self.rhs_text}"
        )


@dataclass
class OracleReport:
    checked: int = 0
    bound_limited: int = 0
    ok_configs: list = field(default_factory=list)
    violations: list = field(default_factory=list)

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


def _composite_rules(pds: PushdownSystem, result: SaturationResult) -> list:
    if result.automaton.direction == PRE:
        return build_delta_pre(pds, result.original)
    return build_delta_post2(pds, result.original)


def check_soundness(pds: PushdownSystem, result: SaturationResult, sol,
                    *, depth_bound: int = 12,
                    config_stack_bound: int = 4) -> OracleReport:
    """Every enumerated sequence weight must sit below the readout.

    Backward: sequences go from each accepted configuration to an
    empty stack at a final state.  Forward: sequences start at an empty
    stack on each final state and are grouped by the accepted
    configuration they end in.
    """
    alg = pds.algebra
    aut = result.automaton
    rules = _composite_rules(pds, result)
    report = OracleReport()
    accepted = accepted_configs(aut, config_stack_bound)

    if aut.direction == PRE:
        for c in accepted:
            rhs = query(aut, sol, c)
            q = PathQuery.reaching_empty(rules, c, aut.finals, depth_bound)
            sigmas: list = []

            def collect(sigma, cfg, q=q, sigmas=sigmas):
                if q.matches(cfg):
                    sigmas.append(sigma)

            exhausted = _walk_paths(q.rules, q.source, q.depth_bound,
                                    q.stack_bound, collect)
            if not exhausted:
                report.bound_limited += 1
            bad = False
            for sigma in sigmas:
                report.checked += 1
                w = path_weight(alg, sigma)
                if not alg.leq(w, rhs):
                    bad = True
                    report.violations.append(OracleViolation(
                        c, len(sigma), alg.render(w), alg.render(rhs),
                    ))
            if not bad:
                report.ok_configs.append(c)
        return report

    accepted_set = set(accepted)
    readout = {c: query(aut, sol, c) for c in accepted}
    bad_configs = set()
    for q_f in sorted(aut.finals):
        source = Configuration(q_f, ())
        hits: list = []

        def collect(sigma, cfg):
            if cfg in accepted_set:
                hits.append((sigma, cfg))

        exhausted = _walk_paths(
            rules, source, depth_bound,
            2 * depth_bound, collect,
        )
        if not exhausted:
            report.bound_limited += 1
        for sigma, cfg in hits:
            report.checked += 1
            w = path_weight(alg, sigma)
            if not alg.leq(w, readout[cfg]):
                bad_configs.add(cfg)
                report.violations.append(OracleViolation(
                    cfg, len(sigma), alg.render(w), alg.render(readout[cfg]),
                ))
    report.ok_configs = [c for c in accepted if c not in bad_configs]
    return report


def check_completeness(pds: PushdownSystem, result: SaturationResult, sol,
                       *, depth_bound: int = 12,
                       config_stack_bound: int = 4,
                       samples=None) -> OracleReport:
    """The readout must equal the join over all paths when the search is
    exhaustive; bound-limited configurations only get the one-sided
    check.  Requires a distributivity verdict on the weight domain.
    """
    alg = pds.algebra
    law_report = check_laws(alg, samples=samples)
    for law in ("distributes-left", "distributes-right"):
        if law_report.verdict(law).failed:
            raise PreconditionNotMetError(
                f"completeness requires distributivity; {law} fails for "
                f"algebra {alg.name!r}"
            )

    aut = result.automaton
    rules = _composite_rules(pds, result)
    report = OracleReport()
    accepted = accepted_configs(aut, config_stack_bound)

    for c in accepted:
        rhs = query(aut, sol, c)
        if aut.direction == PRE:
            q = PathQuery.reaching_empty(rules, c, aut.finals, depth_bound)
            value = join_over_paths(alg, q)
        else:
            parts = [
                join_over_paths(alg, PathQuery.reaching_config(
                    rules, Configuration(q_f, ()), c, depth_bound,
                ))
                for q_f in sorted(aut.finals)
            ]
            joined = None
            for p in parts:
                if p.value is not None:
                    joined = p.value if joined is None else alg.combine(joined, p.value)
            value = PathSetValue(
                value=joined,
                count=sum(p.count for p in parts),
                exhausted=all(p.exhausted for p in parts),
            )
        report.checked += 1
        if value.exhausted:
            if value.count == 0:
                report.violations.append(OracleViolation(
                    c, 0, "no paths", alg.render(rhs),
                ))
            elif rhs != value.value:
                report.violations.append(OracleViolation(
                    c, value.count, alg.render(value.value), alg.render(rhs),
                ))
            else:
                report.ok_configs.append(c)
        else:
            report.bound_limited += 1
            if value.count and not alg.leq(value.value, rhs):
                report.violations.append(OracleViolation(
                    c, value.count, alg.render(value.value), alg.render(rhs),
                ))
            else:
                report.ok_configs.append(c)
    return report


def accepts(aut: PAutomaton, c: Configuration) -> bool:
    """Whether ``c`` has an accepting run.  One walk over the stack keeps
    the set of states a run can be in, starting from the initial state
    and, forward, the targets of one leading epsilon step."""
    check_initial(aut, c)
    here = {c.loc}
    if aut.direction == POST:
        here |= {t.dst for t in aut.outgoing(c.loc) if t.label is None}
    for sym in c.stack:
        here = {t.dst for q in here for t in aut.outgoing(q) if t.label == sym}
    return not here.isdisjoint(aut.finals)


# ---------------------------------------------------------------------------
# witnesses


def transition_witness(result: SaturationResult, pds: PushdownSystem,
                       t: Transition) -> tuple:
    """A rule sequence over the composite system justifying ``t``.

    Backward direction: replaying the sequence from <src, label> empties
    the stack at dst.  Forward direction: replaying from <dst, empty>
    reaches <src, label>.  Built from the first constraint below each
    transition, the rule match that added it: its weight and matched
    transitions give back the rule.  An original transition's first
    constraint is its seed, which gives its pop or generator rule.
    """
    backward = result.automaton.direction == PRE
    first: dict = {}
    for c in result.constraints:
        first.setdefault(c.rhs, c)

    def parts(t: Transition) -> list:
        """Rules, and matched transitions standing for their witnesses."""
        c = first[t]
        if backward:
            to_loc = c.after[0].src if c.after else t.dst
            word = tuple(m.label for m in c.after)
            return [Rule(t.src, t.label, to_loc, word, c.weight), *c.after]
        if not c.before:  # a seed, or the p' -g1-> mid half of a push
            return [Rule(t.dst, None, t.src, _word(t), c.weight)]
        from_loc, from_sym = c.before[-1].src, c.before[0].label
        return [*c.before, Rule(from_loc, from_sym, t.src, _word(t), c.weight)]

    # an explicit stack: derivations may outgrow the recursion limit
    sequence, todo = [], [t]
    while todo:
        x = todo.pop()
        if isinstance(x, Rule):
            sequence.append(x)
        else:
            todo.extend(reversed(parts(x)))
    return tuple(sequence)
