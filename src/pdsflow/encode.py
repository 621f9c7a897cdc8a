"""Interprocedural control-flow graphs with kill/gen edge annotations,
their translation to a pushdown system, and a per-program-point result
table.

The translation uses a single control location; program points become
stack symbols, a call pushes the callee entry over its return node, and
procedure exits pop.  Transfer content lives on intraprocedural edges
only; call and exit rules carry the neutral weight.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .algebra import KillGenElement, killgen_algebra
from .automaton import POST, PAutomaton
from .errors import IterationLimitExceededError, ParseError, ValidationError
from .pds import IDENTIFIER_RE, PushdownSystem, Rule

CONTROL_LOCATION = "p"


@dataclass(frozen=True)
class IntraEdge:
    src: str
    dst: str
    kill: frozenset
    gen: frozenset


@dataclass(frozen=True)
class CallEdge:
    src: str
    callee: str
    return_node: str


@dataclass(frozen=True)
class Procedure:
    name: str
    entry: str
    exit: str
    nodes: frozenset


@dataclass(frozen=True)
class ICFG:
    domain: frozenset
    procedures: tuple
    intra_edges: tuple
    call_edges: tuple
    main: str

    def procedure(self, name: str) -> Procedure:
        for proc in self.procedures:
            if proc.name == name:
                return proc
        raise KeyError(name)


def validate_icfg(g: ICFG) -> None:
    """Collect every invariant violation and raise them together."""
    problems = []
    proc_names = [p.name for p in g.procedures]
    if len(set(proc_names)) != len(proc_names):
        problems.append("duplicate procedure names")
    owner: dict = {}
    for proc in g.procedures:
        for node in proc.nodes:
            if node in owner and owner[node] != proc.name:
                problems.append(
                    f"node {node} appears in procedures "
                    f"{owner[node]} and {proc.name}"
                )
            owner[node] = proc.name
    for e in g.intra_edges:
        for node in (e.src, e.dst):
            if node not in owner:
                problems.append(f"edge endpoint {node} belongs to no procedure")
        if e.src in owner and e.dst in owner and owner[e.src] != owner[e.dst]:
            problems.append(
                f"edge {e.src} -> {e.dst} crosses procedures"
            )
        for fact in e.kill | e.gen:
            if fact not in g.domain:
                problems.append(
                    f"edge {e.src} -> {e.dst} mentions unknown fact {fact}"
                )
    known = set(proc_names)
    for c in g.call_edges:
        if c.callee not in known:
            problems.append(f"call at {c.src} targets unknown procedure {c.callee}")
        if c.src in owner and c.return_node in owner:
            if owner[c.src] != owner[c.return_node]:
                problems.append(
                    f"call at {c.src} returns to {c.return_node}, "
                    f"which is in a different procedure"
                )
    if g.main not in known:
        problems.append(f"main procedure {g.main} is not defined")
    if problems:
        raise ValidationError(problems)


def encode_icfg(g: ICFG) -> PushdownSystem:
    """Translate a validated graph into a weighted pushdown system."""
    validate_icfg(g)
    alg = killgen_algebra(g.domain)
    one = alg.one
    rules = []
    for e in g.intra_edges:
        weight = KillGenElement(e.kill, e.gen)
        rules.append(Rule(CONTROL_LOCATION, e.src, CONTROL_LOCATION,
                          (e.dst,), weight))
    entries = {p.name: p.entry for p in g.procedures}
    for c in g.call_edges:
        rules.append(Rule(CONTROL_LOCATION, c.src, CONTROL_LOCATION,
                          (entries[c.callee], c.return_node), one))
    for proc in g.procedures:
        rules.append(Rule(CONTROL_LOCATION, proc.exit, CONTROL_LOCATION,
                          (), one))
    return PushdownSystem.from_rules(rules, alg)


def all_nodes(g: ICFG) -> list:
    return sorted({n for p in g.procedures for n in p.nodes})


# ---------------------------------------------------------------------------
# per-node result table


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
    table: dict = {n: None for n in all_nodes(g)}

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


def render_report(g: ICFG, table: dict, alg) -> str:
    lines = []
    for node in all_nodes(g):
        value = table.get(node)
        if value is None:
            lines.append(f"{node}: unreachable")
        else:
            lines.append(f"{node}: {alg.render(value)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# text format

_EDGE_RE = re.compile(
    r"edge\s+([A-Za-z0-9_.]+)\s*->\s*([A-Za-z0-9_.]+)\s+"
    r"kill=\{([^}]*)\}\s+gen=\{([^}]*)\}\Z"
)
_CALL_RE = re.compile(
    r"call\s+([A-Za-z0-9_.]+)\s*->\s*([A-Za-z0-9_.]+)\s+"
    r"return\s+([A-Za-z0-9_.]+)\Z"
)
_PROC_RE = re.compile(
    r"proc\s+([A-Za-z0-9_.]+)\s+entry\s+([A-Za-z0-9_.]+)\s+"
    r"exit\s+([A-Za-z0-9_.]+)\Z"
)


def _facts(text: str) -> frozenset:
    text = text.strip()
    if not text:
        return frozenset()
    return frozenset(f.strip() for f in text.split(","))


def load_icfg(text: str, source: str = "<icfg>") -> ICFG:
    """Parse the graph format; edge and call lines attach to the most
    recently declared procedure."""
    domain: Optional[frozenset] = None
    main: Optional[str] = None
    procs: list = []  # (name, entry, exit, intra edge list, call edge list)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("domain"):
            m = re.match(r"domain\s+\{([^}]*)\}\Z", line)
            if not m:
                raise ParseError("bad domain line", source, lineno)
            domain = _facts(m.group(1))
            if not domain:
                raise ParseError("domain must be nonempty", source, lineno)
            continue
        if line.startswith("proc"):
            m = _PROC_RE.match(line)
            if not m:
                raise ParseError("bad proc line", source, lineno)
            procs.append((m.group(1), m.group(2), m.group(3), [], []))
            continue
        if line.startswith("edge"):
            m = _EDGE_RE.match(line)
            if not m:
                raise ParseError("bad edge line", source, lineno)
            if not procs:
                raise ParseError("edge appears before any proc", source, lineno)
            procs[-1][3].append(IntraEdge(
                m.group(1), m.group(2), _facts(m.group(3)), _facts(m.group(4)),
            ))
            continue
        if line.startswith("call"):
            m = _CALL_RE.match(line)
            if not m:
                raise ParseError("bad call line", source, lineno)
            if not procs:
                raise ParseError("call appears before any proc", source, lineno)
            procs[-1][4].append(CallEdge(m.group(1), m.group(2), m.group(3)))
            continue
        if line.startswith("main"):
            parts = line.split()
            if len(parts) != 2:
                raise ParseError("bad main line", source, lineno)
            main = parts[1]
            continue
        raise ParseError(f"unrecognized line: {line!r}", source, lineno)
    if domain is None:
        raise ParseError("missing domain line", source)
    if main is None:
        raise ParseError("missing main line", source)

    procedures = []
    intra_edges: list = []
    call_edges: list = []
    for name, entry, exit_, edges, calls in procs:
        nodes = {entry, exit_}
        for e in edges:
            nodes.update((e.src, e.dst))
        for c in calls:
            nodes.update((c.src, c.return_node))
        for node in nodes:
            if not IDENTIFIER_RE.match(node):
                raise ParseError(f"invalid node name {node!r}", source)
        procedures.append(Procedure(name, entry, exit_, frozenset(nodes)))
        intra_edges.extend(edges)
        call_edges.extend(calls)
    g = ICFG(
        domain=domain,
        procedures=tuple(procedures),
        intra_edges=tuple(intra_edges),
        call_edges=tuple(call_edges),
        main=main,
    )
    validate_icfg(g)
    return g
