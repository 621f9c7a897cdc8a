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
from collections import OrderedDict
from typing import NamedTuple, Optional

from .algebra import KillGenElement, _fact_set, _mask, _new, killgen_algebra
from .automaton import PAutomaton, readout_start, then
from .errors import ParseError, ValidationError
from .pds import PushdownSystem, Rule, _check_identifier
from .record import Record

CONTROL_LOCATION = "p"


class IntraEdge(NamedTuple):
    src: str
    dst: str
    weight: KillGenElement  # .kill and .gen are its fact sets


class CallEdge(NamedTuple):
    src: str
    callee: str
    return_node: str


class Procedure(NamedTuple):
    name: str
    entry: str
    exit: str
    nodes: tuple  # each node once, in order of first mention


class ICFG(Record):
    """A graph, validated when built; ``nodes`` lists every node, sorted,
    and is left out of equality, the hash and the repr."""

    _fields = ("domain", "procedures", "intra_edges", "call_edges", "main")
    __slots__ = _fields + ("nodes",)

    def __init__(self, domain: frozenset, procedures: tuple,
                 intra_edges: tuple, call_edges: tuple, main: str):
        self._assign(domain, procedures, intra_edges, call_edges, main)
        object.__setattr__(self, "nodes", tuple(sorted(validate_icfg(self))))


def validate_icfg(g: ICFG) -> dict:
    """Collect every invariant violation and raise them together, in a
    fixed order: duplicate names, node conflicts (in file order), each
    edge's endpoints, crossing and unknown facts (by name), calls, main.
    A valid graph returns the map from each node to its procedure."""
    problems = []
    proc_names = [p.name for p in g.procedures]
    if len(set(proc_names)) != len(proc_names):
        problems.append("duplicate procedure names")
    owner: dict = {}
    for name, _, _, nodes in g.procedures:
        for node in nodes:
            first = owner.setdefault(node, name)
            if first != name:
                problems.append(
                    f"node {node} appears in procedures {first} and {name}")
                owner[node] = name
    outside = ~_mask(g.domain)
    for src, dst, (kill, gen) in g.intra_edges:
        src_proc, dst_proc = owner.get(src), owner.get(dst)
        if src_proc is None:
            problems.append(f"edge endpoint {src} belongs to no procedure")
        if dst_proc is None:
            problems.append(f"edge endpoint {dst} belongs to no procedure")
        elif src_proc is not None and src_proc != dst_proc:
            problems.append(f"edge {src} -> {dst} crosses procedures")
        unknown = (kill | gen) & outside
        for fact in sorted(_fact_set(unknown)) if unknown else ():
            problems.append(f"edge {src} -> {dst} mentions unknown fact {fact}")
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
    return owner


def encode_icfg(g: ICFG) -> PushdownSystem:
    """Translate a graph, validated when it was built, into a weighted
    pushdown system: edge rules, then call rules, then exit rules.  A
    repeated edge joins its weight into the first one's rule, and a
    repeated call adds no rule."""
    alg = killgen_algebra(g.domain)
    combine, one, p = alg.combine, alg.one, CONTROL_LOCATION
    edges: dict = {}  # (src, dst) -> the join of its weights
    for src, dst, weight in g.intra_edges:
        key = (src, dst)
        edges[key] = combine(edges[key], weight) if key in edges else weight
    entries = {proc.name: proc.entry for proc in g.procedures}
    calls = dict.fromkeys((src, entries[callee], ret)
                          for src, callee, ret in g.call_edges)
    exits = [proc.exit for proc in g.procedures]
    rules = ([_new(Rule, (p, src, p, (dst,), w)) for (src, dst), w in edges.items()]
             + [_new(Rule, (p, call[0], p, call[1:], one)) for call in calls]
             + [_new(Rule, (p, x, p, (), one)) for x in exits])
    alphabet = frozenset(exits).union(*edges, *calls)
    return PushdownSystem(frozenset((p,)), alphabet, tuple(rules), alg)


# ---------------------------------------------------------------------------
# per-node result table


def analysis_report(g: ICFG, sol, aut: PAutomaton) -> dict:
    """Per-node weights: for each node, the join of the query over every
    accepted configuration with that node on top of the stack, or None
    when no accepted configuration has it on top.  A node joins
    ``start (x) l(t) (x) rest[t.dst]`` over the first transitions ``t``
    reading it, as ``query`` multiplies; ``rest[q]`` joins the labeled
    runs from ``q`` to a final state.  One pass over the transitions
    files them by state, in no ``transition_key`` order: ``combine`` is
    a join, so the order in which values meet does not change them."""
    alg = sol.algebra
    step = then(aut, alg)
    into: dict = {}  # dst -> the labeled transitions into it
    out: dict = {}  # src -> the transitions out of it
    for t in aut.transitions:
        out.setdefault(t.src, []).append(t)
        if t.label is not None:
            into.setdefault(t.dst, []).append(t)
    rest = {q: alg.one for q in sorted(aut.finals)}
    reads: dict = {}  # t -> l(t) (x) rest[t.dst], as of t.dst's last visit
    todo = OrderedDict.fromkeys(rest)  # a FIFO queue that holds a state once
    while todo:
        q, _ = todo.popitem(last=False)
        after = rest[q]
        joined: dict = {}  # src -> join over the transitions into q
        for t in into.get(q, ()):
            value = reads[t] = step(sol.value(t), after)
            joined[t.src] = alg.combine(joined[t.src], value) if t.src in joined else value
        for src, value in joined.items():
            old = rest.get(src)
            value = value if old is None else alg.combine(old, value)
            if value != old:
                rest[src] = value
                todo[src] = None

    table: dict = dict.fromkeys(g.nodes)
    for p in sorted(aut.initials):
        for q, start in readout_start(aut, sol, p):
            for t in out.get(q, ()):
                value = reads.get(t)  # final: a state whose rest grows is revisited
                if value is None or t.label not in table:
                    continue
                if q != p:  # after an epsilon step; the empty run weighs one
                    value = step(start, value)
                old = table[t.label]
                table[t.label] = value if old is None else alg.combine(old, value)
    return table


def render_report(g: ICFG, table: dict, alg) -> str:
    lines = []
    for node in g.nodes:
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


class _Bits(dict):
    """A per-load cache from fact list item to the bit of its stripped
    name, which fills itself on a miss."""

    def __missing__(self, item: str) -> int:
        bit = self[item] = _mask((item.strip(),))
        return bit


def load_icfg(text: str, source: str = "<icfg>") -> ICFG:
    """Parse the graph format; edge and call lines attach to the most
    recently declared procedure, and each edge's fact lists become its
    kill/gen weight as the line is read."""
    domain: Optional[tuple] = None  # (fact names, line number)
    main: Optional[str] = None
    procs: list = []  # (name, entry, exit, nodes, intra edges, call edges)
    nodes = edges = calls = None  # those of the most recent procedure
    bits = _Bits()  # fact list item -> the bit of its stripped name
    for lineno, line in enumerate(map(str.strip, text.splitlines()), start=1):
        if not line or line[0] == "#":
            continue
        keyword = line[:4]  # the line's kind, as a prefix: "edges" is a bad edge
        if keyword == "edge":
            m = _EDGE_RE.match(line)
            if not m:
                raise ParseError("bad edge line", source, lineno)
            if edges is None:
                raise ParseError("edge appears before any proc", source, lineno)
            src, dst, kill, gen = m.groups()
            nodes[src] = nodes[dst] = None
            kill_mask = gen_mask = 0  # a blank list is the empty set
            if kill.strip():
                for item in kill.split(","):
                    kill_mask |= bits[item]
            if gen.strip():
                for item in gen.split(","):
                    gen_mask |= bits[item]
            edges.append(_new(IntraEdge, (src, dst, _new(
                KillGenElement, (kill_mask, gen_mask)))))
        elif keyword == "call":
            m = _CALL_RE.match(line)
            if not m:
                raise ParseError("bad call line", source, lineno)
            if calls is None:
                raise ParseError("call appears before any proc", source, lineno)
            src, callee, ret = m.groups()
            nodes[src] = nodes[ret] = None
            calls.append(_new(CallEdge, (src, callee, ret)))
        elif keyword == "proc":
            m = _PROC_RE.match(line)
            if not m:
                raise ParseError("bad proc line", source, lineno)
            name, entry, exit_ = m.groups()
            nodes, edges, calls = dict.fromkeys((entry, exit_)), [], []
            procs.append((name, entry, exit_, nodes, edges, calls))
        elif line[:6] == "domain":
            m = re.match(r"domain\s+\{([^}]*)\}\Z", line)
            if not m:
                raise ParseError("bad domain line", source, lineno)
            facts = m.group(1).strip()
            if not facts:
                raise ParseError("domain must be nonempty", source, lineno)
            domain = ([f.strip() for f in facts.split(",")], lineno)
        elif keyword == "main" and (parts := line.split())[0] == "main":  # not mainframe
            if len(parts) != 2:
                raise ParseError("bad main line", source, lineno)
            main = parts[1]
        else:
            raise ParseError(f"unrecognized line: {line!r}", source, lineno)
    if domain is None:
        raise ParseError("missing domain line", source)
    if main is None:
        raise ParseError("missing main line", source)
    facts, lineno = domain  # checked last, so other parse errors come first
    for fact in facts:
        _check_identifier(fact, "fact name", source, lineno)
    return ICFG(
        domain=frozenset(facts),
        procedures=tuple(_new(Procedure, (name, entry, exit_, tuple(nodes)))
                         for name, entry, exit_, nodes, _, _ in procs),
        intra_edges=tuple(e for p in procs for e in p[4]),
        call_edges=tuple(c for p in procs for c in p[5]),
        main=main,
    )
