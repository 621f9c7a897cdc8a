"""The .icfg front end that pdsflow shipped before its one-pass parser,
kept as a reference.

``load_icfg`` reads each edge's facts into frozensets and validates the
graph; ``encode_icfg`` validates it again and converts the fact sets to
kill/gen weights.  ``from_rules`` is the three-pass merge that
``PushdownSystem.from_rules`` replaced, and ``encode_icfg`` calls it.
The tests require the one-pass front end to give the same rules and
errors as this copy; only the order of ``ValidationError`` problems may
differ, because here it follows the string hash.
"""

import re
from dataclasses import dataclass
from typing import Optional

from pdsflow.algebra import KillGenElement, killgen_algebra
from pdsflow.encode import CONTROL_LOCATION
from pdsflow.errors import ParseError, ValidationError
from pdsflow.pds import IDENTIFIER_RE, PushdownSystem, Rule, label_text


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
    return from_rules(rules, alg)


def from_rules(rules, algebra):
    """``PushdownSystem.from_rules`` as three passes: merge, then
    collect the locations, then the alphabet."""
    merged: dict = {}
    order: list = []
    for r in rules:
        if len(r.to_word) > 2:
            raise ParseError(
                f"rule {r.from_loc},{label_text(r.from_sym)} -> "
                f"{r.to_loc},{' '.join(r.to_word)} has a right-hand side "
                f"longer than two symbols"
            )
        if r.from_sym is None:
            raise ParseError(
                f"rule at {r.from_loc} consumes no stack symbol; "
                f"that is only allowed in derived systems"
            )
        key = (r.from_loc, r.from_sym, r.to_loc, r.to_word)
        if key in merged:
            prev = merged[key]
            merged[key] = Rule(
                r.from_loc, r.from_sym, r.to_loc, r.to_word,
                algebra.combine(prev.weight, r.weight),
            )
        else:
            merged[key] = r
            order.append(key)
    final = tuple(merged[k] for k in order)
    locations = frozenset(
        x for r in final for x in (r.from_loc, r.to_loc)
    )
    alphabet = frozenset(
        s for r in final
        for s in (r.to_word + ((r.from_sym,) if r.from_sym else ()))
    )
    return PushdownSystem(locations, alphabet, final, algebra)


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
