"""Pushdown systems: weighted rewrite rules and their transition relation.

Also builds the two composite rule systems the reachability oracles run
over: the backward one extends the user's rules with a pop rule per
automaton transition, the forward one with a generator rule per
transition plus push rules split through fresh mid locations.
"""

from __future__ import annotations

import re
from typing import Any, Iterable, NamedTuple, Optional, Sequence

from .algebra import (
    FlowAlgebra,
    boolean_algebra,
    killgen_algebra,
    minplus_algebra,
)
from .errors import NonMonotoneFunctionError, ParseError

IDENTIFIER_RE = re.compile(r"[A-Za-z0-9_.]+\Z")

EPS_TEXT = "eps"


def label_text(sym: Optional[str]) -> str:
    return EPS_TEXT if sym is None else sym


def mid_location(loc: str, sym: str) -> str:
    """Fresh control location for a split push rule; ':' keeps it out of
    the user identifier space."""
    return f"mid:{loc}:{sym}"


class Rule(NamedTuple):
    """One rewrite rule <from_loc, from_sym> -> <to_loc, to_word>.

    from_sym None means the rule fires without consuming a stack symbol
    and only occurs in derived rule systems, never in user input.
    """

    from_loc: str
    from_sym: Optional[str]
    to_loc: str
    to_word: tuple
    weight: Any

    def text(self, alg: FlowAlgebra) -> str:
        rhs = " ".join(self.to_word) if self.to_word else EPS_TEXT
        lhs_sym = label_text(self.from_sym)
        return (
            f"rule <{self.from_loc}, {lhs_sym}> -> <{self.to_loc}, {rhs}>"
            f" weight {alg.render(self.weight)}"
        )


class Configuration(NamedTuple):
    """A control location paired with a stack, top of stack first."""

    loc: str
    stack: tuple

    def text(self) -> str:
        if not self.stack:
            return f"<{self.loc}:>"
        return f"<{self.loc}: {' '.join(self.stack)}>"


_CONFIG_RE = re.compile(r"<([A-Za-z0-9_.]+):((?: [A-Za-z0-9_.]+)*)>\Z")


def parse_config_text(text: str) -> Configuration:
    """Parse a configuration literal like ``<p: a b>`` or ``<p:>``."""
    m = _CONFIG_RE.match(text.strip())
    if not m:
        raise ParseError(f"bad configuration literal {text!r}")
    stack = tuple(m.group(2).split()) if m.group(2) else ()
    return Configuration(m.group(1), stack)


class PushdownSystem(NamedTuple):
    locations: frozenset
    alphabet: frozenset
    rules: tuple
    algebra: FlowAlgebra

    @classmethod
    def from_rules(cls, rules: Iterable[Rule], algebra: FlowAlgebra,
                   *, allow_eps_lhs: bool = False) -> "PushdownSystem":
        """Build a system from rules, merging duplicate edges by combine.

        Duplicates share (from_loc, from_sym, to_loc, to_word); their
        weights are joined.  Right-hand sides longer than two symbols
        are rejected.
        """
        merged: dict = {}  # a merged rule keeps its first rule's place
        locations: set = set()
        alphabet: set = set()
        for r in rules:
            if len(r.to_word) > 2:
                raise ParseError(
                    f"rule {r.from_loc},{label_text(r.from_sym)} -> "
                    f"{r.to_loc},{' '.join(r.to_word)} has a right-hand side "
                    f"longer than two symbols"
                )
            if r.from_sym is None and not allow_eps_lhs:
                raise ParseError(
                    f"rule at {r.from_loc} consumes no stack symbol; "
                    f"that is only allowed in derived systems"
                )
            key = r[:4]
            prev = merged.get(key)
            if prev is None:
                merged[key] = r
                locations.update((r.from_loc, r.to_loc))
                alphabet.update(r.to_word)
                if r.from_sym:
                    alphabet.add(r.from_sym)
            else:
                merged[key] = Rule(
                    r.from_loc, r.from_sym, r.to_loc, r.to_word,
                    algebra.combine(prev.weight, r.weight),
                )
        return cls(frozenset(locations), frozenset(alphabet),
                   tuple(merged.values()), algebra)

    def text(self) -> str:
        lines = [algebra_header(self.algebra)]
        lines.extend(r.text(self.algebra) for r in self.rules)
        return "\n".join(lines) + "\n"


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
    from .automaton import transition_key  # local import avoids a cycle

    extra = [
        Rule(t.src, t.label, t.dst, (), pds.algebra.one)
        for t in sorted(aut.transitions, key=transition_key)
    ]
    return list(pds.rules) + extra


def build_delta_post2(pds: PushdownSystem, aut) -> list:
    """Generator rules, split push rules, and the untouched remainder.

    Each automaton transition src -label-> dst yields a weight-one
    generator rule from dst that pushes the label and moves to src, so
    runs from a final state rebuild accepted configurations.  Each push
    rule is split in two through its mid location; the pair chains to
    the original weight because the second half has weight one.
    """
    from .automaton import transition_key

    one = pds.algebra.one
    out = [
        Rule(t.dst, None, t.src, (t.label,), one)
        for t in sorted(aut.transitions, key=transition_key)
    ]
    for r in pds.rules:
        if len(r.to_word) == 2:
            mid = mid_location(r.to_loc, r.to_word[0])
            out.append(Rule(r.from_loc, r.from_sym, mid, (r.to_word[1],), r.weight))
            out.append(Rule(mid, None, r.to_loc, (r.to_word[0],), one))
        else:
            out.append(r)
    return out


# ---------------------------------------------------------------------------
# text format


def _check_identifier(name: str, what: str, source, lineno):
    if not IDENTIFIER_RE.match(name):
        raise ParseError(f"invalid {what} {name!r}", source, lineno)


def _domain_facts(params: str, source, lineno) -> list:
    m = re.match(r"domain=\{([^}]*)\}\Z", params.strip())
    if not m:
        raise ParseError(
            "expected a parameter like domain={a,b}", source, lineno,
        )
    body = m.group(1).strip()
    facts = [f.strip() for f in body.split(",")] if body else []
    if not facts:
        raise ParseError("algebra domain must be nonempty", source, lineno)
    for f in facts:
        _check_identifier(f, "fact name", source, lineno)
    return facts


def _make_algebra(name: str, params: str, source, lineno) -> FlowAlgebra:
    params = params.strip()
    if name in ("killgen", "tabulated"):
        facts = _domain_facts(params, source, lineno)
        if name == "killgen":
            return killgen_algebra(facts)
        from .tabulated import powerset_lattice, tabulated_framework_algebra
        alg = tabulated_framework_algebra(powerset_lattice(facts), [])
        return alg._replace(header_params=params)
    if params:
        raise ParseError(f"algebra {name} takes no parameters", source, lineno)
    if name == "minplus":
        return minplus_algebra()
    if name == "bool":
        return boolean_algebra()
    raise ParseError(f"unknown algebra {name!r}", source, lineno)


_RULE_RE = re.compile(
    r"rule\s+<\s*([A-Za-z0-9_.]+)\s*,\s*([A-Za-z0-9_.]+)\s*>\s*->\s*"
    r"<\s*([A-Za-z0-9_.]+)\s*,\s*([A-Za-z0-9_. ]+?)\s*>\s+weight\s+(.*\S)\s*\Z"
)


def load_pds(text: str, source: str = "<pds>") -> PushdownSystem:
    """Parse the line-based pushdown system format.

    The first significant line declares the algebra; every other
    significant line is a rule.  Parse errors carry line numbers, and so
    does a tabulated weight that is not monotone.  For tabulated
    algebras the carrier is re-closed over the rule weights once they
    are known.
    """
    algebra = None
    lattice = None  # the tabulated algebra's lattice
    rules = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("algebra"):
            if algebra is not None:
                raise ParseError("duplicate algebra line", source, lineno)
            parts = line.split(None, 2)
            if len(parts) < 2:
                raise ParseError("algebra line needs a name", source, lineno)
            params = parts[2] if len(parts) > 2 else ""
            algebra = _make_algebra(parts[1], params, source, lineno)
            if parts[1] == "tabulated":
                from .tabulated import (
                    check_monotone,
                    powerset_lattice,
                    tabulated_framework_algebra,
                )
                lattice = powerset_lattice(_domain_facts(params, source, lineno))
            continue
        if line.startswith("rule"):
            if algebra is None:
                raise ParseError(
                    "rule appears before the algebra line", source, lineno
                )
            m = _RULE_RE.match(line)
            if not m:
                raise ParseError(f"bad rule syntax: {line!r}", source, lineno)
            from_loc, from_sym, to_loc, rhs, weight_text = m.groups()
            if from_sym == EPS_TEXT:
                raise ParseError(
                    "rules in user input must consume a stack symbol",
                    source, lineno,
                )
            word = tuple(rhs.split())
            if word == (EPS_TEXT,):
                word = ()
            if len(word) > 2:
                raise ParseError(
                    f"right-hand side {rhs!r} is longer than two symbols",
                    source, lineno,
                )
            for sym in word:
                _check_identifier(sym, "stack symbol", source, lineno)
            try:
                weight = algebra.parse(weight_text)
            except ValueError as exc:
                raise ParseError(str(exc), source, lineno) from exc
            if lattice is not None:
                try:
                    check_monotone(lattice, weight)
                except NonMonotoneFunctionError as exc:
                    raise NonMonotoneFunctionError(
                        f"{source}:{lineno}: {exc}", witness=exc.witness,
                    ) from exc
            rules.append(Rule(from_loc, from_sym, to_loc, word, weight))
            continue
        raise ParseError(f"unrecognized line: {line!r}", source, lineno)
    if algebra is None:
        raise ParseError("missing algebra line", source)
    if lattice is not None and rules:
        closed = tabulated_framework_algebra(lattice, [r.weight for r in rules])
        algebra = closed._replace(header_params=algebra.header_params)
    return PushdownSystem.from_rules(rules, algebra)


def algebra_header(alg: FlowAlgebra) -> str:
    if alg.header_params:
        return f"algebra {alg.name} {alg.header_params}"
    return f"algebra {alg.name}"
