"""Pushdown systems: weighted rewrite rules, configurations and the
line-based text format.

The transition relation and the composite rule systems that the
reachability oracle runs over live in ``oracle``.
"""

from __future__ import annotations

import re
from typing import Any, Iterable, NamedTuple, Optional

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
    def from_rules(cls, rules: Iterable[Rule],
                   algebra: FlowAlgebra) -> "PushdownSystem":
        """Build a system from rules, merging duplicate edges by combine.

        Duplicates share (from_loc, from_sym, to_loc, to_word); their
        weights are joined.  Right-hand sides longer than two symbols
        are rejected, and so are rules that consume no stack symbol.
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
            if r.from_sym is None:
                raise ParseError(
                    f"rule at {r.from_loc} consumes no stack symbol; "
                    f"every rule must read the top of the stack"
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


def _make_algebra(name: str, params: str, source, lineno):
    """The algebra a header names, and for a tabulated one its lattice
    (None for the others); a tabulated algebra has no weights yet."""
    params = params.strip()
    if name == "killgen":
        return killgen_algebra(_domain_facts(params, source, lineno)), None
    if name == "tabulated":
        from .tabulated import powerset_lattice, tabulated_framework_algebra
        lattice = powerset_lattice(_domain_facts(params, source, lineno))
        alg = tabulated_framework_algebra(lattice, [])
        return alg._replace(header_params=params), lattice
    if params:
        raise ParseError(f"algebra {name} takes no parameters", source, lineno)
    if name == "minplus":
        return minplus_algebra(), None
    if name == "bool":
        return boolean_algebra(), None
    raise ParseError(f"unknown algebra {name!r}", source, lineno)


_RULE_RE = re.compile(
    r"rule\s+<\s*([A-Za-z0-9_.]+)\s*,\s*([A-Za-z0-9_.]+)\s*>\s*->\s*"
    r"<\s*([A-Za-z0-9_.]+)\s*,\s*([A-Za-z0-9_. ]+?)\s*>\s+weight\s+(.*\S)\s*\Z"
)


def load_pds(text: str, source: str = "<pds>") -> PushdownSystem:
    """Parse the line-based pushdown system format.

    The first significant line declares the algebra; every other
    significant line is a rule.  Parse errors carry line numbers, and so
    does a tabulated weight that is not monotone.  A tabulated algebra
    is made again over the rule weights once they are known, and closes
    its carrier over them when that is read.
    """
    algebra = None
    lattice = None  # the tabulated algebra's lattice
    rules = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.split(None, 1)[0] == "algebra":
            if algebra is not None:
                raise ParseError("duplicate algebra line", source, lineno)
            parts = line.split(None, 2)
            if len(parts) < 2:
                raise ParseError("algebra line needs a name", source, lineno)
            params = parts[2] if len(parts) > 2 else ""
            algebra, lattice = _make_algebra(parts[1], params, source, lineno)
            if lattice is not None:
                from .tabulated import check_monotone, tabulated_framework_algebra
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
