"""Pluggable weight domains for pushdown reachability.

A weight domain here is a join structure (combine, zero) paired with a
sequencing structure (extend, one) where extend is monotone in both
arguments but is not required to distribute over combine, and zero is
not required to annihilate.  Instances that do satisfy distributivity
and annihilation are exactly the idempotent semirings; the law checker
classifies concrete instances dynamically.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

from .errors import (
    ClosureExplosionError,
    EmptyDomainError,
    NonMonotoneFunctionError,
    NoSamplesError,
)

# Budget for exhaustive law checking; beyond it the checker samples.
MAX_EXHAUSTIVE_PAIRS = 4096
MAX_EXHAUSTIVE_TRIPLES = 32768


@dataclass(frozen=True)
class FlowAlgebra:
    """A weight domain: carrier with combine/extend and their units.

    ``combine`` must be an idempotent commutative join with neutral
    element ``zero``; ``extend`` an associative product with neutral
    element ``one``, monotone on both sides with respect to the order
    induced by combine (a below b iff combine(a, b) equals b).

    Elements are hashable values compared with ``==``.  ``render`` gives
    equal elements equal text and distinct elements distinct text, and
    ``parse`` inverts ``render`` on every element any operation can
    produce.

    ``elements`` enumerates the carrier explicitly when that is
    feasible; ``None`` marks an abstract carrier whose elements are
    only produced by operations.
    """

    name: str
    zero: Any
    one: Any
    combine: Callable[[Any, Any], Any]
    extend: Callable[[Any, Any], Any]
    render: Callable[[Any], str]
    parse: Callable[[str], Any]
    elements: Optional[tuple] = None
    header_params: str = ""

    def eq(self, a, b) -> bool:
        return a == b

    def leq(self, a, b) -> bool:
        """Induced partial order: a is below b iff combine(a, b) = b."""
        return self.combine(a, b) == b


# ---------------------------------------------------------------------------
# kill/gen transfer functions


@dataclass(frozen=True)
class KillGenElement:
    """A transfer function l -> (l \\ kill) | gen, kept as the raw pair.

    Pairs are not normalized: kill and gen may overlap.
    """

    kill: frozenset
    gen: frozenset

    def apply(self, facts: frozenset) -> frozenset:
        return (facts - self.kill) | self.gen


def _set_text(s: frozenset) -> str:
    return "{" + ",".join(sorted(s)) + "}"


def _parse_set_text(text: str, domain: frozenset) -> frozenset:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"expected a set literal like {{a,b}}, got {text!r}")
    body = text[1:-1].strip()
    if not body:
        return frozenset()
    members = [m.strip() for m in body.split(",")]
    for m in members:
        if m not in domain:
            raise ValueError(f"unknown fact {m!r}, domain is {_set_text(domain)}")
    return frozenset(members)


_KILLGEN_RE = re.compile(r"kill=(\{[^}]*\})\s+gen=(\{[^}]*\})\Z")


def killgen_algebra(domain: Iterable[str]) -> FlowAlgebra:
    """The kill/gen weight domain over a finite fact set.

    combine intersects kills and unions gens; extend composes the two
    transfer functions left to right.  zero is (D, {}) and one is
    ({}, {}).  zero annihilates from the right but not from the left,
    so this is not an idempotent semiring.
    """
    from .pds import IDENTIFIER_RE  # local import avoids a cycle

    dom = frozenset(domain)
    if not dom:
        raise EmptyDomainError("kill/gen domain must be nonempty")
    for fact in dom:
        if not IDENTIFIER_RE.match(fact):
            raise ValueError(f"invalid fact name {fact!r}")

    def combine(a: KillGenElement, b: KillGenElement) -> KillGenElement:
        return KillGenElement(a.kill & b.kill, a.gen | b.gen)

    def extend(a: KillGenElement, b: KillGenElement) -> KillGenElement:
        return KillGenElement(a.kill | b.kill, (a.gen - b.kill) | b.gen)

    def render(a: KillGenElement) -> str:
        return f"kill={_set_text(a.kill)} gen={_set_text(a.gen)}"

    def parse(text: str) -> KillGenElement:
        m = _KILLGEN_RE.match(text.strip())
        if not m:
            raise ValueError(f"bad kill/gen literal {text!r}")
        return KillGenElement(
            _parse_set_text(m.group(1), dom), _parse_set_text(m.group(2), dom)
        )

    elements = None
    if len(dom) <= 8:
        subsets = [
            frozenset(c)
            for r in range(len(dom) + 1)
            for c in itertools.combinations(sorted(dom), r)
        ]
        elements = tuple(
            KillGenElement(k, g) for k in subsets for g in subsets
        )

    return FlowAlgebra(
        name="killgen",
        zero=KillGenElement(dom, frozenset()),
        one=KillGenElement(frozenset(), frozenset()),
        combine=combine,
        extend=extend,
        render=render,
        parse=parse,
        elements=elements,
        header_params=f"domain={_set_text(dom)}",
    )


# ---------------------------------------------------------------------------
# min-plus (tropical) weights

INF = float("inf")


def minplus_algebra() -> FlowAlgebra:
    """Nonnegative integers plus infinity; combine is min, extend is +."""

    def render(a) -> str:
        return "inf" if a == INF else str(int(a))

    def parse(text: str):
        text = text.strip()
        if text == "inf":
            return INF
        value = int(text)
        if value < 0:
            raise ValueError("min-plus weights must be nonnegative")
        return value

    return FlowAlgebra(
        name="minplus",
        zero=INF,
        one=0,
        combine=min,
        extend=lambda a, b: a + b,
        render=render,
        parse=parse,
        elements=None,
    )


def boolean_algebra() -> FlowAlgebra:
    """Two-point reachability weights: combine is or, extend is and."""

    def parse(text: str) -> bool:
        text = text.strip()
        if text not in ("0", "1"):
            raise ValueError(f"bool weights are 0 or 1, got {text!r}")
        return text == "1"

    return FlowAlgebra(
        name="bool",
        zero=False,
        one=True,
        combine=lambda a, b: a or b,
        extend=lambda a, b: a and b,
        render=lambda a: "1" if a else "0",
        parse=parse,
        elements=(False, True),
    )


# ---------------------------------------------------------------------------
# tabulated monotone function spaces


class FiniteLattice:
    """An explicit finite join-semilattice with a least element.

    Elements are hashable values, kept in render-sorted order; the
    least element is located by search and must exist.
    """

    def __init__(self, elements: Iterable, join: Callable[[Any, Any], Any],
                 render: Callable[[Any], str] = str):
        self.render = render
        self.elements = tuple(sorted(elements, key=render))
        if not self.elements:
            raise ValueError("lattice must be nonempty")
        self.join = join
        self._index = {e: i for i, e in enumerate(self.elements)}
        texts = {render(e) for e in self.elements}
        if not len(self._index) == len(texts) == len(self.elements):
            raise ValueError("lattice elements must be distinct and render distinctly")
        self.bottom = self._find_bottom()

    def _find_bottom(self):
        for cand in self.elements:
            if all(self.join(cand, x) == x for x in self.elements):
                return cand
        raise ValueError("lattice has no least element")

    def leq(self, a, b) -> bool:
        return self.join(a, b) == b

    def index(self, element) -> int:
        return self._index[element]


def powerset_lattice(domain: Iterable[str]) -> FiniteLattice:
    """Subsets of a finite fact set ordered by inclusion, joined by union."""
    dom = sorted(frozenset(domain))
    subsets = [
        frozenset(c)
        for r in range(len(dom) + 1)
        for c in itertools.combinations(dom, r)
    ]
    return FiniteLattice(subsets, lambda a, b: a | b, _set_text)


def _as_table(lattice: FiniteLattice, fn) -> tuple:
    if callable(fn):
        return tuple(fn(e) for e in lattice.elements)
    if isinstance(fn, tuple):
        if len(fn) != len(lattice.elements):
            raise ValueError("function table has the wrong arity")
        return fn
    return tuple(fn[e] for e in lattice.elements)


def tabulated_framework_algebra(
    lattice: FiniteLattice,
    functions: Sequence,
    *,
    max_carrier: int = 4096,
) -> FlowAlgebra:
    """Weight domain of monotone function tables over a finite lattice.

    Elements are total function tables; combine is pointwise join,
    extend is composition read left to right (first argument applied
    first), zero is the constant-bottom map and one is the identity.
    The supplied functions are closed under pointwise join and
    composition; the closure must stay within ``max_carrier`` tables.

    Raises NonMonotoneFunctionError (with a witness pair) if a supplied
    function is not monotone, and ClosureExplosionError if the closure
    grows past the bound.
    """
    n = len(lattice.elements)

    def table_render(table: tuple) -> str:
        cells = (
            f"{lattice.render(inp)}->{lattice.render(out)}"
            for inp, out in zip(lattice.elements, table)
        )
        return "[" + ",".join(cells) + "]"

    def table_parse(text: str) -> tuple:
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise ValueError(f"bad function table literal {text!r}")
        cells = {}
        body = text[1:-1]
        depth = 0
        parts, cur = [], []
        for ch in body:
            if ch == "," and depth == 0:
                parts.append("".join(cur))
                cur = []
                continue
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
            cur.append(ch)
        if cur:
            parts.append("".join(cur))
        by_render = {lattice.render(e): e for e in lattice.elements}
        for part in parts:
            if "->" not in part:
                raise ValueError(f"bad table cell {part!r}")
            left, right = part.split("->", 1)
            if left not in by_render or right not in by_render:
                raise ValueError(f"unknown lattice element in {part!r}")
            cells[left] = by_render[right]
        if len(cells) != n:
            raise ValueError("function table must cover the whole lattice")
        return tuple(cells[lattice.render(e)] for e in lattice.elements)

    def check_monotone(table: tuple):
        for i, a in enumerate(lattice.elements):
            for j, b in enumerate(lattice.elements):
                if lattice.leq(a, b) and not lattice.leq(table[i], table[j]):
                    raise NonMonotoneFunctionError(
                        f"function {table_render(table)} is not monotone: "
                        f"{lattice.render(a)} <= {lattice.render(b)} but images violate the order",
                        witness=(a, b),
                    )

    identity = tuple(lattice.elements)
    const_bottom = tuple(lattice.bottom for _ in range(n))

    seed = [identity, const_bottom]
    for fn in functions:
        table = _as_table(lattice, fn)
        check_monotone(table)
        seed.append(table)

    def compose(f: tuple, g: tuple) -> tuple:
        # first f, then g
        return tuple(g[lattice.index(out)] for out in f)

    def pointwise_join(f: tuple, g: tuple) -> tuple:
        return tuple(lattice.join(a, b) for a, b in zip(f, g))

    carrier = dict.fromkeys(seed)  # insertion-ordered set
    worklist = list(carrier)
    while worklist:
        f = worklist.pop()
        for g in list(carrier):
            for h in (compose(f, g), compose(g, f),
                      pointwise_join(f, g)):
                if h not in carrier:
                    carrier[h] = None
                    worklist.append(h)
                    if len(carrier) > max_carrier:
                        raise ClosureExplosionError(
                            f"function-space closure exceeded {max_carrier} tables"
                        )

    elements = tuple(sorted(carrier, key=table_render))
    return FlowAlgebra(
        name="tabulated",
        zero=const_bottom,
        one=identity,
        combine=pointwise_join,
        extend=compose,
        render=table_render,
        parse=table_parse,
        elements=elements,
    )


# ---------------------------------------------------------------------------
# law checking

LAW_NAMES = (
    "combine-idempotent",
    "combine-commutative",
    "combine-associative",
    "zero-neutral",
    "extend-associative",
    "one-neutral",
    "extend-monotone",
    "distributes-left",
    "distributes-right",
    "annihilates-left",
    "annihilates-right",
)

_BASE_LAWS = LAW_NAMES[:7]
_SEMIRING_LAWS = LAW_NAMES[7:]


@dataclass(frozen=True)
class LawVerdict:
    law: str
    status: str  # "holds", "fails", "sampled-only"
    counterexample: Optional[tuple] = None

    @property
    def failed(self) -> bool:
        return self.status == "fails"


@dataclass(frozen=True)
class LawReport:
    """Per-law verdicts for one weight domain plus a classification."""

    algebra_name: str
    verdicts: dict = field(default_factory=dict)

    def verdict(self, law: str) -> LawVerdict:
        return self.verdicts[law]

    @property
    def is_idempotent_semiring(self) -> bool:
        """True iff every distributivity and strictness law holds."""
        return not any(self.verdicts[l].failed for l in _SEMIRING_LAWS)

    @property
    def classification(self) -> str:
        if any(self.verdicts[l].failed for l in _BASE_LAWS):
            return "not a flow algebra"
        if self.is_idempotent_semiring:
            return "idempotent semiring"
        if not any(
            self.verdicts[l].failed
            for l in ("distributes-left", "distributes-right")
        ):
            return "distributive flow algebra"
        return "flow algebra"

    def render_table(self, alg: FlowAlgebra) -> str:
        lines = [f"algebra {self.algebra_name}"]
        for law in LAW_NAMES:
            v = self.verdicts[law]
            if v.status == "fails":
                ce = ", ".join(alg.render(x) for x in v.counterexample)
                lines.append(f"{law}: FAILS at ({ce})")
            elif v.status == "sampled-only":
                lines.append(f"{law}: holds (sampled)")
            else:
                lines.append(f"{law}: holds")
        lines.append(f"classification: {self.classification}")
        return "\n".join(lines)


def check_laws(
    alg: FlowAlgebra,
    samples: Optional[Sequence] = None,
    *,
    max_pairs: int = MAX_EXHAUSTIVE_PAIRS,
    max_triples: int = MAX_EXHAUSTIVE_TRIPLES,
) -> LawReport:
    """Check every algebra law, exhaustively when the carrier allows.

    Explicit carriers are swept in full while the number of pairs and
    triples stays within budget; otherwise the check runs over the
    provided samples (always augmented with zero and one) and verdicts
    degrade to "sampled-only".  Abstract carriers require samples.
    """
    if alg.elements is None and not samples:
        raise NoSamplesError(
            f"algebra {alg.name!r} has an abstract carrier; provide samples"
        )

    sample_pool = list(dict.fromkeys([*(samples or ()), alg.zero, alg.one]))
    if alg.elements is not None:
        full = list(alg.elements)
    else:
        full = sample_pool

    def pool_for(arity: int) -> tuple[list, bool]:
        if alg.elements is None:
            return sample_pool, False
        budget = max_pairs if arity <= 2 else max_triples
        if len(full) ** arity <= budget:
            return full, True
        return sample_pool, False

    verdicts = {}

    def run_law(law: str, arity: int, test) -> None:
        pool, exhaustive = pool_for(arity)
        for combo in itertools.product(pool, repeat=arity):
            ce = test(*combo)
            if ce is not None:
                verdicts[law] = LawVerdict(law, "fails", ce)
                return
        status = "holds" if exhaustive else "sampled-only"
        verdicts[law] = LawVerdict(law, status)

    eq, comb, ext = alg.eq, alg.combine, alg.extend

    run_law(
        "combine-idempotent", 1,
        lambda a: None if eq(comb(a, a), a) else (a,),
    )
    run_law(
        "combine-commutative", 2,
        lambda a, b: None if eq(comb(a, b), comb(b, a)) else (a, b),
    )
    run_law(
        "combine-associative", 3,
        lambda a, b, c: None
        if eq(comb(comb(a, b), c), comb(a, comb(b, c)))
        else (a, b, c),
    )
    run_law(
        "zero-neutral", 1,
        lambda a: None if eq(comb(a, alg.zero), a) else (a,),
    )
    run_law(
        "extend-associative", 3,
        lambda a, b, c: None
        if eq(ext(ext(a, b), c), ext(a, ext(b, c)))
        else (a, b, c),
    )
    run_law(
        "one-neutral", 1,
        lambda a: None
        if eq(ext(a, alg.one), a) and eq(ext(alg.one, a), a)
        else (a,),
    )

    def monotone(a, b, c):
        if not alg.leq(a, b):
            return None
        if not alg.leq(ext(a, c), ext(b, c)):
            return (a, b, c)
        if not alg.leq(ext(c, a), ext(c, b)):
            return (a, b, c)
        return None

    run_law("extend-monotone", 3, monotone)

    run_law(
        "distributes-left", 3,
        lambda a, b, c: None
        if eq(ext(a, comb(b, c)), comb(ext(a, b), ext(a, c)))
        else (a, b, c),
    )
    run_law(
        "distributes-right", 3,
        lambda a, b, c: None
        if eq(ext(comb(a, b), c), comb(ext(a, c), ext(b, c)))
        else (a, b, c),
    )
    run_law(
        "annihilates-left", 1,
        lambda a: None if eq(ext(alg.zero, a), alg.zero) else (a,),
    )
    run_law(
        "annihilates-right", 1,
        lambda a: None if eq(ext(a, alg.zero), alg.zero) else (a,),
    )

    return LawReport(algebra_name=alg.name, verdicts=verdicts)
