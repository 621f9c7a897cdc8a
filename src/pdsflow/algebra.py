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
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

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
    feasible, as a sequence; ``None`` marks an abstract carrier whose
    elements are only produced by operations.
    """

    name: str
    zero: Any
    one: Any
    combine: Callable[[Any, Any], Any]
    extend: Callable[[Any, Any], Any]
    render: Callable[[Any], str]
    parse: Callable[[str], Any]
    elements: Optional[Sequence] = None
    header_params: str = ""

    def eq(self, a, b) -> bool:
        return a == b

    def leq(self, a, b) -> bool:
        """Induced partial order: a is below b iff combine(a, b) = b."""
        return self.combine(a, b) == b


# ---------------------------------------------------------------------------
# kill/gen transfer functions

# One fact <-> bit table for every kill/gen element in the process, so
# that elements built from fact sets compare by value without naming
# their algebra.  Bits follow first-seen order; nothing that is output
# depends on them, as rendering sorts fact names.
_FACT_BITS: dict = {}  # fact name -> single-bit mask
_FACT_NAMES: list = []  # bit position -> fact name
_FACT_LOCK = threading.Lock()


def _intern(facts: Iterable[str]) -> None:
    with _FACT_LOCK:
        for fact in facts:
            if fact not in _FACT_BITS:  # name first: readers take no lock
                _FACT_NAMES.append(fact)
                _FACT_BITS[fact] = 1 << (len(_FACT_NAMES) - 1)


def _mask(facts: Iterable[str]) -> int:
    """The bitmask of a fact set, interning names not seen before."""
    facts = frozenset(facts)  # no copy for a frozenset; distinct bits sum
    try:
        return sum(map(_FACT_BITS.__getitem__, facts))
    except KeyError:
        _intern(facts)
        return sum(map(_FACT_BITS.__getitem__, facts))


def _fact_set(mask: int) -> frozenset:
    names = []
    while mask:
        low = mask & -mask
        names.append(_FACT_NAMES[low.bit_length() - 1])
        mask ^= low
    return frozenset(names)


class KillGenElement(tuple):
    """A transfer function l -> (l \\ kill) | gen, kept as the raw pair.

    Pairs are not normalized: kill and gen may overlap.  The pair is
    held as two bitmasks over the process-wide fact table (a tuple, so
    that equality and hashing are the tuple's); ``kill`` and ``gen``
    are its fact-set views.
    """

    __slots__ = ()

    def __new__(cls, kill: Iterable[str], gen: Iterable[str]):
        return tuple.__new__(cls, (_mask(kill), _mask(gen)))

    @property
    def kill(self) -> frozenset:
        return _fact_set(self[0])

    @property
    def gen(self) -> frozenset:
        return _fact_set(self[1])

    def apply(self, facts: frozenset) -> frozenset:
        return (facts - self.kill) | self.gen

    def __repr__(self) -> str:
        return f"KillGenElement(kill={self.kill!r}, gen={self.gen!r})"

    def __reduce__(self):
        # bits are private to a process; names are not
        return (KillGenElement, (self.kill, self.gen))


_pair = tuple.__new__  # _pair(KillGenElement, (kill, gen)) from masks


def _set_text(s: Iterable[str]) -> str:
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


class _LazyCarrier(Sequence):
    """A carrier of known size, enumerated when first read."""

    def __init__(self, size: int, build: Callable[[], tuple]):
        self._size = size
        self._build = build
        self._items: Optional[tuple] = None

    def _all(self) -> tuple:
        if self._items is None:
            self._items = self._build()
        return self._items

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, i):
        return self._all()[i]

    def __iter__(self):
        return iter(self._all())


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
    ordered = sorted(dom)
    _intern(ordered)  # bits in name order, whatever the set's iteration order

    def combine(a: KillGenElement, b: KillGenElement) -> KillGenElement:
        return _pair(KillGenElement, (a[0] & b[0], a[1] | b[1]))

    def extend(a: KillGenElement, b: KillGenElement) -> KillGenElement:
        kill = b[0]
        return _pair(KillGenElement, (a[0] | kill, (a[1] & ~kill) | b[1]))

    texts: dict = {}  # mask -> set literal, so a mask is decoded once

    def set_text(mask: int) -> str:
        text = texts.get(mask)
        if text is None:
            text = texts[mask] = _set_text(_fact_set(mask))
        return text

    def render(a: KillGenElement) -> str:
        return f"kill={set_text(a[0])} gen={set_text(a[1])}"

    def parse(text: str) -> KillGenElement:
        m = _KILLGEN_RE.match(text.strip())
        if not m:
            raise ValueError(f"bad kill/gen literal {text!r}")
        return KillGenElement(
            _parse_set_text(m.group(1), dom), _parse_set_text(m.group(2), dom)
        )

    def carrier() -> tuple:
        subsets = [
            _mask(c)
            for r in range(len(ordered) + 1)
            for c in itertools.combinations(ordered, r)
        ]
        return tuple(
            _pair(KillGenElement, (k, g)) for k in subsets for g in subsets
        )

    return FlowAlgebra(
        name="killgen",
        zero=_pair(KillGenElement, (_mask(ordered), 0)),
        one=_pair(KillGenElement, (0, 0)),
        combine=combine,
        extend=extend,
        render=render,
        parse=parse,
        elements=_LazyCarrier(4 ** len(dom), carrier) if len(dom) <= 8 else None,
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


def _table_text(lattice: FiniteLattice, table: tuple) -> str:
    cells = (
        f"{lattice.render(inp)}->{lattice.render(out)}"
        for inp, out in zip(lattice.elements, table)
    )
    return "[" + ",".join(cells) + "]"


def check_monotone(lattice: FiniteLattice, table: tuple) -> None:
    """Raise NonMonotoneFunctionError, with the first witness pair,
    unless the function table preserves the lattice order."""
    for i, a in enumerate(lattice.elements):
        for j, b in enumerate(lattice.elements):
            if lattice.leq(a, b) and not lattice.leq(table[i], table[j]):
                raise NonMonotoneFunctionError(
                    f"function {_table_text(lattice, table)} is not monotone: "
                    f"{lattice.render(a)} <= {lattice.render(b)} but images violate the order",
                    witness=(a, b),
                )


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
        return _table_text(lattice, table)

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

    identity = tuple(lattice.elements)
    const_bottom = tuple(lattice.bottom for _ in range(n))

    seed = [identity, const_bottom]
    for fn in functions:
        table = _as_table(lattice, fn)
        check_monotone(lattice, table)
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

    def pool_for(arity: int) -> tuple[Sequence, bool]:
        if alg.elements is None:
            return sample_pool, False
        budget = max_pairs if arity <= 2 else max_triples
        if len(alg.elements) ** arity <= budget:
            return alg.elements, True
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
