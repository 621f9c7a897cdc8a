"""Pluggable weight domains for pushdown reachability.

A weight domain here is a join structure (combine, zero) paired with a
sequencing structure (extend, one) where extend is monotone in both
arguments but is not required to distribute over combine, and zero is
not required to annihilate.  Instances that do satisfy distributivity
and annihilation are exactly the idempotent semirings; the law checker
in ``laws`` classifies concrete instances dynamically.  Tabulated
function spaces live in ``tabulated``.
"""

from __future__ import annotations

import itertools
import re
import threading
from collections.abc import Sequence
from typing import Any, Callable, Iterable, NamedTuple, Optional

from .errors import EmptyDomainError


class FlowAlgebra(NamedTuple):
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

    def leq(self, a, b) -> bool:
        """Induced partial order: a is below b iff combine(a, b) = b."""
        return self.combine(a, b) == b


class DistributiveFlowAlgebra(FlowAlgebra):
    """A weight domain whose ``extend`` distributes over ``combine`` on
    both sides.

    The readout then joins the values that reach an automaton state
    once, instead of keeping each one apart.  The class adds no field;
    a custom domain opts in by being built as this class.  Marking a
    domain that does not distribute makes readouts sound
    over-approximations, not the exact join over runs.
    """

    __slots__ = ()


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


_new = tuple.__new__  # _new(Record, fields) skips a NamedTuple's __new__


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
    """A carrier enumerated when first read.

    ``size`` is its length when that is known without enumerating it;
    None means only the enumeration tells, so ``len`` enumerates too.
    """

    def __init__(self, size: Optional[int], build: Callable[[], tuple]):
        self._size = size
        self._build = build
        self._items: Optional[tuple] = None

    def _all(self) -> tuple:
        if self._items is None:
            self._items = self._build()
            self._size = len(self._items)
        return self._items

    def __len__(self) -> int:
        if self._size is None:
            return len(self._all())
        return self._size

    def __getitem__(self, i):
        return self._all()[i]

    def __iter__(self):
        return iter(self._all())


def killgen_algebra(domain: Iterable[str]) -> DistributiveFlowAlgebra:
    """The kill/gen weight domain over a finite fact set.

    combine intersects kills and unions gens; extend composes the two
    transfer functions left to right.  zero is (D, {}) and one is
    ({}, {}).  extend distributes over combine, but zero annihilates
    from the right and not from the left, so this is not an idempotent
    semiring.
    """
    from .pds import IDENTIFIER_RE  # local import avoids a cycle

    dom = frozenset(domain)
    if not dom:
        raise EmptyDomainError("kill/gen domain must be nonempty")
    ordered = sorted(dom)
    for fact in ordered:
        if not IDENTIFIER_RE.match(fact):
            raise ValueError(f"invalid fact name {fact!r}")
    _intern(ordered)  # bits in name order, whatever the set's iteration order

    def combine(a: KillGenElement, b: KillGenElement) -> KillGenElement:
        return _new(KillGenElement, (a[0] & b[0], a[1] | b[1]))

    def extend(a: KillGenElement, b: KillGenElement) -> KillGenElement:
        kill = b[0]
        return _new(KillGenElement, (a[0] | kill, (a[1] & ~kill) | b[1]))

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
            _new(KillGenElement, (k, g)) for k in subsets for g in subsets
        )

    return DistributiveFlowAlgebra(
        name="killgen",
        zero=_new(KillGenElement, (_mask(ordered), 0)),
        one=_new(KillGenElement, (0, 0)),
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


def minplus_algebra() -> DistributiveFlowAlgebra:
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

    return DistributiveFlowAlgebra(
        name="minplus",
        zero=INF,
        one=0,
        combine=min,
        extend=lambda a, b: a + b,
        render=render,
        parse=parse,
        elements=None,
    )


def boolean_algebra() -> DistributiveFlowAlgebra:
    """Two-point reachability weights: combine is or, extend is and."""

    def parse(text: str) -> bool:
        text = text.strip()
        if text not in ("0", "1"):
            raise ValueError(f"bool weights are 0 or 1, got {text!r}")
        return text == "1"

    return DistributiveFlowAlgebra(
        name="bool",
        zero=False,
        one=True,
        combine=lambda a, b: a or b,
        extend=lambda a, b: a and b,
        render=lambda a: "1" if a else "0",
        parse=parse,
        elements=(False, True),
    )
