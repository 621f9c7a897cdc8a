"""Tabulated monotone function spaces as weight domains.

An explicit finite lattice, the powerset lattice over a fact set, and
the weight domain of monotone function tables over a lattice, closed
under pointwise join and composition.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from operator import getitem
from typing import Any, Callable, Iterable, Optional

from .algebra import FlowAlgebra, _LazyCarrier, _set_text
from .errors import ClosureExplosionError, NonMonotoneFunctionError


class FiniteLattice:
    """An explicit finite join-semilattice with a least element.

    Elements are hashable values, kept in render-sorted order; the
    least element is located by search and must exist.  ``domain`` is
    the fact set of a powerset lattice and None for any other lattice.
    """

    def __init__(self, elements: Iterable, join: Callable[[Any, Any], Any],
                 render: Callable[[Any], str] = str, *,
                 domain: Optional[frozenset] = None):
        self.render = render
        self.domain = domain
        self.elements = tuple(sorted(elements, key=render))
        if not self.elements:
            raise ValueError("lattice must be nonempty")
        self.join = join
        self._index = {e: i for i, e in enumerate(self.elements)}
        self._by_render = {render(e): e for e in self.elements}  # in element order
        if not len(self._index) == len(self._by_render) == len(self.elements):
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
    return FiniteLattice(subsets, frozenset.__or__, _set_text,
                         domain=frozenset(dom))


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


def _compose(f: tuple, g: tuple) -> tuple:
    """First f, then g, on index tables."""
    return tuple(map(g.__getitem__, f))


def _close(seed: list, compose, join, max_carrier: int) -> list:
    """The closure of ``seed`` under ``join`` and ``compose`` in both
    orders, semi-naively and breadth-first: each table, in the order
    found, meets itself and each table found before it once.  A closure
    of n tables thus costs 3 * n * (n + 1) / 2 operations."""
    tables = list(dict.fromkeys(seed))
    found = set(tables)
    for i, f in enumerate(tables):  # also reads the tables appended below
        for g in tables[:i + 1]:
            for h in (compose(f, g), compose(g, f), join(f, g)):
                if h not in found:
                    found.add(h)
                    tables.append(h)
                    if len(tables) > max_carrier:
                        raise ClosureExplosionError(
                            f"function-space closure exceeded {max_carrier} tables"
                        )
    return tables


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
    Over a powerset lattice the header names its domain, as the text
    format expects.

    ``elements`` is the closure of the supplied functions, zero and one
    under pointwise join and composition, sorted by ``render``; it must
    stay within ``max_carrier`` tables.  Only the law checker reads it,
    so it is built when first read.  Where the closure could outgrow
    the bound, that is where the lattice has more than ``max_carrier``
    maps to itself, it is built here, so that the bound holds when the
    algebra is made.

    Raises NonMonotoneFunctionError (with a witness pair) if a supplied
    function is not monotone, and ClosureExplosionError if the closure
    grows past the bound.
    """
    elements = lattice.elements
    n = len(elements)
    index = lattice._index
    by_render = lattice._by_render

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
        for part in parts:
            if "->" not in part:
                raise ValueError(f"bad table cell {part!r}")
            left, right = part.split("->", 1)
            if left not in by_render or right not in by_render:
                raise ValueError(f"unknown lattice element in {part!r}")
            cells[left] = by_render[right]
        if len(cells) != n:
            raise ValueError("function table must cover the whole lattice")
        return tuple(map(cells.__getitem__, by_render))

    identity = elements
    const_bottom = (lattice.bottom,) * n

    tables = [identity, const_bottom]
    for fn in functions:
        table = _as_table(lattice, fn)
        check_monotone(lattice, table)
        tables.append(table)
    # the closure runs over index tables: compose is one map, join a
    # lookup in a join table
    seed = [tuple(map(index.__getitem__, table)) for table in tables]

    join = lattice.join

    def combine(f: tuple, g: tuple) -> tuple:
        return tuple(map(join, f, g))

    def extend(f: tuple, g: tuple) -> tuple:
        # first f, then g
        return tuple(map(g.__getitem__, map(index.__getitem__, f)))

    def carrier() -> tuple:
        rows = [tuple(index[join(a, b)] for b in elements) for a in elements]

        def join_ix(f: tuple, g: tuple) -> tuple:
            return tuple(map(getitem, map(rows.__getitem__, f), g))

        closed = _close(seed, _compose, join_ix, max_carrier)
        return tuple(sorted((tuple(map(elements.__getitem__, t)) for t in closed),
                            key=table_render))

    closure = _LazyCarrier(None, carrier)
    if n ** n > max_carrier:  # n ** n maps bound the closure
        len(closure)  # builds it, raising ClosureExplosionError here
    return FlowAlgebra(
        name="tabulated",
        zero=const_bottom,
        one=identity,
        combine=combine,
        extend=extend,
        render=table_render,
        parse=table_parse,
        elements=closure,
        header_params=("" if lattice.domain is None
                       else f"domain={_set_text(lattice.domain)}"),
    )
