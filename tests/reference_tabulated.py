"""The tabulated weight domain as pdsflow built it before its carrier
became lazy, kept as a reference.

``tabulated_framework_algebra`` closes the supplied tables, zero and one
under pointwise join and composition when it is called, pairing every
table taken off the worklist with every table found so far.  The tests
require the package's algebra to enumerate the same carrier, in the
same order, and to raise ``ClosureExplosionError`` on the same inputs.
"""

from collections.abc import Sequence

from pdsflow.algebra import FlowAlgebra, _set_text
from pdsflow.errors import ClosureExplosionError, NonMonotoneFunctionError
from pdsflow.tabulated import FiniteLattice


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
    Over a powerset lattice the header names its domain, as the text
    format expects.

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
        header_params=("" if lattice.domain is None
                       else f"domain={_set_text(lattice.domain)}"),
    )
