"""The tabulated carrier: the same closure as the reference, built only
when it is read, or when it could outgrow its bound.

``reference_tabulated`` keeps the closure as it was built when the
algebra was made; the derandomized profile in ``conftest`` makes every
run try the same examples.
"""

import random

import pytest
from hypothesis import given, strategies as st

from pdsflow import load_pds, powerset_lattice, tabulated_framework_algebra
from pdsflow import tabulated
from pdsflow.errors import ClosureExplosionError

import reference_tabulated as reference
from strategies import monotone_tables
from test_reference_readout import NON_DISTRIBUTIVE, tabulated_instance

LATTICES = {n: powerset_lattice("xyz"[:n]) for n in (1, 2, 3)}
# the reference pairs every table with every other twice, so 3-fact
# bounds stay small enough to keep each example well under a second
BOUNDS = {1: (1, 2, 3, 5, 4096), 2: (1, 2, 5, 16, 40, 255, 256, 4096),
          3: (1, 2, 5, 16, 40, 100)}


def closure(build, lattice, tables, max_carrier):
    """The carrier as a tuple, or the exception building it raised."""
    try:
        alg = build(lattice, tables, max_carrier=max_carrier)
        return alg, tuple(alg.elements)
    except ClosureExplosionError as exc:
        return None, str(exc)


@given(st.data())
def test_carrier_and_explosion_match_the_reference(data):
    facts = data.draw(st.sampled_from(sorted(LATTICES)))
    lattice = LATTICES[facts]
    tables = data.draw(st.lists(monotone_tables(lattice), min_size=1, max_size=4))
    max_carrier = data.draw(st.sampled_from(BOUNDS[facts]))
    alg, new = closure(tabulated_framework_algebra, lattice, tables, max_carrier)
    ref, old = closure(reference.tabulated_framework_algebra, lattice, tables,
                       max_carrier)
    assert new == old
    if alg is not None:
        for a in new[:6]:
            for b in new[:6]:
                assert alg.combine(a, b) == ref.combine(a, b)
                assert alg.extend(a, b) == ref.extend(a, b)
        assert [alg.render(a) for a in new] == [ref.render(a) for a in new]


def random_monotone(rng, lattice):
    out = {}
    for s in sorted(lattice.elements, key=len):
        below = frozenset().union(*(out[t] for t in out if t < s))
        out[s] = below | frozenset(f for f in sorted(lattice.domain) if rng.random() < 0.3)
    return out


@pytest.mark.parametrize("seed", [3, 7, 12])
def test_larger_3_fact_carriers_match_the_reference(seed):
    """Carriers of 73 to 139 tables over the powerset of three facts."""
    rng = random.Random(seed)
    lattice = LATTICES[3]
    maps = [random_monotone(rng, lattice) for _ in range(rng.randint(2, 4))]
    new = tabulated_framework_algebra(lattice, maps).elements
    old = reference.tabulated_framework_algebra(lattice, maps).elements
    assert len(new) > 70
    assert tuple(new) == old


def test_seeded_2_fact_carriers_match_the_reference():
    lattice = LATTICES[2]
    for seed in range(40):
        rng = random.Random(seed)
        maps = [random_monotone(rng, lattice) for _ in range(8)]
        assert (tuple(tabulated_framework_algebra(lattice, maps).elements)
                == reference.tabulated_framework_algebra(lattice, maps).elements)


def test_carrier_waits_for_its_first_reader():
    alg = load_pds(NON_DISTRIBUTIVE).algebra
    assert alg.elements._items is None
    assert len(alg.elements) == len(tuple(alg.elements)) > 0
    assert alg.elements._items is not None


def test_explosion_is_raised_when_the_algebra_is_made():
    """3 facts: 8 ** 8 maps exceed the bound, so the closure is built and
    found too large before the algebra is returned."""
    lattice = LATTICES[3]
    shifts = [tuple(frozenset(f for f in "xyz" if f != drop) | s for s in lattice.elements)
              for drop in "xyz"]
    with pytest.raises(ClosureExplosionError):
        tabulated_framework_algebra(lattice, shifts, max_carrier=3)


def counting_close(calls):
    close = tabulated._close

    def counted(seed, compose, join, max_carrier):
        def compose_counted(f, g):
            calls.append("compose")
            return compose(f, g)

        def join_counted(f, g):
            calls.append("join")
            return join(f, g)

        return close(seed, compose_counted, join_counted, max_carrier)
    return counted


def test_closure_meets_each_pair_of_tables_once(monkeypatch):
    """Each table taken off the worklist is composed both ways and joined
    with itself and every table taken off before it: 3 n (n + 1) / 2
    operations for a carrier of n."""
    calls = []
    monkeypatch.setattr(tabulated, "_close", counting_close(calls))
    systems = [load_pds(NON_DISTRIBUTIVE)] + [tabulated_instance(seed)[0]
                                              for seed in range(5)]
    for pds in systems:
        calls.clear()
        n = len(pds.algebra.elements)
        assert calls.count("compose") == n * (n + 1)
        assert calls.count("join") == n * (n + 1) // 2
        assert len(calls) == 3 * n * (n + 1) // 2
