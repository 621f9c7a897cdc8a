"""Golden law tables: ``check_laws(...).render_table`` text, pinned.

The tables cover every classification, exhaustive and sampled verdicts
and the counterexample of each failing law, in the shipped algebras
(kill/gen over one to four facts, tabulated function spaces over one
and two facts and over a two-point lattice, seeded tabulated systems
that do not distribute) and in hand-built domains that break the base
laws.  The expected text is ``fixtures/law_tables.txt``; run this file
as a script to print it.
"""

import functools
import operator
from pathlib import Path

import pytest

from pdsflow import (
    FiniteLattice,
    FlowAlgebra,
    KillGenElement,
    boolean_algebra,
    check_laws,
    killgen_algebra,
    load_pds,
    minplus_algebra,
    powerset_lattice,
    tabulated_framework_algebra,
)

from instances import instance
from test_oracle import m3_algebra
from test_reference_readout import NON_DISTRIBUTIVE, tabulated_instance

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "law_tables.txt"
FACTS = ("a", "b", "c", "d")


def rule_weights(pds):
    """The samples ``check-algebra`` draws from a system."""
    return pds.algebra, [r.weight for r in pds.rules]


def two_point():
    return FiniteLattice(["bot", "top"],
                         lambda a, b: "top" if "top" in (a, b) else "bot")


def small(name, combine, extend, zero, one):
    """A hand-built domain on 0..2."""
    return FlowAlgebra(name, zero, one, combine, extend, str, int, (0, 1, 2))


def kill_gen_samples(facts):
    """Elements with a nonempty gen set, which break left annihilation."""
    return [KillGenElement(facts[:1], facts[-1:]), KillGenElement((), facts[:2]),
            KillGenElement(facts, facts[1:2])]


def cases():
    """(label, algebra, samples) of every pinned table, in file order."""
    yield "bool", boolean_algebra(), None
    yield "minplus w_pre", *rule_weights(load_pds((FIXTURES / "w_pre.pds").read_text()))
    yield "minplus 0 3", minplus_algebra(), [0, 3]
    for seed in range(3):
        pds, _, _ = instance(seed, "minplus")
        yield f"minplus instance {seed}", *rule_weights(pds)
    for n in range(1, 5):
        alg = killgen_algebra(FACTS[:n])
        yield f"killgen {n}", alg, None
        yield f"killgen {n} samples", alg, kill_gen_samples(FACTS[:n])
    for seed in range(3):
        pds, _, _ = instance(seed, "killgen")
        yield f"killgen instance {seed}", *rule_weights(pds)
    for n in (1, 2):
        lattice = powerset_lattice(FACTS[:n])
        top = lattice.elements[-1]
        yield f"tabulated {n}", tabulated_framework_algebra(lattice, []), None
        yield (f"tabulated {n} const-top",
               tabulated_framework_algebra(lattice, [lambda _: top]), None)
    yield "tabulated non-distributive", *rule_weights(load_pds(NON_DISTRIBUTIVE))
    for seed in range(6):
        pds, _, _ = tabulated_instance(seed)
        yield f"tabulated instance {seed}", *rule_weights(pds)
    const_top = {"bot": "top", "top": "top"}
    yield "two-point", tabulated_framework_algebra(two_point(), [const_top]), None
    yield "two-point bare", tabulated_framework_algebra(two_point(), []), None
    yield "m3", m3_algebra(), None
    yield "capped sum", small("sum", lambda a, b: min(a + b, 2), max, 0, 0), None
    yield "left projection", small("left", lambda a, b: a, max, 0, 0), None
    yield "max minus", small("minus", max, lambda a, b: (a - b) % 3, 0, 0), None
    yield "max mod-sum", small("modsum", max, lambda a, b: (a + b) % 3, 0, 0), None
    yield "max min", small("maxmin", max, min, 0, 2), None
    yield "max max-one", small("maxone", max, max, 0, 1), None
    yield "min times", small("times", min, operator.mul, 2, 1), None


@functools.cache
def tables():
    """label -> rendered table, for every case."""
    out = {}
    for label, alg, samples in cases():
        out[label] = check_laws(alg, samples=samples).render_table(alg)
    return out


def golden():
    blocks = GOLDEN.read_text().split("== ")[1:]
    return dict(block.rstrip("\n").split(" ==\n", 1) for block in blocks)


def test_every_case_is_pinned():
    assert list(golden()) == [label for label, _, _ in cases()]


def test_tables_cover_every_classification_and_status():
    text = GOLDEN.read_text()
    for phrase in ("classification: idempotent semiring",
                   "classification: distributive flow algebra",
                   "classification: flow algebra",
                   "classification: not a flow algebra",
                   ": holds\n", ": holds (sampled)\n", ": FAILS at ("):
        assert phrase in text


@pytest.mark.parametrize("label", [label for label, _, _ in cases()])
def test_law_table_matches_golden(label):
    assert tables()[label] == golden()[label]


if __name__ == "__main__":
    for label, table in tables().items():
        print(f"== {label} ==\n{table}\n")
