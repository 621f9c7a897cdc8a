"""The worklist engine against the round-based reference copy.

Both must give the same constraint text, the same automaton text, the
same set of trace transitions and the same number of trace entries,
also when they re-saturate a saturated automaton, whose seed
constraints then meet the rules' own.
"""

from pathlib import Path

import pytest

from pdsflow import (
    Configuration,
    encode_icfg,
    load_icfg,
    post_star,
    pre_star,
    render_constraints,
)
from pdsflow.automaton import POST, PRE
from pdsflow.cli import single_config_automaton
from pdsflow.encode import CONTROL_LOCATION

import reference_saturation as reference
from instances import instance

FIXTURES = Path(__file__).parent / "fixtures"


def assert_same(pds, aut):
    if aut.direction == PRE:
        new, old = pre_star(pds, aut), reference.pre_star(pds, aut)
    else:
        new, old = post_star(pds, aut), reference.post_star(pds, aut)
    alg = pds.algebra
    assert render_constraints(new, alg) == render_constraints(old, alg)
    assert new.automaton.text() == old.automaton.text()
    assert {e.transition for e in new.trace} == {e.transition for e in old.trace}
    assert len(new.trace) == len(old.trace)
    return new.automaton


@pytest.mark.parametrize("loop_free", [False, True])
@pytest.mark.parametrize("algebra_kind", ["killgen", "minplus", "bool"])
def test_matches_reference_on_seeded_instances(algebra_kind, loop_free):
    for seed in range(300):
        pds, aut_pre, aut_post = instance(seed, algebra_kind, loop_free)
        for aut in (aut_pre, aut_post):
            assert_same(pds, assert_same(pds, aut))


@pytest.mark.parametrize("direction, node", [(POST, "m0"), (PRE, "m5")])
def test_matches_reference_on_demo_icfg(direction, node):
    pds = encode_icfg(load_icfg((FIXTURES / "demo.icfg").read_text()))
    config = Configuration(CONTROL_LOCATION, (node,))
    assert_same(pds, single_config_automaton(pds, config, direction))
