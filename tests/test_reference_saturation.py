"""The worklist engine against the round-based reference copy.

Both must give the same constraint text, the same automaton text, the
same set of trace transitions and the same number of trace entries,
also when they re-saturate a saturated automaton, whose seed
constraints then meet the rules' own.  The engine's trace holds each
transition it added exactly once.
"""

from pathlib import Path

import pytest

from pdsflow import (
    Configuration,
    encode_icfg,
    load_automaton,
    load_icfg,
    load_pds,
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
    assert set(new.trace) == set(old.trace)
    assert len(new.trace) == len(old.trace)
    added = new.automaton.transitions - new.original.transitions
    assert set(new.trace) == added and len(set(new.trace)) == len(new.trace)
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


# Backward push rules <p,g> -> <p',g1 g2> need p' -g1-> q' and q' -g2-> q.
# Each case pairs the two halves in a different order: as one transition
# (a pop rule's self-loop p -a-> p), with the second half popped first
# (an original q' -c-> f and a later swap result p -a-> q'), and with two
# push rules waiting on the same second half (r -c-> f, added last).
PUSH_CASES = {
    "self-loop": ("rule <p, a> -> <p, eps> weight 1\n"
                  "rule <p, g> -> <p, a a> weight 2\n",
                  "trans p z f\n", ["l(p,g,p)"]),
    "second-first": ("rule <p, a> -> <p, x> weight 1\n"
                     "rule <p, g> -> <p, a c> weight 2\n",
                     "trans p x s\ntrans s c f\n", ["l(p,g,f)"]),
    "shared-second": ("rule <p, a> -> <r, eps> weight 1\n"
                      "rule <p, b> -> <r, eps> weight 2\n"
                      "rule <r, c> -> <r, d> weight 3\n"
                      "rule <p, g> -> <p, a c> weight 4\n"
                      "rule <p, h> -> <p, b c> weight 5\n",
                      "trans r d f\n", ["l(p,g,f)", "l(p,h,f)"]),
}


@pytest.mark.parametrize("case", sorted(PUSH_CASES))
def test_push_rule_halves_match_reference(case):
    rules, transitions, added = PUSH_CASES[case]
    pds = load_pds("algebra minplus\n" + rules)
    aut = load_automaton("final f\n" + transitions, pds, PRE)
    saturated = assert_same(pds, aut)
    assert {t.text() for t in saturated.transitions} >= set(added)
    assert_same(pds, saturated)
