"""Saturation and solving against their references on generated systems.

The strategies in ``strategies`` draw small systems in four algebras,
recursive ones included; tabulated systems, non-distributive ones among
them, have a property of their own.  The derandomized profile in
``conftest`` makes every run try the same examples.  pre* and post* are
also checked against each other: each answers the reachability question
of the other.
"""

import itertools

import pytest
from hypothesis import given, settings

from pdsflow import (
    Configuration,
    DistributiveFlowAlgebra,
    post_star,
    pre_star,
    query,
    render_constraints,
    solve_least,
)
from pdsflow.automaton import POST, PRE
from pdsflow.cli import single_config_automaton

import reference_saturation as reference
from reference_oracle import accepts
from reference_solver import iterate_to_fixpoint
from strategies import ALGEBRAS, SYMBOLS, TABULATED, instances, systems

ENGINE = {PRE: pre_star, POST: post_star}
REFERENCE = {PRE: reference.pre_star, POST: reference.post_star}
KINDS = {**ALGEBRAS, **TABULATED}
DUALITY_EXAMPLES = 20  # per algebra; each saturates 24 single configurations


@given(instances())
def test_saturation_matches_the_round_based_reference(instance):
    pds, *automata = instance
    alg = pds.algebra
    for aut in automata:
        new = ENGINE[aut.direction](pds, aut)
        old = REFERENCE[aut.direction](pds, aut)
        assert render_constraints(new, alg) == render_constraints(old, alg)
        assert new.automaton.text() == old.automaton.text()


@given(instances())
def test_solver_matches_synchronous_iteration(instance):
    pds, *automata = instance
    for aut in automata:
        constraints = ENGINE[aut.direction](pds, aut).constraints
        assert (solve_least(constraints, pds.algebra).text()
                == iterate_to_fixpoint(constraints, pds.algebra).text())


@given(instances(TABULATED))
def test_tabulated_systems_match_both_references(instance):
    pds, *automata = instance
    alg = pds.algebra
    for aut in automata:
        new = ENGINE[aut.direction](pds, aut)
        old = REFERENCE[aut.direction](pds, aut)
        assert render_constraints(new, alg) == render_constraints(old, alg)
        assert new.automaton.text() == old.automaton.text()
        assert (solve_least(new.constraints, alg).text()
                == iterate_to_fixpoint(new.constraints, alg).text())


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_post_star_and_pre_star_are_dual(kind):
    """For configurations c and c2 of one or two symbols, post*({c})
    accepts c2 iff pre*({c2}) accepts c; where extend distributes over
    combine, the two readouts are equal too."""
    @settings(max_examples=DUALITY_EXAMPLES)
    @given(systems({kind: KINDS[kind]}))
    def check(pds):
        configs = [Configuration(p, w) for p in sorted(pds.locations)
                   for n in (1, 2) for w in itertools.product(SYMBOLS, repeat=n)]
        saturated = {}
        for c in configs:
            for direction in (PRE, POST):
                aut = single_config_automaton(pds, c, direction)
                result = ENGINE[direction](pds, aut)
                saturated[c, direction] = (
                    result.automaton, solve_least(result.constraints, pds.algebra))
        distributive = isinstance(pds.algebra, DistributiveFlowAlgebra)
        for c, c2 in itertools.product(configs, repeat=2):
            forward, backward = saturated[c, POST], saturated[c2, PRE]
            reached = accepts(forward[0], c2)
            assert reached == accepts(backward[0], c)
            if reached and distributive:
                assert query(*forward, c2) == query(*backward, c)

    check()
