"""Saturation and solving against their references on generated systems.

The strategies in ``strategies`` draw small systems in four algebras,
recursive ones included; tabulated systems, non-distributive ones among
them, have a property of their own.  The derandomized profile in
``conftest`` makes every run try the same examples.
"""

from hypothesis import given

from pdsflow import post_star, pre_star, render_constraints, solve_least
from pdsflow.automaton import POST, PRE

import reference_saturation as reference
from reference_solver import iterate_to_fixpoint
from strategies import TABULATED, instances

ENGINE = {PRE: pre_star, POST: post_star}
REFERENCE = {PRE: reference.pre_star, POST: reference.post_star}


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
