"""The paper's two theorems, checked by the bounded oracle on generated
systems in all four algebras, recursive ones included.

Soundness: every path weight the oracle enumerates sits below the
readout, whatever the algebra.  Completeness: where ``check_laws``
reports both distributivity laws, the readout equals the join over
paths wherever the search is exhaustive; elsewhere ``check_completeness``
refuses to run.  Each system is first loaded back from its text, as a
user's would be: a tabulated algebra is then rebuilt over the drawn
tables, so that its carrier holds them and the law checker sees the
ones that do not distribute.
"""

import pytest
from hypothesis import given, settings, strategies as st

from pdsflow import (
    check_completeness,
    check_laws,
    check_soundness,
    load_pds,
    post_star,
    pre_star,
    solve_least,
)
from pdsflow.automaton import PRE
from pdsflow.errors import PreconditionNotMetError

from strategies import ALGEBRAS, TABULATED, instances

KINDS = {**ALGEBRAS, **TABULATED}
BOUNDS = dict(depth_bound=6, config_stack_bound=2)
# examples per kind; each completeness example runs the law checker once
# and its two distributivity rows again, tens of milliseconds on an
# enumerated carrier
SOUNDNESS_EXAMPLES = 25
COMPLETENESS_EXAMPLES = {"bool": 15, "minplus": 15, "killgen": 8, "tabulated": 16}


def solved(instance, automata):
    """The system of a drawn instance, loaded back from its text, with
    the (saturation result, least solution) of each of ``automata``."""
    pds = load_pds(instance[0].text())
    runs = []
    for aut in automata:
        result = (pre_star if aut.direction == PRE else post_star)(pds, aut)
        runs.append((result, solve_least(result.constraints, pds.algebra)))
    return pds, runs


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_readout_is_sound(kind):
    @settings(max_examples=SOUNDNESS_EXAMPLES)
    @given(instances({kind: KINDS[kind]}))
    def check(instance):
        pds, runs = solved(instance, instance[1:])
        for result, sol in runs:
            report = check_soundness(pds, result, sol, **BOUNDS)
            assert report.passed, report.text()

    check()


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_readout_is_complete_where_extend_distributes(kind):
    refused = []

    @settings(max_examples=COMPLETENESS_EXAMPLES[kind])
    @given(instances({kind: KINDS[kind]}), st.sampled_from((1, 2)))
    def check(instance, direction):
        pds, [(result, sol)] = solved(instance, instance[direction:direction + 1])
        samples = [r.weight for r in pds.rules]  # as ``oracle --mode completeness``
        laws = check_laws(pds.algebra, samples=samples)
        refused.append(any(laws.verdict(law).failed
                           for law in ("distributes-left", "distributes-right")))
        if refused[-1]:
            with pytest.raises(PreconditionNotMetError):
                check_completeness(pds, result, sol, samples=samples, **BOUNDS)
        else:
            report = check_completeness(pds, result, sol, samples=samples, **BOUNDS)
            assert report.passed, report.text()

    check()
    if kind == "tabulated":  # the draws reach both outcomes
        assert 0 < sum(refused) < len(refused)
