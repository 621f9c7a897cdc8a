"""The oracle's checks against their reference copies, and the number of
searches they run.

``check_soundness`` and ``check_completeness`` read one search plan:
one bounded search per accepted configuration backward, one per final
state forward.  They must give the reports of the copies in
``reference_oracle.py``, byte for byte, or the same refusal, on seeded
and drawn systems in all four algebras, in both directions, loop-free
and recursive, with exhaustive and bound-limited searches, and with
solutions that are wrong on purpose so that violations are reported.
"""

import pytest
from hypothesis import given, settings, strategies as st

from pdsflow import (
    accepted_configs,
    check_completeness,
    check_soundness,
    load_automaton,
    load_pds,
    post_star,
    pre_star,
    solve_least,
)
from pdsflow import oracle
from pdsflow.automaton import PRE
from pdsflow.errors import PreconditionNotMetError
from pdsflow.solver import Solution

import reference_oracle as reference
from instances import instance
from strategies import ALGEBRAS, TABULATED, instances
from test_reference_readout import NON_DISTRIBUTIVE, tabulated_instance

KINDS = {**ALGEBRAS, **TABULATED}
# (depth_bound, config_stack_bound): the oracle's default horizon on a
# small stack, and a shallow one that leaves most searches bound-limited
BOUNDS = ((6, 2), (3, 3))
# drawn examples per kind; the reference runs the whole law checker on
# every completeness call, tens of milliseconds on an enumerated carrier
EXAMPLES = {"bool": 8, "minplus": 8, "killgen": 3, "tabulated": 4}


def outcome(check, pds, result, sol, depth, stack, **kwargs):
    try:
        return check(pds, result, sol, depth_bound=depth,
                     config_stack_bound=stack, **kwargs).text()
    except PreconditionNotMetError as e:
        return f"refused: {e}"


def compare(pds, automata, bounds=BOUNDS):
    """Assert that both checks agree with the reference on each automaton,
    with its least solution and with the all-zero one; returns the
    outcomes."""
    samples = [r.weight for r in pds.rules]
    outcomes = []
    for aut in automata:
        result = (pre_star if aut.direction == PRE else post_star)(pds, aut)
        sol = solve_least(result.constraints, pds.algebra)
        wrong = Solution(pds.algebra, dict.fromkeys(sol, pds.algebra.zero))
        for s in (sol, wrong):
            for depth, stack in bounds:
                args = (pds, result, s, depth, stack)
                outcomes.append(outcome(check_soundness, *args))
                assert outcomes[-1] == outcome(reference.check_soundness, *args)
                outcomes.append(outcome(check_completeness, *args, samples=samples))
                assert outcomes[-1] == outcome(reference.check_completeness,
                                               *args, samples=samples)
    return outcomes


def bound_limited(outcomes) -> bool:
    return any(" bound_limited=0\n" not in o for o in outcomes
               if not o.startswith("refused:"))


@pytest.mark.parametrize("kind", ["bool", "killgen", "minplus"])
@pytest.mark.parametrize("loop_free", [False, True])
def test_checks_match_reference_on_seeded_systems(kind, loop_free):
    outcomes = []
    for seed in range(4):
        pds, aut_pre, aut_post = instance(seed, kind, loop_free=loop_free)
        outcomes += compare(pds, (aut_pre, aut_post))
    assert bound_limited(outcomes)


def test_checks_match_reference_on_tabulated_systems():
    """Seeded tabulated systems, and one whose weights do not distribute,
    so that completeness is refused."""
    pds = load_pds(NON_DISTRIBUTIVE)
    outcomes = compare(pds, (load_automaton("final f\ntrans s z f\n", pds, PRE),))
    assert outcomes[1].startswith("refused:")
    for seed in range(2):
        pds, aut_pre, aut_post = tabulated_instance(seed)
        outcomes += compare(pds, (aut_pre, aut_post))
    assert bound_limited(outcomes)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_checks_match_reference_on_drawn_systems(kind):
    @settings(max_examples=EXAMPLES[kind])
    @given(instances({kind: KINDS[kind]}), st.sampled_from(BOUNDS))
    def check(instance, bounds):
        pds = load_pds(instance[0].text())
        compare(pds, instance[1:], bounds=(bounds,))

    check()


@pytest.mark.parametrize("check", [check_soundness, check_completeness])
def test_one_search_per_accepted_configuration_or_final_state(check, monkeypatch):
    """Backward, one search per accepted configuration; forward, one per
    final state, however many configurations it reaches."""
    searches = 0
    walk = oracle._walk_paths

    def counting(*args):
        nonlocal searches
        searches += 1
        return walk(*args)

    monkeypatch.setattr(oracle, "_walk_paths", counting)
    seen = set()
    for seed in range(12):
        pds, *automata = instance(seed, "minplus")
        samples = [r.weight for r in pds.rules]
        for aut in automata:
            result = (pre_star if aut.direction == PRE else post_star)(pds, aut)
            sol = solve_least(result.constraints, pds.algebra)
            accepted = accepted_configs(result.automaton, 3)
            kwargs = {} if check is check_soundness else {"samples": samples}
            searches = 0
            check(pds, result, sol, depth_bound=6, config_stack_bound=3, **kwargs)
            expected = (len(accepted) if aut.direction == PRE
                        else len(result.automaton.finals))
            assert searches == expected
            seen.add((aut.direction, len(accepted) > expected))
    assert ("post", True) in seen  # forward searches serve several configs
