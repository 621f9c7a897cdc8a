"""Constraint evaluation and the least-fixpoint solver."""

import random

import pytest

from pdsflow import (
    FlowAlgebra,
    Solution,
    SolverConfig,
    Transition,
    eval_lhs,
    load_pds,
    make_automaton,
    minplus_algebra,
    pre_star,
    post_star,
    solve_least,
)
from pdsflow.algebra import INF
from pdsflow.automaton import PRE, POST, transition_key
from pdsflow.errors import IterationLimitExceededError, MissingAssignmentError
from pdsflow.saturation import Constraint

from instances import instance
from reference_solver import apply_F, iterate_to_fixpoint
from test_reference_readout import tabulated_instance

MP = minplus_algebra()

W_TEXT = """
algebra minplus
rule <p, a> -> <p, b> weight 1
rule <p, b> -> <p, eps> weight 1
"""

T_END = Transition("p", "end", "q_f")
T_B = Transition("p", "b", "p")
T_A = Transition("p", "a", "p")


@pytest.fixture
def w_pre_result():
    pds = load_pds(W_TEXT)
    aut = make_automaton(pds, [T_END], ["q_f"], PRE)
    return pds, pre_star(pds, aut)


@pytest.fixture
def w_post_result():
    pds = load_pds(W_TEXT)
    aut = make_automaton(pds, [Transition("p", "a", "q_f")], ["q_f"], POST)
    return pds, post_star(pds, aut)


def maxplus_algebra():
    """Naturals under max/plus: a valid domain with no ascending chain
    condition, used to exercise the iteration cap."""
    return FlowAlgebra(
        name="maxplus",
        zero=0,
        one=0,
        combine=max,
        extend=lambda a, b: a + b,
        render=str,
        parse=int,
        elements=None,
    )


class TestEvalLhs:
    def test_single_const(self):
        sol = Solution(MP, {})
        c = Constraint((), 0, (), T_END)
        assert eval_lhs(sol, c) == 0

    def test_const_then_var(self):
        sol = Solution(MP, {T_B: 7})
        c = Constraint((), 3, (T_B,), T_A)
        assert eval_lhs(sol, c) == 10

    def test_three_factors(self):
        sol = Solution(MP, {T_A: 2, T_B: 3})
        c = Constraint((), 1, (T_A, T_B), T_END)
        assert eval_lhs(sol, c) == 6

    def test_missing_assignment(self):
        sol = Solution(MP, {})
        c = Constraint((), 3, (T_B,), T_A)
        with pytest.raises(MissingAssignmentError):
            eval_lhs(sol, c)


class TestApplyF:
    def test_first_step_raises_seeds(self, w_pre_result):
        _, result = w_pre_result
        bottom = Solution(MP, {t: MP.zero for t in result.automaton.transitions})
        one_step = apply_F(bottom, result.constraints)
        assert one_step[T_END] == 0
        assert one_step[T_B] == 1
        assert one_step[T_A] == INF  # still waiting on l(p,b,p)

    def test_second_step_converges(self, w_pre_result):
        _, result = w_pre_result
        bottom = Solution(MP, {t: MP.zero for t in result.automaton.transitions})
        second = apply_F(apply_F(bottom, result.constraints), result.constraints)
        assert dict(second) == {T_END: 0, T_B: 1, T_A: 2}

    def test_fixpoint_maps_to_itself(self, w_pre_result):
        _, result = w_pre_result
        sol = solve_least(result.constraints, MP)
        again = apply_F(sol, result.constraints)
        assert all(again[t] == sol[t] for t in sol)


class TestSolveLeast:
    def test_w_pre(self, w_pre_result):
        _, result = w_pre_result
        sol = solve_least(result.constraints, MP)
        assert dict(sol) == {T_END: 0, T_B: 1, T_A: 2}

    def test_w_post(self, w_post_result):
        _, result = w_post_result
        sol = solve_least(result.constraints, MP)
        assert dict(sol) == {
            Transition("p", "a", "q_f"): 0,
            Transition("p", "b", "q_f"): 1,
            Transition("p", None, "q_f"): 2,
        }

    def test_empty_constraints(self):
        sol = solve_least([], MP)
        assert len(sol) == 0

    def test_iteration_cap_reports_cleanly(self, w_pre_result):
        _, result = w_pre_result
        with pytest.raises(IterationLimitExceededError):
            solve_least(result.constraints, MP, SolverConfig(max_applications=1))

    def test_divergent_chain_hits_cap(self):
        alg = maxplus_algebra()
        t = Transition("p", "a", "p")
        growing = Constraint((), 1, (t,), t)
        with pytest.raises(IterationLimitExceededError):
            solve_least([growing], alg, SolverConfig(max_applications=500))

    def test_solution_text_sorted(self, w_pre_result):
        _, result = w_pre_result
        sol = solve_least(result.constraints, MP)
        assert sol.text() == (
            "l(p,a,p) = 2\n"
            "l(p,b,p) = 1\n"
            "l(p,end,q_f) = 0\n"
        )


def killgen_instance():
    pds = load_pds(
        "algebra killgen domain={u,v}\n"
        "rule <p, a> -> <p, b> weight kill={u} gen={v}\n"
        "rule <p, b> -> <p, eps> weight kill={} gen={u}\n"
        "rule <p, a> -> <q, a b> weight kill={v} gen={}\n"
        "rule <q, a> -> <p, a> weight kill={u,v} gen={u}\n"
    )
    aut = make_automaton(pds, [Transition("p", "end", "f")], ["f"], PRE)
    return pds, pre_star(pds, aut)


class TestProperties:
    def test_monotonicity_of_F(self):
        pds, result = killgen_instance()
        alg = pds.algebra
        trans = sorted(result.automaton.transitions, key=lambda t: t.text())
        pool = list(alg.elements)
        rng = random.Random(41)
        for _ in range(300):
            lo = {t: rng.choice(pool) for t in trans}
            hi = {t: alg.combine(lo[t], rng.choice(pool)) for t in trans}
            f_lo = apply_F(Solution(alg, lo), result.constraints)
            f_hi = apply_F(Solution(alg, hi), result.constraints)
            assert all(alg.leq(f_lo[t], f_hi[t]) for t in trans)

    def test_result_satisfies_every_constraint(self):
        pds, result = killgen_instance()
        alg = pds.algebra
        sol = solve_least(result.constraints, alg)
        for c in result.constraints:
            assert alg.leq(eval_lhs(sol, c), sol[c.rhs])

    def test_leastness_against_random_satisfying_assignments(self):
        pds, result = killgen_instance()
        alg = pds.algebra
        least = solve_least(result.constraints, alg)
        trans = sorted(result.automaton.transitions, key=lambda t: t.text())
        pool = list(alg.elements)
        rng = random.Random(43)
        for _ in range(100):
            assignment = {t: rng.choice(pool) for t in trans}
            # close the random start upward until it satisfies everything
            sol = Solution(alg, assignment)
            for _ in range(1000):
                stepped = apply_F(sol, result.constraints)
                merged = {
                    t: alg.combine(sol[t], stepped[t]) for t in trans
                }
                if all(merged[t] == sol[t] for t in trans):
                    break
                sol = Solution(alg, merged)
            for c in result.constraints:
                assert alg.leq(eval_lhs(sol, c), sol[c.rhs])
            assert all(alg.leq(least[t], sol[t]) for t in trans)

    def test_worklist_agrees_with_naive_iteration(self, w_pre_result):
        for pds, result in (w_pre_result, killgen_instance()):
            alg = pds.algebra
            fast = solve_least(result.constraints, alg)
            slow = iterate_to_fixpoint(result.constraints, alg)
            assert all(fast[t] == slow[t] for t in fast)

    def test_change_count_bounded_by_carrier_times_variables(self):
        pds, result = killgen_instance()
        alg = pds.algebra
        sol = solve_least(result.constraints, alg)
        bound = len(alg.elements) * len(sol)
        assert sol.stats["changes"] <= bound


@pytest.mark.parametrize("kind", ["killgen", "minplus", "bool", "tabulated"])
def test_solution_iterates_in_transition_key_order(kind):
    """A solution iterates, and lists its keys and items, in
    ``transition_key`` order, whatever order its assignment was built in."""
    for seed in range(30):
        pds, aut_pre, aut_post = (tabulated_instance(seed) if kind == "tabulated"
                                  else instance(seed, kind))
        for aut in (aut_pre, aut_post):
            result = (pre_star if aut.direction == PRE else post_star)(pds, aut)
            sol = solve_least(result.constraints, pds.algebra)
            order = sorted(result.automaton.transitions, key=transition_key)
            assert list(sol) == order
            assert list(sol.keys()) == order
            assert list(sol.items()) == [(t, sol[t]) for t in order]
            assert sol == Solution(pds.algebra, dict(sol))
            backwards = Solution(pds.algebra, dict(list(sol.items())[::-1]))
            assert list(backwards) == order and backwards == sol
