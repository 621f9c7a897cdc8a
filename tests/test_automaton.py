"""Acceptance, run enumeration, and weighted readout."""

import itertools
import random
import time

import pytest

from pdsflow import (
    Configuration,
    Run,
    Solution,
    Transition,
    accepted_configs,
    accepting_runs,
    killgen_algebra,
    load_automaton,
    load_pds,
    make_automaton,
    minplus_algebra,
    pre_star,
    post_star,
    query,
)
from pdsflow.automaton import PRE, POST
from pdsflow.errors import (
    InvalidInputAutomatonError,
    MissingAssignmentError,
    NotAcceptedError,
    ParseError,
    UnknownLocationError,
)

from instances import instance
from reference_oracle import accepts
from reference_readout import read_weight_post, read_weight_pre

MP = minplus_algebra()

W_TEXT = """
algebra minplus
rule <p, a> -> <p, b> weight 1
rule <p, b> -> <p, eps> weight 1
"""


def cfg(loc, *stack):
    return Configuration(loc, tuple(stack))


@pytest.fixture
def pds():
    return load_pds(W_TEXT)


@pytest.fixture
def simple(pds):
    return make_automaton(pds, [Transition("p", "a", "q_f")], ["q_f"], PRE)


class TestLoader:
    def test_states_inferred_and_declared(self, pds):
        aut = load_automaton(
            "states extra\nfinal q_f\ntrans p a q_f\n", pds, PRE
        )
        assert {"p", "q_f", "extra"} <= aut.states
        assert aut.initials == {"p"}

    def test_rejects_eps_label(self, pds):
        with pytest.raises(ParseError):
            load_automaton("final f\ntrans p eps f\n", pds, POST)

    def test_rejects_transition_into_initial(self, pds):
        with pytest.raises(InvalidInputAutomatonError):
            load_automaton("final f\ntrans p a f\ntrans f b p\n", pds, PRE)

    def test_rejects_final_initial_overlap(self, pds):
        with pytest.raises(InvalidInputAutomatonError):
            load_automaton("final p\ntrans p a q\n", pds, PRE)

    def test_reports_line_numbers(self, pds):
        with pytest.raises(ParseError) as err:
            load_automaton("final f\ntrans p a\n", pds, PRE)
        assert ":2:" in str(err.value)


class TestAcceptance:
    def test_single_symbol(self, simple):
        assert accepts(simple, cfg("p", "a"))

    def test_wrong_length(self, simple):
        assert not accepts(simple, cfg("p", "a", "a"))
        assert not accepts(simple, cfg("p"))

    def test_unknown_location(self, simple):
        with pytest.raises(UnknownLocationError):
            accepts(simple, cfg("q_f"))

    def test_saturated_loop_automaton(self, pds):
        aut = make_automaton(pds, [Transition("p", "end", "q_f")], ["q_f"], PRE)
        saturated = pre_star(pds, aut).automaton
        assert accepts(saturated, cfg("p", "a", "b", "b", "a", "end"))
        assert not accepts(saturated, cfg("p", "a", "b", "b", "a"))

    def test_runs_match_accepts(self, pds):
        aut = make_automaton(pds, [Transition("p", "end", "q_f")], ["q_f"], PRE)
        saturated = pre_star(pds, aut).automaton
        for stack in [("a", "end"), ("end",), ("a",), ("b", "b", "end")]:
            c = cfg("p", *stack)
            assert accepts(saturated, c) == bool(accepting_runs(saturated, c))
        accepted = 0
        for seed, loop_free in itertools.product(range(40), (False, True)):
            system, *auts = instance(seed, "minplus", loop_free)
            for aut in auts:
                saturate = pre_star if aut.direction == PRE else post_star
                saturated = saturate(system, aut).automaton
                alphabet = sorted(saturated.alphabet)
                for p, n in itertools.product(sorted(saturated.initials), range(4)):
                    for stack in itertools.product(alphabet, repeat=n):
                        c = cfg(p, *stack)
                        expected = bool(accepting_runs(saturated, c))
                        assert accepts(saturated, c) == expected, c.text()
                        accepted += expected
        assert accepted > 1000

    def test_ambiguous_automaton(self):
        """<p: a^40 z> has 2^40 accepting runs; deciding acceptance must
        not enumerate them."""
        system = load_pds("algebra minplus\n" + "".join(
            f"rule <{x}, a> -> <{y}, eps> weight 1\n" for x in "pr" for y in "pr"))
        aut = load_automaton("final f\ntrans p z f\ntrans r z f\n", system, PRE)
        saturated = pre_star(system, aut).automaton
        started = time.perf_counter()
        assert accepts(saturated, cfg("p", *["a"] * 40, "z"))
        assert not accepts(saturated, cfg("p", *["a"] * 40))
        assert time.perf_counter() - started < 1.0


class TestRuns:
    def test_singleton_run(self, simple):
        (run,) = accepting_runs(simple, cfg("p", "a"))
        assert run.transitions == (Transition("p", "a", "q_f"),)

    def test_no_runs(self, simple):
        assert accepting_runs(simple, cfg("p", "b")) == []

    def test_two_distinct_runs(self, pds):
        aut = make_automaton(
            pds,
            [
                Transition("p", "a", "s1"),
                Transition("p", "a", "s2"),
                Transition("s1", "b", "f"),
                Transition("s2", "b", "f"),
            ],
            ["f"],
            PRE,
        )
        runs = accepting_runs(aut, cfg("p", "a", "b"))
        assert len(runs) == 2
        assert all(run.spelled() == ("a", "b") for run in runs)
        assert runs[0] != runs[1]

    def test_runs_chain_and_spell(self, pds):
        aut = make_automaton(pds, [Transition("p", "end", "q_f")], ["q_f"], PRE)
        saturated = pre_star(pds, aut).automaton
        c = cfg("p", "a", "b", "end")
        for run in accepting_runs(saturated, c):
            assert run.spelled() == c.stack
            assert run.transitions[0].src == "p"
            for t1, t2 in zip(run.transitions, run.transitions[1:]):
                assert t1.dst == t2.src

    def test_post_eps_discipline(self, pds):
        """At most one epsilon step per run, always the first."""
        aut = make_automaton(pds, [Transition("p", "a", "q_f")], ["q_f"], POST)
        saturated = post_star(pds, aut).automaton
        for stack in [(), ("a",), ("b",)]:
            for run in accepting_runs(saturated, cfg("p", *stack)):
                eps_positions = [
                    i for i, t in enumerate(run.transitions) if t.label is None
                ]
                assert eps_positions in ([], [0])


class TestReadout:
    def sol(self, alg, mapping):
        return Solution(alg, dict(mapping))

    def test_pre_single_transition(self, simple):
        t = Transition("p", "a", "q_f")
        sol = self.sol(MP, {t: 9})
        assert read_weight_pre(simple, sol, Run((t,))) == 9

    def test_pre_order(self, pds):
        t1 = Transition("p", "a", "p")
        t2 = Transition("p", "b", "p")
        aut = make_automaton(pds, [t1, t2], ["f"], PRE)
        sol = self.sol(MP, {t1: 2, t2: 1})
        assert read_weight_pre(aut, sol, Run((t1, t2))) == 3

    def test_pre_missing_assignment(self, simple):
        t = Transition("p", "a", "q_f")
        sol = self.sol(MP, {})
        with pytest.raises(MissingAssignmentError):
            read_weight_pre(simple, sol, Run((t,)))

    def test_post_reverses(self, pds):
        alg = killgen_algebra({"u", "v"})
        t1 = Transition("p", "a", "s")
        t2 = Transition("s", "b", "f")
        aut = make_automaton(pds, [t1, t2], ["f"], POST)
        w1 = alg.parse("kill={u} gen={}")
        w2 = alg.parse("kill={} gen={u}")
        sol = self.sol(alg, {t1: w1, t2: w2})
        out = read_weight_post(aut, sol, Run((t1, t2)))
        assert out == alg.extend(w2, w1)
        assert out != alg.extend(w1, w2)

    def test_query_single_run(self, simple):
        sol = self.sol(MP, {Transition("p", "a", "q_f"): 4})
        assert query(simple, sol, cfg("p", "a")) == 4

    def test_query_not_accepted(self, simple):
        sol = self.sol(MP, {Transition("p", "a", "q_f"): 4})
        with pytest.raises(NotAcceptedError):
            query(simple, sol, cfg("p", "b"))

    def test_query_joins_two_runs(self, pds):
        t = {
            "a1": Transition("p", "a", "s1"),
            "a2": Transition("p", "a", "s2"),
            "b1": Transition("s1", "b", "f"),
            "b2": Transition("s2", "b", "f"),
        }
        aut = make_automaton(pds, t.values(), ["f"], PRE)
        sol = self.sol(MP, {t["a1"]: 5, t["b1"]: 1, t["a2"]: 2, t["b2"]: 2})
        # runs weigh 6 and 4; the join takes the smaller
        assert query(aut, sol, cfg("p", "a", "b")) == 4

    def test_query_monotone_in_solution(self, pds):
        alg = killgen_algebra({"u", "v"})
        aut = make_automaton(
            pds,
            [Transition("p", "a", "s"), Transition("s", "b", "f")],
            ["f"], PRE,
        )
        rng = random.Random(23)
        pool = list(alg.elements)
        trans = sorted(aut.transitions, key=lambda t: t.text())
        c = cfg("p", "a", "b")
        for _ in range(100):
            lo = {t: rng.choice(pool) for t in trans}
            hi = {t: alg.combine(lo[t], rng.choice(pool)) for t in trans}
            out_lo = query(aut, Solution(alg, lo), c)
            out_hi = query(aut, Solution(alg, hi), c)
            assert alg.leq(out_lo, out_hi)


class TestAcceptedConfigs:
    def test_enumerates_up_to_bound(self, pds):
        aut = make_automaton(pds, [Transition("p", "end", "q_f")], ["q_f"], PRE)
        saturated = pre_star(pds, aut).automaton
        configs = accepted_configs(saturated, 2)
        stacks = {c.stack for c in configs}
        assert stacks == {("end",), ("a", "end"), ("b", "end")}

    def test_post_includes_empty_stack_via_eps(self, pds):
        aut = make_automaton(pds, [Transition("p", "a", "q_f")], ["q_f"], POST)
        saturated = post_star(pds, aut).automaton
        stacks = {c.stack for c in accepted_configs(saturated, 1)}
        assert stacks == {(), ("a",), ("b",)}
