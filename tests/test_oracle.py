"""Bounded path enumeration and the soundness/completeness checks."""

import pytest

from pdsflow import (
    Configuration,
    FlowAlgebra,
    Transition,
    build_delta_pre,
    build_delta_post2,
    check_completeness,
    check_soundness,
    load_pds,
    make_automaton,
    minplus_algebra,
    pre_star,
    post_star,
    solve_least,
)
from pdsflow.automaton import PRE, POST
from pdsflow.errors import PreconditionNotMetError
from pdsflow.solver import Solution

from instances import instance
from reference_oracle import (
    PathQuery,
    enumerate_paths,
    enumerate_paths_depth_first,
    join_over_paths,
    predecessor_configs,
    reachable_configs,
)

MP = minplus_algebra()

W_TEXT = """
algebra minplus
rule <p, a> -> <p, b> weight 1
rule <p, b> -> <p, eps> weight 1
"""


def cfg(loc, *stack):
    return Configuration(loc, tuple(stack))


@pytest.fixture
def w_pre():
    pds = load_pds(W_TEXT)
    aut = make_automaton(pds, [Transition("p", "end", "q_f")], ["q_f"], PRE)
    return pds, aut, pre_star(pds, aut)


@pytest.fixture
def w_post():
    pds = load_pds(W_TEXT)
    aut = make_automaton(pds, [Transition("p", "a", "q_f")], ["q_f"], POST)
    return pds, aut, post_star(pds, aut)


def m3_algebra():
    """Join/meet on the five-point lattice with three incomparable
    atoms; meet fails distributivity over join, which is exactly what
    the completeness precondition must reject."""
    order = {"bot": 0, "x": 1, "y": 1, "z": 1, "top": 2}

    def join(a, b):
        if a == b or order[b] < order[a]:
            a, b = b, a
        if order[a] < order[b]:
            return b
        return "top"

    def meet(a, b):
        if a == b or order[b] > order[a]:
            a, b = b, a
        if order[a] > order[b]:
            return b
        return "bot"

    return FlowAlgebra(
        name="m3",
        zero="bot",
        one="top",
        combine=join,
        extend=meet,
        render=str,
        parse=str,
        elements=("bot", "x", "y", "z", "top"),
    )


class TestEnumerate:
    def test_w_pre_single_path(self, w_pre):
        pds, aut, _ = w_pre
        delta = build_delta_pre(pds, aut)
        q = PathQuery.reaching_empty(delta, cfg("p", "a", "end"), {"q_f"}, 4)
        paths = enumerate_paths(q)
        assert len(paths) == 1
        assert len(paths[0]) == 3
        names = [(r.from_loc, r.from_sym) for r in paths[0]]
        assert names == [("p", "a"), ("p", "b"), ("p", "end")]

    def test_depth_too_small(self, w_pre):
        pds, aut, _ = w_pre
        delta = build_delta_pre(pds, aut)
        q = PathQuery.reaching_empty(delta, cfg("p", "a", "end"), {"q_f"}, 2)
        assert enumerate_paths(q) == []

    def test_w_post_single_path(self, w_post):
        pds, aut, _ = w_post
        delta = build_delta_post2(pds, aut)
        q = PathQuery.reaching_config(delta, cfg("q_f"), cfg("p"), 4)
        paths = enumerate_paths(q)
        assert len(paths) == 1
        assert len(paths[0]) == 3
        assert paths[0][0].from_loc == "q_f"  # starts with the generator

    def test_join_single_path(self, w_pre):
        pds, aut, _ = w_pre
        delta = build_delta_pre(pds, aut)
        q = PathQuery.reaching_empty(delta, cfg("p", "a", "end"), {"q_f"}, 6)
        value = join_over_paths(MP, q)
        assert value.value == 2
        assert value.count == 1
        assert value.exhausted

    def test_join_no_paths(self, w_pre):
        pds, aut, _ = w_pre
        delta = build_delta_pre(pds, aut)
        q = PathQuery.reaching_empty(delta, cfg("p", "a"), {"q_f"}, 6)
        value = join_over_paths(MP, q)
        assert value.value is None
        assert value.count == 0

    def test_exhausted_false_when_depth_truncates(self):
        pds = load_pds(
            "algebra minplus\nrule <p, a> -> <p, a> weight 1\n"
        )
        delta = list(pds.rules)
        q = PathQuery.reaching_config(delta, cfg("p", "a"), cfg("p", "a"), 3)
        value = join_over_paths(MP, q)
        assert value.count == 4  # lengths 0..3 of the self-loop
        assert not value.exhausted

    def test_replay_soundness(self):
        """Every enumerated sequence replays step by step."""
        from pdsflow import step

        for seed in range(5):
            pds, aut_pre, _ = instance(seed, "minplus")
            delta = build_delta_pre(pds, aut_pre)
            source = cfg("p0", "a", "b")
            q = PathQuery.reaching_empty(delta, source, aut_pre.finals, 8)
            for sigma in enumerate_paths(q):
                c = source
                for r in sigma:
                    succ = [c2 for r2, c2 in step(delta, c) if r2 == r]
                    assert succ
                    c = succ[0]
                assert c.stack == () and c.loc in aut_pre.finals

    def test_bfs_and_dfs_agree(self):
        for seed in range(8):
            pds, aut_pre, _ = instance(seed, "minplus")
            delta = build_delta_pre(pds, aut_pre)
            q = PathQuery.reaching_empty(
                delta, cfg("p0", "a", "b"), aut_pre.finals, 7,
            )
            bfs = sorted(enumerate_paths(q), key=lambda s: (len(s), str(s)))
            dfs = sorted(enumerate_paths_depth_first(q), key=lambda s: (len(s), str(s)))
            assert bfs == dfs

    def test_join_monotone_in_depth(self):
        for seed in range(6):
            pds, aut_pre, _ = instance(seed, "killgen")
            alg = pds.algebra
            delta = build_delta_pre(pds, aut_pre)
            previous = None
            for depth in range(1, 8):
                q = PathQuery.reaching_empty(
                    delta, cfg("p0", "a", "b"), aut_pre.finals, depth,
                )
                value = join_over_paths(alg, q)
                if previous is not None and previous.value is not None:
                    assert value.value is not None
                    assert alg.leq(previous.value, value.value)
                if value.value is not None:
                    previous = value


class TestReachability:
    def test_forward_and_backward_agree(self):
        """c reaches a target within the bounds iff the backward walk
        from the targets finds c; checked over a dense grid of small
        configurations."""
        import itertools

        for seed in range(4):
            pds, aut_pre, _ = instance(seed, "bool")
            delta = build_delta_pre(pds, aut_pre)
            targets = [cfg(f) for f in sorted(aut_pre.finals)]
            preds = predecessor_configs(
                delta, targets, depth_bound=6, stack_bound=14,
            )
            locs = sorted({r.from_loc for r in delta} | {r.to_loc for r in delta})
            syms = sorted(pds.alphabet | aut_pre.alphabet)
            for loc in locs:
                for k in range(3):
                    for stack in itertools.product(syms, repeat=k):
                        c = Configuration(loc, stack)
                        q = PathQuery.reaching_empty(
                            delta, c, aut_pre.finals, 6, stack_bound=14,
                        )
                        assert (c in preds) == bool(enumerate_paths(q))

    def test_backward_step_inverts_forward(self):
        pds = load_pds(
            "algebra minplus\n"
            "rule <p, a> -> <q, b c> weight 1\n"
        )
        rules = list(pds.rules)
        fwd = reachable_configs(rules, [cfg("p", "a", "x")],
                                depth_bound=1, stack_bound=5)
        assert cfg("q", "b", "c", "x") in fwd
        back = predecessor_configs(rules, [cfg("q", "b", "c", "x")],
                                   depth_bound=1, stack_bound=5)
        assert cfg("p", "a", "x") in back


class TestSoundnessCheck:
    def test_w_pre_passes(self, w_pre):
        pds, _, result = w_pre
        sol = solve_least(result.constraints, MP)
        report = check_soundness(pds, result, sol, depth_bound=8)
        assert report.passed
        assert report.checked > 0

    def test_w_post_passes(self, w_post):
        pds, _, result = w_post
        sol = solve_least(result.constraints, MP)
        report = check_soundness(pds, result, sol, depth_bound=8)
        assert report.passed

    def test_perturbed_solution_fails(self, w_pre):
        pds, _, result = w_pre
        sol = solve_least(result.constraints, MP)
        # push l(p,a,p) strictly down the order (numerically up)
        broken = dict(sol)
        broken[Transition("p", "a", "p")] = 9
        report = check_soundness(pds, result, Solution(MP, broken),
                                 depth_bound=8)
        assert not report.passed
        by_config = {v.config: v for v in report.violations}
        violation = by_config[cfg("p", "a", "end")]
        assert violation.lhs_text == "2"
        assert violation.rhs_text == "9"

    def test_boolean_reduces_to_reachability(self):
        pds, aut_pre, _ = instance(3, "bool")
        result = pre_star(pds, aut_pre)
        sol = solve_least(result.constraints, pds.algebra)
        report = check_soundness(pds, result, sol, depth_bound=8)
        assert report.passed

    def test_report_format(self, w_pre):
        pds, _, result = w_pre
        sol = solve_least(result.constraints, MP)
        text = check_soundness(pds, result, sol, depth_bound=8).text()
        lines = text.strip().splitlines()
        assert lines[-1].startswith("checked=")
        assert "violations=0" in lines[-1]
        assert all(l.startswith(("OK", "VIOLATION", "checked=")) for l in lines)


class TestCompletenessCheck:
    def test_w_pre_equality(self, w_pre):
        pds, _, result = w_pre
        sol = solve_least(result.constraints, MP)
        report = check_completeness(pds, result, sol, depth_bound=8,
                                    samples=[0, 1, 2])
        assert report.passed
        assert report.bound_limited == 0

    def test_w_post_equality(self, w_post):
        pds, _, result = w_post
        sol = solve_least(result.constraints, MP)
        report = check_completeness(pds, result, sol, depth_bound=8,
                                    samples=[0, 1, 2])
        assert report.passed

    def test_loop_free_killgen_instances(self):
        for seed in range(5):
            pds, aut_pre, _ = instance(seed, "killgen", loop_free=True)
            result = pre_star(pds, aut_pre)
            sol = solve_least(result.constraints, pds.algebra)
            report = check_completeness(pds, result, sol, depth_bound=40,
                                        config_stack_bound=3)
            assert report.passed
            assert report.bound_limited == 0

    @pytest.mark.parametrize("kind", ["killgen", "minplus"])
    def test_loop_free_forward_resaturations(self, kind):
        """A forward re-saturation starts from epsilon transitions, whose
        generator rules push nothing; the readout must still equal the
        join over all paths."""
        for seed in range(60):
            pds, _, aut_post = instance(seed, kind, loop_free=True)
            result = post_star(pds, post_star(pds, aut_post).automaton)
            sol = solve_least(result.constraints, pds.algebra)
            samples = [r.weight for r in pds.rules] if kind == "minplus" else None
            report = check_completeness(pds, result, sol, depth_bound=40,
                                        config_stack_bound=3, samples=samples)
            assert report.passed, f"seed {seed}: {report.violations[:3]}"

    def test_non_distributive_algebra_refused(self):
        alg = m3_algebra()
        report_laws = __import__("pdsflow").check_laws(alg)
        assert report_laws.verdict("distributes-left").failed
        pds_rules = [("p", "a", "p", ())]
        from pdsflow import PushdownSystem, Rule

        pds = PushdownSystem.from_rules(
            [Rule("p", "a", "p", (), "x")], alg,
        )
        aut = make_automaton(pds, [Transition("p", "a", "f")], ["f"], PRE)
        result = pre_star(pds, aut)
        sol = solve_least(result.constraints, alg)
        with pytest.raises(PreconditionNotMetError):
            check_completeness(pds, result, sol)

    def test_lowered_precision_detected(self, w_pre):
        """A solution strictly above the least one breaks equality."""
        pds, _, result = w_pre
        sol = solve_least(result.constraints, MP)
        loose = dict(sol)
        loose[Transition("p", "a", "p")] = 0  # numerically lower = higher
        report = check_completeness(pds, result, Solution(MP, loose),
                                    depth_bound=8, samples=[0, 1, 2])
        assert not report.passed
