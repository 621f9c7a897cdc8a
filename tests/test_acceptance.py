"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The randomized suites use fixed seeds so every run checks the
same instances.
"""

import random
import time
from pathlib import Path

import pytest

import pdsflow as pf
from pdsflow import (
    Configuration,
    Run,
    Solution,
    Transition,
    accepted_configs,
    accepting_runs,
    build_delta_pre,
    build_delta_post2,
    check_completeness,
    check_soundness,
    check_laws,
    encode_icfg,
    killgen_algebra,
    load_icfg,
    load_pds,
    make_automaton,
    minplus_algebra,
    post_star,
    pre_star,
    query,
    solve_least,
    step,
)
from pdsflow.automaton import POST, PRE
from pdsflow.cli import main as cli_main, single_config_automaton
from pdsflow.encode import CONTROL_LOCATION
from pdsflow.solver import eval_lhs

from instances import instance
from reference_oracle import (
    PathQuery,
    build_delta_post,
    join_over_paths,
    predecessor_configs,
    reachable_configs,
    transition_witness,
)
from reference_readout import read_weight_post
from reference_solver import apply_F, iterate_to_fixpoint

FIXTURES = Path(__file__).parent / "fixtures"

SOUND_SEEDS = range(1000, 1100)   # 100 instances
LOOPFREE_SEEDS = range(2000, 2050)  # 50 instances

MP = minplus_algebra()


def w_pre():
    pds = load_pds((FIXTURES / "w_pre.pds").read_text())
    aut = make_automaton(pds, [Transition("p", "end", "q_f")], ["q_f"], PRE)
    return pds, aut


def w_post():
    pds = load_pds((FIXTURES / "w_pre.pds").read_text())
    aut = make_automaton(pds, [Transition("p", "a", "q_f")], ["q_f"], POST)
    return pds, aut


@pytest.fixture(scope="module")
def suite():
    """Saturated and solved runs for the 100 kill/gen suite instances,
    both directions, with the size caps asserted."""
    runs = []
    for seed in SOUND_SEEDS:
        pds, aut_pre, aut_post = instance(seed, "killgen")
        assert len(pds.locations) <= 3
        assert len(pds.alphabet) <= 4
        assert len(pds.rules) <= 8
        assert len(aut_pre.states) <= 4
        for aut, saturate in ((aut_pre, pre_star), (aut_post, post_star)):
            result = saturate(pds, aut)
            sol = solve_least(result.constraints, pds.algebra)
            runs.append((seed, pds, aut, result, sol))
    return runs


@pytest.fixture(scope="module")
def loopfree_suite():
    runs = []
    for seed in LOOPFREE_SEEDS:
        for kind in ("killgen", "minplus"):
            pds, aut_pre, aut_post = instance(seed, kind, loop_free=True)
            samples = [r.weight for r in pds.rules] if kind == "minplus" else None
            for aut, saturate in ((aut_pre, pre_star), (aut_post, post_star)):
                result = saturate(pds, aut)
                sol = solve_least(result.constraints, pds.algebra)
                runs.append((seed, kind, pds, result, sol, samples))
    return runs


def test_criterion_1_worked_example_backward(capsys):
    started = time.time()
    code = cli_main([
        "solve", "--pds", str(FIXTURES / "w_pre.pds"),
        "--automaton", str(FIXTURES / "w_pre.aut"), "--direction", "pre",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "l(p,a,p) = 2\nl(p,b,p) = 1\nl(p,end,q_f) = 0\n"

    pds, aut = w_pre()
    result = pre_star(pds, aut)
    sol = solve_least(result.constraints, MP)
    value = query(result.automaton, sol, Configuration("p", ("a", "end")))
    assert value == 2

    delta = build_delta_pre(pds, aut)
    jp = join_over_paths(MP, PathQuery.reaching_empty(
        delta, Configuration("p", ("a", "end")), aut.finals, 6,
    ))
    assert jp.value == 2
    assert jp.exhausted
    elapsed = time.time() - started
    assert elapsed < 1.0
    print(f"criterion 1 PASS: backward worked example ({elapsed:.2f}s)")


def test_criterion_2_worked_example_forward(capsys):
    started = time.time()
    code = cli_main([
        "solve", "--pds", str(FIXTURES / "w_pre.pds"),
        "--automaton", str(FIXTURES / "w_post.aut"), "--direction", "post",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "l(p,a,q_f) = 0\nl(p,b,q_f) = 1\nl(p,eps,q_f) = 2\n"

    pds, aut = w_post()
    result = post_star(pds, aut)
    sol = solve_least(result.constraints, MP)
    empty = Configuration("p", ())
    assert query(result.automaton, sol, empty) == 2
    # the empty-stack run is exactly the one epsilon transition and the
    # readout multiplies in reverse run order
    (run,) = accepting_runs(result.automaton, empty)
    assert run.transitions == (Transition("p", None, "q_f"),)
    assert read_weight_post(result.automaton, sol, run) == 2
    t_a = Transition("p", "a", "q_f")
    t_b = Transition("p", "b", "q_f")
    two_step = Run((t_a, t_b))
    assert read_weight_post(result.automaton, sol, two_step) == \
        MP.extend(sol[t_b], sol[t_a])
    elapsed = time.time() - started
    assert elapsed < 1.0
    print(f"criterion 2 PASS: forward worked example ({elapsed:.2f}s)")


def test_criterion_3_killgen_law_table():
    started = time.time()
    alg = killgen_algebra({"x", "y"})
    assert len(alg.elements) == 16
    report = check_laws(alg)
    for law in ("combine-idempotent", "combine-commutative", "one-neutral",
                "distributes-left", "distributes-right"):
        assert report.verdict(law).status == "holds"
    assert report.verdict("annihilates-right").status == "holds"
    for e in alg.elements:
        assert alg.extend(e, alg.zero) == alg.zero
    failure = report.verdict("annihilates-left")
    assert failure.status == "fails"
    (witness,) = failure.counterexample
    assert witness.gen
    for e in alg.elements:
        broken = alg.extend(alg.zero, e) != alg.zero
        assert broken == bool(e.gen)
    elapsed = time.time() - started
    assert elapsed < 1.0
    print(f"criterion 3 PASS: kill/gen law table over 16 elements ({elapsed:.2f}s)")


def test_criterion_4_soundness_suite(suite):
    started = time.time()
    checked = 0
    for seed, pds, aut, result, sol in suite:
        report = check_soundness(pds, result, sol,
                                 depth_bound=12, config_stack_bound=4)
        assert not report.violations, f"seed {seed}: {report.violations[:3]}"
        checked += report.checked
    elapsed = time.time() - started
    assert elapsed < 300
    assert checked > 1000
    print(f"criterion 4 PASS: soundness, {checked} sequence checks over "
          f"{len(suite)} runs, 0 violations ({elapsed:.1f}s)")


def test_criterion_5_completeness_suite(loopfree_suite):
    started = time.time()
    checked = 0
    for seed, kind, pds, result, sol, samples in loopfree_suite:
        report = check_completeness(pds, result, sol, depth_bound=40,
                                    config_stack_bound=4, samples=samples)
        assert not report.violations, f"seed {seed} {kind}"
        assert report.bound_limited == 0, f"seed {seed} {kind} not exhausted"
        checked += report.checked
    elapsed = time.time() - started
    assert elapsed < 300
    assert checked > 500
    print(f"criterion 5 PASS: completeness equality on {checked} accepted "
          f"configurations, all searches exhausted ({elapsed:.1f}s)")


def _replays(rules, start, sigma, end):
    c = start
    for r in sigma:
        followers = [c2 for r2, c2 in step(rules, c) if r2 == r]
        if not followers:
            return False
        c = followers[0]
    return c == end


def test_criterion_6_transition_witnesses(suite, loopfree_suite):
    started = time.time()
    total = 0
    every = [(pds, result) for _, pds, _, result, _ in suite]
    every += [(pds, result) for _, _, pds, result, _, _ in loopfree_suite]
    # re-saturated automata: forward ones start from epsilon transitions
    every += [(pds, (pre_star if result.automaton.direction == PRE
                     else post_star)(pds, result.automaton))
              for pds, result in every]
    for pds, result in every:
        direction = result.automaton.direction
        if direction == PRE:
            delta = build_delta_pre(pds, result.original)
        else:
            delta = build_delta_post2(pds, result.original)
        for t in sorted(result.automaton.transitions, key=lambda t: t.text()):
            sigma = transition_witness(result, pds, t)
            if direction == PRE:
                ok = _replays(delta, Configuration(t.src, (t.label,)),
                              sigma, Configuration(t.dst, ()))
            else:
                word = (t.label,) if t.label is not None else ()
                ok = _replays(delta, Configuration(t.dst, ()),
                              sigma, Configuration(t.src, word))
            assert ok, f"witness for {t.text()} does not replay"
            total += 1
    elapsed = time.time() - started
    print(f"criterion 6 PASS: {total} transition witnesses replayed "
          f"({elapsed:.1f}s)")


def test_criterion_7_solver_properties(suite):
    started = time.time()
    rng = random.Random(99)
    mono = least_checked = agree = 0
    for seed, pds, aut, result, least in suite:
        alg = pds.algebra
        pool = list(alg.elements)
        trans = sorted(least, key=lambda t: t.text())
        for _ in range(5):  # 5 pairs x 200 runs = 1000
            lo = {t: rng.choice(pool) for t in trans}
            hi = {t: alg.combine(lo[t], rng.choice(pool)) for t in trans}
            f_lo = apply_F(Solution(alg, lo), result.constraints)
            f_hi = apply_F(Solution(alg, hi), result.constraints)
            assert all(alg.leq(f_lo[t], f_hi[t]) for t in trans)
            mono += 1
        for _ in range(100):
            sol = Solution(alg, {t: rng.choice(pool) for t in trans})
            for _ in range(500):
                stepped = apply_F(sol, result.constraints)
                merged = {t: alg.combine(sol[t], stepped[t]) for t in trans}
                if all(merged[t] == sol[t] for t in trans):
                    break
                sol = Solution(alg, merged)
            assert all(
                alg.leq(eval_lhs(sol, c), sol[c.rhs])
                for c in result.constraints
            )
            assert all(alg.leq(least[t], sol[t]) for t in trans)
            least_checked += 1
        naive = iterate_to_fixpoint(result.constraints, alg)
        assert all(least[t] == naive[t] for t in trans)
        bound = len(alg.elements) * max(1, len(trans))
        assert least.stats["changes"] <= bound
        agree += 1
    elapsed = time.time() - started
    assert mono == 1000
    print(f"criterion 7 PASS: {mono} monotonicity pairs, {least_checked} "
          f"leastness checks, {agree} worklist/naive agreements ({elapsed:.1f}s)")


def test_criterion_8_boolean_degeneration():
    started = time.time()
    runs = 0
    for seed in SOUND_SEEDS:
        pds, aut_pre, aut_post = instance(seed, "bool")

        result = pre_star(pds, aut_pre)
        accepted = set(accepted_configs(result.automaton, 4))
        targets = [Configuration(f, ()) for f in sorted(aut_pre.finals)]
        delta = build_delta_pre(pds, aut_pre)
        preds = predecessor_configs(delta, targets,
                                    depth_bound=12, stack_bound=28)
        oracle = {c for c in preds
                  if c.loc in aut_pre.initials and len(c.stack) <= 4}
        assert accepted == oracle, f"seed {seed} backward sets differ"
        runs += 1

        result = post_star(pds, aut_post)
        accepted = set(accepted_configs(result.automaton, 4))
        sources = [Configuration(f, ()) for f in sorted(aut_post.finals)]
        delta = build_delta_post(pds, aut_post)
        reach = reachable_configs(delta, sources,
                                  depth_bound=12, stack_bound=28)
        oracle = {c for c in reach
                  if c.loc in aut_post.initials and len(c.stack) <= 4}
        assert accepted == oracle, f"seed {seed} forward sets differ"
        runs += 1
    elapsed = time.time() - started
    print(f"criterion 8 PASS: accepted sets match bounded reachability on "
          f"{runs} runs ({elapsed:.1f}s)")


def test_criterion_9_end_to_end_demo(capsys):
    started = time.time()
    code = cli_main([
        "analyze", "--icfg", str(FIXTURES / "demo.icfg"),
        "--direction", "post", "--init-config", "<p: m0>",
    ])
    out = capsys.readouterr().out
    assert code == 0
    expected = (FIXTURES / "demo_analysis_expected.txt").read_text()
    assert out == expected

    g = load_icfg((FIXTURES / "demo.icfg").read_text())
    pds = encode_icfg(g)
    aut = single_config_automaton(
        pds, Configuration(CONTROL_LOCATION, ("m0",)), POST,
    )
    result = post_star(pds, aut)
    sol = solve_least(result.constraints, pds.algebra)
    alg = pds.algebra
    first = query(result.automaton, sol,
                  Configuration(CONTROL_LOCATION, ("h0", "m2")))
    second = query(result.automaton, sol,
                   Configuration(CONTROL_LOCATION, ("h0", "m4")))
    assert alg.render(first) == "kill={} gen={x}"
    assert alg.render(second) == "kill={x,y} gen={y,z}"
    assert first != second
    elapsed = time.time() - started
    print(f"criterion 9 PASS: demo table matches the hand-computed fixture, "
          f"helper summaries differ by context ({elapsed:.2f}s)")
