"""Both saturation procedures: worked examples, shapes, witnesses."""

import pytest

from pdsflow import (
    Configuration,
    PushdownSystem,
    Rule,
    Transition,
    build_delta_pre,
    build_delta_post2,
    load_pds,
    make_automaton,
    mid_location,
    minplus_algebra,
    post_star,
    pre_star,
    render_constraints,
    step,
    transition_witness,
)
from pdsflow.automaton import PRE, POST
from pdsflow.errors import InvalidInputAutomatonError

MP = minplus_algebra()

W_TEXT = """
algebra minplus
rule <p, a> -> <p, b> weight 1
rule <p, b> -> <p, eps> weight 1
"""


@pytest.fixture
def pds():
    return load_pds(W_TEXT)


@pytest.fixture
def pre_input(pds):
    return make_automaton(pds, [Transition("p", "end", "q_f")], ["q_f"], PRE)


@pytest.fixture
def post_input(pds):
    return make_automaton(pds, [Transition("p", "a", "q_f")], ["q_f"], POST)


def constraint_texts(result, alg):
    return {c.text(alg) for c in result.constraints}


class TestPreStar:
    def test_worked_example_transitions(self, pds, pre_input):
        result = pre_star(pds, pre_input)
        assert result.automaton.transitions == {
            Transition("p", "end", "q_f"),
            Transition("p", "b", "p"),
            Transition("p", "a", "p"),
        }

    def test_worked_example_constraints(self, pds, pre_input):
        result = pre_star(pds, pre_input)
        assert constraint_texts(result, MP) == {
            "0 <= l(p,end,q_f)",
            "1 <= l(p,b,p)",
            "1 (x) l(p,b,p) <= l(p,a,p)",
        }

    def test_empty_rule_set_leaves_automaton_alone(self, pre_input):
        empty = PushdownSystem.from_rules([], MP)
        # reuse the automaton's alphabet; an empty system has none of its own
        result = pre_star(
            PushdownSystem(frozenset({"p"}), frozenset(), (), MP), pre_input
        )
        assert result.automaton.transitions == pre_input.transitions
        assert constraint_texts(result, MP) == {"0 <= l(p,end,q_f)"}
        assert empty.rules == ()

    def test_adds_no_states(self, pds, pre_input):
        result = pre_star(pds, pre_input)
        assert result.automaton.states == pre_input.states

    def test_rejects_wrong_direction(self, pds, post_input):
        with pytest.raises(InvalidInputAutomatonError):
            pre_star(pds, post_input)

    def test_monotone_growth_and_idempotence(self, pds, pre_input):
        result = pre_star(pds, pre_input)
        assert pre_input.transitions <= result.automaton.transitions
        again = pre_star(pds, result.automaton)
        assert again.automaton.transitions == result.automaton.transitions
        assert constraint_texts(again, MP) >= constraint_texts(result, MP)
        # re-running adds no constraint beyond the seeds for the new originals
        extra = constraint_texts(again, MP) - constraint_texts(result, MP)
        assert all(text.startswith("0 <= ") for text in extra)

    def test_push_rule_case(self):
        pds = load_pds(
            "algebra minplus\n"
            "rule <p, call> -> <q, enter ret> weight 3\n"
            "rule <q, enter> -> <q, eps> weight 1\n"
        )
        aut = make_automaton(
            pds,
            [Transition("q", "ret", "f")],
            ["f"], PRE,
        )
        result = pre_star(pds, aut)
        # pop gives q -enter-> q, then the push rule matches the two-step path
        assert Transition("q", "enter", "q") in result.automaton.transitions
        assert Transition("p", "call", "f") in result.automaton.transitions
        texts = constraint_texts(result, MP)
        assert "3 (x) l(q,enter,q) (x) l(q,ret,f) <= l(p,call,f)" in texts


class TestPostStar:
    def test_worked_example_transitions(self, pds, post_input):
        result = post_star(pds, post_input)
        assert result.automaton.transitions == {
            Transition("p", "a", "q_f"),
            Transition("p", "b", "q_f"),
            Transition("p", None, "q_f"),
        }

    def test_worked_example_constraints(self, pds, post_input):
        result = post_star(pds, post_input)
        assert constraint_texts(result, MP) == {
            "0 <= l(p,a,q_f)",
            "l(p,a,q_f) (x) 1 <= l(p,b,q_f)",
            "l(p,b,q_f) (x) 1 <= l(p,eps,q_f)",
        }

    def test_mid_state_per_push_rule(self):
        pds = load_pds(
            "algebra minplus\n"
            "rule <p, a> -> <p, b c> weight 2\n"
            "rule <p, z> -> <p, b c> weight 4\n"
            "rule <q, z> -> <q, y x> weight 1\n"
        )
        aut = make_automaton(pds, [Transition("p", "a", "f")], ["f"], POST)
        result = post_star(pds, aut)
        mids = {s for s in result.automaton.states if s.startswith("mid:")}
        # two distinct (target, first symbol) pairs, deduplicated
        assert mids == {mid_location("p", "b"), mid_location("q", "y")}
        seed = f"0 <= l(p,b,{mid_location('p', 'b')})"
        assert seed in constraint_texts(result, MP)
        # the never-firing push rule contributes its state but nothing else
        assert not any(
            t.src == mid_location("q", "y") or t.dst == mid_location("q", "y")
            for t in result.automaton.transitions
        )

    def test_eps_composed_match(self):
        """A rule can fire across an epsilon step added earlier."""
        pds = load_pds(
            "algebra minplus\n"
            "rule <p, a> -> <q, eps> weight 1\n"
            "rule <q, b> -> <q, c> weight 1\n"
        )
        aut = make_automaton(
            pds,
            [Transition("p", "a", "s"), Transition("s", "b", "f")],
            ["f"], POST,
        )
        result = post_star(pds, aut)
        # pop adds q -eps-> s; then the swap matches q =b=> f through it
        assert Transition("q", None, "s") in result.automaton.transitions
        assert Transition("q", "c", "f") in result.automaton.transitions
        texts = constraint_texts(result, MP)
        assert "l(s,b,f) (x) l(q,eps,s) (x) 1 <= l(q,c,f)" in texts

    def test_idempotence(self, pds, post_input):
        result = post_star(pds, post_input)
        again = post_star(pds, result.automaton)
        assert again.automaton.transitions == result.automaton.transitions
        assert again.automaton.states == result.automaton.states

    def test_rejects_wrong_direction(self, pds, pre_input):
        with pytest.raises(InvalidInputAutomatonError):
            post_star(pds, pre_input)


class TestConstraintShapes:
    def test_pre_shapes(self, pds, pre_input):
        for c in pre_star(pds, pre_input).constraints:
            assert c.before == () and len(c.after) <= 2

    def test_post_shapes(self, pds, post_input):
        for c in post_star(pds, post_input).constraints:
            assert c.after == () and len(c.before) <= 2

    def test_every_transition_has_a_constraint(self, pds, pre_input, post_input):
        for result in (pre_star(pds, pre_input), post_star(pds, post_input)):
            constrained = {c.rhs for c in result.constraints}
            assert result.automaton.transitions <= constrained

    def test_rhs_transitions_exist(self, pds, pre_input):
        result = pre_star(pds, pre_input)
        for c in result.constraints:
            assert c.rhs in result.automaton.transitions
            for t in c.before + c.after:
                assert type(t) is Transition and t in result.automaton.transitions

    def test_seed_constraints_only_for_originals(self, pds, pre_input):
        result = pre_star(pds, pre_input)
        seeds = [
            c for c in result.constraints
            if c.before == c.after == () and c.weight == MP.one
        ]
        assert {c.rhs for c in seeds} == set(pre_input.transitions)

    def test_deterministic_output(self, pds, pre_input):
        a = render_constraints(pre_star(pds, pre_input), MP)
        b = render_constraints(pre_star(pds, pre_input), MP)
        assert a == b


def replay(rules, start, sigma, expected_end):
    c = start
    for r in sigma:
        matches = [c2 for r2, c2 in step(rules, c) if r2 == r]
        assert matches, f"{r.text(MP)} does not apply at {c.text()}"
        c = matches[0]
    assert c == expected_end


class TestWitnesses:
    def test_pre_witnesses_replay(self, pds, pre_input):
        result = pre_star(pds, pre_input)
        delta = build_delta_pre(pds, pre_input)
        for t in result.automaton.transitions:
            sigma = transition_witness(result, pds, t)
            assert all(r in delta for r in sigma)
            replay(delta, Configuration(t.src, (t.label,)),
                   sigma, Configuration(t.dst, ()))

    def test_post_witnesses_replay(self, pds, post_input):
        result = post_star(pds, post_input)
        delta = build_delta_post2(pds, post_input)
        for t in result.automaton.transitions:
            sigma = transition_witness(result, pds, t)
            assert all(r in delta for r in sigma)
            word = (t.label,) if t.label is not None else ()
            replay(delta, Configuration(t.dst, ()),
                   sigma, Configuration(t.src, word))

    def test_post_witnesses_with_push(self):
        pds = load_pds(
            "algebra minplus\n"
            "rule <p, a> -> <q, b c> weight 2\n"
            "rule <q, b> -> <p, eps> weight 1\n"
        )
        aut = make_automaton(pds, [Transition("p", "a", "f")], ["f"], POST)
        result = post_star(pds, aut)
        delta = build_delta_post2(pds, aut)
        assert len(result.automaton.transitions) > 1
        for t in result.automaton.transitions:
            sigma = transition_witness(result, pds, t)
            word = (t.label,) if t.label is not None else ()
            replay(delta, Configuration(t.dst, ()),
                   sigma, Configuration(t.src, word))

    @pytest.mark.parametrize("direction", [PRE, POST])
    def test_repeated_rule_keys_witness_the_first_rule(self, direction):
        """A system built by its constructor may repeat a rule key with
        another weight.  Each pair's first rule fires first, so every
        witness names it, or its split halves forward."""
        pairs = [Rule("p", "a", "q", (), 1), Rule("p", "a", "q", (), 5),
                 Rule("q", "b", "p", ("a",), 2), Rule("q", "b", "p", ("a",), 6),
                 Rule("p", "c", "q", ("b", "d"), 3),
                 Rule("p", "c", "q", ("b", "d"), 7)]
        pds = PushdownSystem(frozenset("pq"), frozenset("abcd"), tuple(pairs), MP)
        first = pds._replace(rules=tuple(pairs[::2]))
        if direction == PRE:
            aut = make_automaton(pds, [Transition("q", "d", "f")], ["f"], PRE)
            result, build = pre_star(pds, aut), build_delta_pre
        else:
            aut = make_automaton(pds, [Transition("p", "c", "f")], ["f"], POST)
            result, build = post_star(pds, aut), build_delta_post2
        delta, firsts = build(pds, aut), build(first, aut)
        used = set()
        for t in result.automaton.transitions:
            sigma = transition_witness(result, pds, t)
            assert all(r in firsts for r in sigma), t.text()
            used.update(sigma)
            if direction == PRE:
                replay(delta, Configuration(t.src, (t.label,)),
                       sigma, Configuration(t.dst, ()))
            else:
                word = (t.label,) if t.label is not None else ()
                replay(delta, Configuration(t.dst, ()),
                       sigma, Configuration(t.src, word))
        assert {r.weight for r in used} >= {1, 2, 3}
