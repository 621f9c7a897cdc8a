"""Rule systems, the step relation, path weights, and composite systems."""

import random

import pytest

from pdsflow import (
    Configuration,
    PushdownSystem,
    Rule,
    Transition,
    build_delta_pre,
    build_delta_post2,
    killgen_algebra,
    load_pds,
    make_automaton,
    minplus_algebra,
    mid_location,
    parse_config_text,
    path_weight,
    step,
)
from pdsflow.algebra import KillGenElement
from pdsflow.automaton import PRE, POST
from pdsflow.errors import ParseError


MP = minplus_algebra()


def mp_pds(*rules):
    return PushdownSystem.from_rules(rules, MP)


W_TEXT = """
# two-rule system
algebra minplus
rule <p, a> -> <p, b> weight 1
rule <p, b> -> <p, eps> weight 1
"""


class TestLoading:
    def test_basic(self):
        pds = load_pds(W_TEXT)
        assert pds.locations == {"p"}
        assert pds.alphabet == {"a", "b"}
        assert len(pds.rules) == 2
        assert pds.rules[1].to_word == ()

    def test_duplicate_rules_merge_by_combine(self):
        pds = load_pds(
            "algebra minplus\n"
            "rule <p, a> -> <q, b> weight 5\n"
            "rule <p, a> -> <q, b> weight 3\n"
        )
        assert len(pds.rules) == 1
        assert pds.rules[0].weight == 3

    def test_long_rhs_rejected_with_line(self):
        with pytest.raises(ParseError) as err:
            load_pds("algebra minplus\nrule <p, a> -> <p, a b c> weight 1\n")
        assert ":2:" in str(err.value)

    def test_eps_lhs_rejected(self):
        with pytest.raises(ParseError):
            load_pds("algebra minplus\nrule <p, eps> -> <p, a> weight 1\n")

    def test_rule_without_stack_symbol_rejected_by_from_rules(self):
        with pytest.raises(ParseError) as err:
            mp_pds(Rule("p", "a", "q", (), 1), Rule("q", None, "p", ("a",), 1))
        assert str(err.value) == (
            "rule at q consumes no stack symbol; "
            "every rule must read the top of the stack"
        )

    def test_bad_weight_literal(self):
        with pytest.raises(ParseError) as err:
            load_pds("algebra minplus\nrule <p, a> -> <p, b> weight -4\n")
        assert ":2:" in str(err.value)

    def test_killgen_header_and_weights(self):
        pds = load_pds(
            "algebra killgen domain={a,b}\n"
            "rule <p, x> -> <p, y> weight kill={a} gen={}\n"
        )
        assert pds.algebra.name == "killgen"
        assert pds.rules[0].weight == KillGenElement(frozenset("a"), frozenset())

    def test_text_roundtrip(self):
        pds = load_pds(W_TEXT)
        again = load_pds(pds.text())
        assert again.text() == pds.text()

    def test_colon_identifiers_rejected(self):
        with pytest.raises(ParseError):
            load_pds("algebra minplus\nrule <p:x, a> -> <p, b> weight 1\n")

    def test_tabulated_carrier_closes_over_rule_weights(self):
        pds = load_pds(
            "algebra tabulated domain={a}\n"
            "rule <p, s> -> <p, eps> weight [{a}->{a},{}->{a}]\n"
        )
        renders = {pds.algebra.render(e) for e in pds.algebra.elements}
        assert "[{a}->{a},{}->{a}]" in renders  # the rule weight itself
        assert pds.algebra.render(pds.rules[0].weight) in renders

    def test_tabulated_non_monotone_weight_rejected(self):
        from pdsflow.errors import NonMonotoneFunctionError

        with pytest.raises(NonMonotoneFunctionError):
            load_pds(
                "algebra tabulated domain={a}\n"
                "rule <p, s> -> <p, eps> weight [{a}->{},{}->{a}]\n"
            )


class TestConfigLiterals:
    def test_roundtrip(self):
        c = parse_config_text("<p: a b>")
        assert c == Configuration("p", ("a", "b"))
        assert c.text() == "<p: a b>"

    def test_empty_stack(self):
        c = parse_config_text("<p:>")
        assert c.stack == ()
        assert c.text() == "<p:>"

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_config_text("p: a")


class TestStep:
    def test_direct_application(self):
        r = Rule("p", "a", "p", ("b",), 0)
        out = step([r], Configuration("p", ("a", "c")))
        assert out == [(r, Configuration("p", ("b", "c")))]

    def test_empty_stack_blocks(self):
        r = Rule("p", "a", "p", ("b",), 0)
        assert step([r], Configuration("p", ())) == []

    def test_eps_lhs_pushes_without_consuming(self):
        r = Rule("q", None, "p", ("g",), 0)
        out = step([r], Configuration("q", ("b",)))
        assert out == [(r, Configuration("p", ("g", "b")))]

    def test_suffix_invariance(self):
        """A rule rewrites only the stack prefix; the suffix rides along."""
        rng = random.Random(7)
        rules = [
            Rule("p", "a", "q", ("b", "c"), 0),
            Rule("p", "a", "p", (), 0),
            Rule("q", None, "p", ("a",), 0),
        ]
        symbols = ["a", "b", "c"]
        for _ in range(200):
            suffix = tuple(rng.choices(symbols, k=rng.randint(0, 4)))
            for r in rules:
                head = (r.from_sym,) if r.from_sym else ()
                src = Configuration(r.from_loc, head + suffix)
                successors = dict(step(rules, src))
                assert successors[r] == Configuration(r.to_loc, r.to_word + suffix)


class TestPathWeight:
    def test_empty_sequence_is_one(self):
        assert path_weight(MP, []) == 0

    def test_minplus_adds(self):
        sigma = [Rule("p", "a", "p", ("b",), 1), Rule("p", "b", "p", (), 1)]
        assert path_weight(MP, sigma) == 2

    def test_killgen_composes(self):
        alg = killgen_algebra({"a", "b"})
        sigma = [
            Rule("p", "x", "p", ("y",), KillGenElement(frozenset("a"), frozenset())),
            Rule("p", "y", "p", (), KillGenElement(frozenset(), frozenset("a"))),
        ]
        assert (path_weight(alg, sigma)
                == KillGenElement(frozenset("a"), frozenset("a")))

    def test_concatenation_homomorphism(self):
        rng = random.Random(3)
        alg = killgen_algebra({"u", "v"})
        pool = list(alg.elements)
        for _ in range(100):
            s1 = [Rule("p", "a", "p", ("a",), rng.choice(pool))
                  for _ in range(rng.randint(0, 3))]
            s2 = [Rule("p", "a", "p", ("a",), rng.choice(pool))
                  for _ in range(rng.randint(0, 3))]
            assert (path_weight(alg, s1 + s2)
                    == alg.extend(path_weight(alg, s1), path_weight(alg, s2)))


class TestDeltaPre:
    def test_adds_one_pop_rule_per_transition(self):
        pds = load_pds(W_TEXT)
        aut = make_automaton(pds, [Transition("p", "a", "q_f")], ["q_f"], PRE)
        delta = build_delta_pre(pds, aut)
        assert len(delta) == len(pds.rules) + 1
        extra = delta[-1]
        assert (extra.from_loc, extra.from_sym, extra.to_loc, extra.to_word) == (
            "p", "a", "q_f", (),
        )
        assert extra.weight == MP.one

    def test_empty_automaton_changes_nothing(self):
        pds = load_pds(W_TEXT)
        aut = make_automaton(pds, [], ["q_f"], PRE)
        assert build_delta_pre(pds, aut) == list(pds.rules)

    def test_two_transitions(self):
        pds = load_pds(W_TEXT)
        aut = make_automaton(
            pds,
            [Transition("p", "a", "s"), Transition("s", "b", "q_f")],
            ["q_f"], PRE,
        )
        assert len(build_delta_pre(pds, aut)) == len(pds.rules) + 2


class TestDeltaPost2:
    def test_generator_rule_orientation(self):
        """src -g-> dst yields the rule that pushes g moving dst to src,
        so a run from a final state rebuilds accepted stacks."""
        pds = load_pds(W_TEXT)
        aut = make_automaton(pds, [Transition("p", "a", "q_f")], ["q_f"], POST)
        delta = build_delta_post2(pds, aut)
        gens = [r for r in delta if r.from_sym is None]
        assert len(gens) == 1
        g = gens[0]
        assert (g.from_loc, g.to_loc, g.to_word, g.weight) == ("q_f", "p", ("a",), 0)

    def test_no_push_rules_and_empty_automaton(self):
        pds = load_pds(W_TEXT)
        aut = make_automaton(pds, [], ["q_f"], POST)
        assert build_delta_post2(pds, aut) == list(pds.rules)

    def test_push_rule_splits_and_preserves_weight(self):
        pds = mp_pds(Rule("p", "g", "q", ("g1", "g2"), 7))
        aut = make_automaton(pds, [], ["f"], POST)
        delta = build_delta_post2(pds, aut)
        assert len(delta) == 2
        r1, r2 = delta
        mid = mid_location("q", "g1")
        assert (r1.from_loc, r1.from_sym, r1.to_loc, r1.to_word) == ("p", "g", mid, ("g2",))
        assert (r2.from_loc, r2.from_sym, r2.to_loc, r2.to_word) == (mid, None, "q", ("g1",))
        assert MP.extend(r1.weight, r2.weight) == 7
        # the two-step chain lands exactly where the original rule does
        start = Configuration("p", ("g", "x"))
        (_, after1), = step([r1], start)
        (_, after2), = step([r2], after1)
        (_, direct), = step(list(pds.rules), start)
        assert after2 == direct
        assert path_weight(MP, [r1, r2]) == 7

    def test_chain_weight_for_every_push_rule(self):
        alg = killgen_algebra({"u", "v"})
        rng = random.Random(11)
        pool = list(alg.elements)
        rules = [
            Rule("p", "a", "q", ("b", "c"), rng.choice(pool)),
            Rule("q", "b", "p", ("a", "a"), rng.choice(pool)),
            Rule("p", "c", "q", ("b",), rng.choice(pool)),
        ]
        pds = PushdownSystem.from_rules(rules, alg)
        aut = make_automaton(pds, [], ["f"], POST)
        delta = build_delta_post2(pds, aut)
        for r in pds.rules:
            if len(r.to_word) != 2:
                continue
            mid = mid_location(r.to_loc, r.to_word[0])
            r1 = next(d for d in delta if d.from_loc == r.from_loc
                      and d.from_sym == r.from_sym and d.to_loc == mid)
            r2 = next(d for d in delta if d.from_loc == mid)
            assert alg.extend(r1.weight, r2.weight) == r.weight
