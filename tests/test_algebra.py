"""Weight domain laws, instances, and the dynamic law checker."""

import itertools
import pickle

import pytest
from hypothesis import given, strategies as st

from pdsflow import (
    FiniteLattice,
    KillGenElement,
    boolean_algebra,
    check_laws,
    killgen_algebra,
    load_pds,
    minplus_algebra,
    powerset_lattice,
    tabulated_framework_algebra,
)
from pdsflow.algebra import INF
from pdsflow.errors import (
    ClosureExplosionError,
    EmptyDomainError,
    NonMonotoneFunctionError,
    NoSamplesError,
)

from test_reference_readout import NON_DISTRIBUTIVE, tabulated_instance


def kg(kill, gen):
    return KillGenElement(frozenset(kill), frozenset(gen))


MINPLUS_SAMPLES = [0, 1, 2, 5, INF]


class TestInducedOrder:
    def test_zero_below_everything(self):
        alg = killgen_algebra({"a", "b"})
        for x in alg.elements:
            assert alg.leq(alg.zero, x)

    def test_reflexive(self):
        alg = killgen_algebra({"a", "b"})
        for x in alg.elements:
            assert alg.leq(x, x)

    def test_killgen_counterexample(self):
        # combine((∅,{a}), ({a},{a})) = (∅,{a}), not ({a},{a})
        alg = killgen_algebra({"a", "b"})
        assert not alg.leq(kg([], ["a"]), kg(["a"], ["a"]))

    def test_partial_order_on_small_carriers(self):
        """Reflexive, antisymmetric, transitive, exhaustively."""
        for alg in (killgen_algebra({"a", "b"}), boolean_algebra()):
            els = alg.elements
            for x in els:
                assert alg.leq(x, x)
            for x, y in itertools.product(els, repeat=2):
                if alg.leq(x, y) and alg.leq(y, x):
                    assert x == y
            for x, y, z in itertools.product(els, repeat=3):
                if alg.leq(x, y) and alg.leq(y, z):
                    assert alg.leq(x, z)


class TestKillGen:
    def test_empty_domain_rejected(self):
        with pytest.raises(EmptyDomainError):
            killgen_algebra([])

    def test_zero_not_left_annihilator(self):
        alg = killgen_algebra({"a", "b"})
        out = alg.extend(alg.zero, kg(["a"], ["b"]))
        assert out == kg(["a", "b"], ["b"])
        assert out != alg.zero

    def test_zero_right_annihilator(self):
        alg = killgen_algebra({"a", "b"})
        for x in alg.elements:
            assert alg.extend(x, alg.zero) == alg.zero

    def test_extend_by_hand(self):
        alg = killgen_algebra({"a", "b", "c"})
        out = alg.extend(kg(["a"], ["b"]), kg(["b"], ["c"]))
        assert out == kg(["a", "b"], ["c"])

    def test_extend_matches_function_composition(self):
        """Pairs encode l -> (l \\ kill) | gen; extend must compose them."""
        alg = killgen_algebra({"a", "b"})
        subsets = [frozenset(), frozenset("a"), frozenset("b"), frozenset("ab")]
        for x, y in itertools.product(alg.elements, repeat=2):
            composed = alg.extend(x, y)
            for l in subsets:
                assert composed.apply(l) == y.apply(x.apply(l))

    def test_render_parse_roundtrip(self):
        alg = killgen_algebra({"a", "b"})
        for x in alg.elements:
            assert alg.parse(alg.render(x)) == x
        assert alg.render(kg(["b", "a"], [])) == "kill={a,b} gen={}"

    def test_parse_rejects_unknown_fact(self):
        alg = killgen_algebra({"a"})
        with pytest.raises(ValueError):
            alg.parse("kill={z} gen={}")

    def test_carrier_enumeration_size(self):
        assert len(killgen_algebra({"a", "b"}).elements) == 16
        assert len(killgen_algebra({"a", "b", "c"}).elements) == 64

    def test_carrier_order(self):
        """Kill-major, each side over subsets by size, then name order."""
        subsets = [frozenset(c) for r in range(4)
                   for c in itertools.combinations("abc", r)]
        assert list(killgen_algebra(["c", "a", "b"]).elements) == [
            kg(k, g) for k in subsets for g in subsets]

    def test_large_domain_is_abstract(self):
        alg = killgen_algebra([f"f{i}" for i in range(9)])
        assert alg.elements is None


@st.composite
def two_domains(draw):
    """Two fact domains of 1 to 70 facts; the ``s`` facts are shared."""
    sizes = st.integers(1, 70)
    n, m = draw(sizes), draw(sizes)
    shared = [f"s{i}" for i in range(draw(st.integers(0, min(n, m))))]
    return (shared + [f"a{i}" for i in range(n - len(shared))],
            shared + [f"b{i}" for i in range(m - len(shared))])


def _pair_text(kill, gen):
    return f"kill={{{','.join(sorted(kill))}}} gen={{{','.join(sorted(gen))}}}"


class TestKillGenBitmasks:
    """The bitmask elements against kill/gen pairs of fact sets."""

    @given(st.data())
    def test_agrees_with_fact_set_pairs(self, data):
        domains = data.draw(two_domains())
        for domain in domains:
            alg = killgen_algebra(domain)
            subsets = st.frozensets(st.sampled_from(domain))
            (k1, g1), (k2, g2) = (data.draw(st.tuples(subsets, subsets))
                                  for _ in range(2))
            x, y = kg(k1, g1), kg(k2, g2)
            assert alg.zero == kg(domain, []) and alg.one == kg([], [])
            assert (x.kill, x.gen) == (k1, g1)
            assert (x == y) == ((k1, g1) == (k2, g2))
            assert pickle.loads(pickle.dumps(x)) == x
            expected = [
                (alg.combine(x, y), k1 & k2, g1 | g2),
                (alg.extend(x, y), k1 | k2, (g1 - k2) | g2),
                (alg.combine(x, x), k1, g1),
                (x, k1, g1),
            ]
            for value, kill, gen in expected:
                assert (value.kill, value.gen) == (kill, gen)
                assert value == kg(sorted(kill, reverse=True), gen)
                assert hash(value) == hash(kg(kill, gen))
                assert alg.render(value) == _pair_text(kill, gen)
                assert alg.parse(alg.render(value)) == value
            facts = data.draw(subsets)
            assert x.apply(facts) == (facts - k1) | g1
            assert alg.extend(x, y).apply(facts) == y.apply(x.apply(facts))
        shared = sorted(set(domains[0]) & set(domains[1]))
        if shared:
            subsets = st.frozensets(st.sampled_from(shared))
            text = _pair_text(data.draw(subsets), data.draw(subsets))
            a, b = (killgen_algebra(d) for d in domains)
            assert a.parse(text) == b.parse(text)
            assert hash(a.parse(text)) == hash(b.parse(text))
            assert a.render(b.parse(text)) == text == b.render(a.parse(text))


class TestMinPlus:
    def test_combine_is_min(self):
        alg = minplus_algebra()
        assert alg.combine(3, 5) == 3

    def test_infinity_absorbs_extend(self):
        alg = minplus_algebra()
        assert alg.extend(INF, 4) == INF

    def test_parse(self):
        alg = minplus_algebra()
        assert alg.parse("inf") == INF
        assert alg.parse("7") == 7
        with pytest.raises(ValueError):
            alg.parse("-1")

    def test_semiring_over_samples(self):
        report = check_laws(minplus_algebra(), samples=MINPLUS_SAMPLES)
        assert report.is_idempotent_semiring
        for law in report.verdicts.values():
            assert law.status == "sampled-only"


class TestBoolean:
    def test_truth_table(self):
        alg = boolean_algebra()
        assert alg.extend(alg.one, alg.one) is True
        assert alg.combine(alg.zero, alg.one) is True

    def test_full_semiring(self):
        report = check_laws(boolean_algebra())
        assert report.classification == "idempotent semiring"
        assert all(v.status == "holds" for v in report.verdicts.values())


class TestTabulated:
    def two_point(self):
        return FiniteLattice(
            ["bot", "top"],
            lambda a, b: "top" if "top" in (a, b) else "bot",
        )

    def test_identity_neutral(self):
        lat = self.two_point()
        const_top = {"bot": "top", "top": "top"}
        alg = tabulated_framework_algebra(lat, [const_top])
        f = alg.parse("[bot->top,top->top]")
        assert alg.extend(alg.one, f) == f
        assert alg.extend(f, alg.one) == f

    def test_bottom_map_neutral_for_combine(self):
        lat = self.two_point()
        alg = tabulated_framework_algebra(lat, [])
        assert alg.combine(alg.zero, alg.one) == alg.one

    def test_composition_with_bottom_map_is_one_sided(self):
        lat = self.two_point()
        const_top = {"bot": "top", "top": "top"}
        alg = tabulated_framework_algebra(lat, [const_top])
        f = alg.parse("[bot->top,top->top]")
        # f then constant-bottom collapses; constant-bottom then f does not
        assert alg.extend(f, alg.zero) == alg.zero
        assert alg.extend(alg.zero, f) == f
        assert alg.extend(alg.zero, f) != alg.zero

    def test_non_monotone_rejected_with_witness(self):
        lat = self.two_point()
        drop = {"bot": "top", "top": "bot"}
        with pytest.raises(NonMonotoneFunctionError) as err:
            tabulated_framework_algebra(lat, [drop])
        assert err.value.witness == ("bot", "top")

    def test_closure_explosion(self):
        lat = powerset_lattice({"a", "b", "c"})
        funcs = [
            (lambda k, g: (lambda l: (l - k) | g))(frozenset(k), frozenset(g))
            for k in (["a"], ["b"], ["c"])
            for g in (["a"], ["b"], ["c"])
        ]
        with pytest.raises(ClosureExplosionError):
            tabulated_framework_algebra(lat, funcs, max_carrier=10)

    def test_agrees_with_killgen_pairs(self):
        """(k, g) -> table of l -> (l \\ k) | g maps the pair domain onto
        the function-table domain, preserving both operations and both
        units.  Unnormalized pairs that denote the same function (such
        as kill={a} gen={a} and kill={} gen={a}) collapse, so the image
        has one table per distinct function: 3^|D| of them, and it is
        exactly the closure."""
        domain = {"a", "b"}
        kga = killgen_algebra(domain)
        lat = powerset_lattice(domain)
        tables = [
            (lambda e: (lambda l: e.apply(l)))(e) for e in kga.elements
        ]
        tab = tabulated_framework_algebra(lat, tables)

        def phi(e):
            return tuple(e.apply(l) for l in lat.elements)

        assert phi(kga.zero) == tab.zero
        assert phi(kga.one) == tab.one
        images = {tab.render(phi(e)) for e in kga.elements}
        assert len(images) == 3 ** len(domain)
        assert images == {tab.render(t) for t in tab.elements}
        for x, y in itertools.product(kga.elements, repeat=2):
            assert phi(kga.combine(x, y)) == tab.combine(phi(x), phi(y))
            assert phi(kga.extend(x, y)) == tab.extend(phi(x), phi(y))


class TestCheckLaws:
    def test_killgen_left_strictness_fails_with_counterexample(self):
        alg = killgen_algebra({"x", "y"})
        report = check_laws(alg)
        verdict = report.verdict("annihilates-left")
        assert verdict.status == "fails"
        (witness,) = verdict.counterexample
        assert witness.gen  # any element with a nonempty gen set breaks it
        out = alg.extend(alg.zero, witness)
        assert out != alg.zero

    def test_killgen_remaining_laws_hold(self):
        report = check_laws(killgen_algebra({"x", "y"}))
        for law in ("annihilates-right", "distributes-left", "distributes-right",
                    "combine-idempotent", "combine-commutative", "one-neutral"):
            assert report.verdict(law).status == "holds"
        assert report.classification == "distributive flow algebra"
        assert not report.is_idempotent_semiring

    def test_left_annihilation_fails_iff_gen_nonempty(self):
        """Exhaustive both directions over every domain up to three facts."""
        for facts in ({"a"}, {"a", "b"}, {"a", "b", "c"}):
            alg = killgen_algebra(facts)
            for e in alg.elements:
                left = alg.extend(alg.zero, e)
                right = alg.extend(e, alg.zero)
                assert right == alg.zero
                assert (left == alg.zero) == (not e.gen)

    def test_abstract_carrier_needs_samples(self):
        with pytest.raises(NoSamplesError):
            check_laws(minplus_algebra())

    def test_sampled_verdicts_marked(self):
        report = check_laws(minplus_algebra(), samples=[0, 3])
        assert report.verdict("combine-idempotent").status == "sampled-only"

    def test_render_table_mentions_failure(self):
        alg = killgen_algebra({"x"})
        text = check_laws(alg).render_table(alg)
        assert "annihilates-left: FAILS" in text
        assert "classification: distributive flow algebra" in text

    def test_tabulated_mirrors_killgen_strictness(self):
        """Composing the constant-bottom map after a function that lifts
        bottom is not constant-bottom, so left strictness fails for the
        function space exactly as it does for the kill/gen pairs."""
        lat = FiniteLattice(
            ["bot", "top"],
            lambda a, b: "top" if "top" in (a, b) else "bot",
        )
        const_top = {"bot": "top", "top": "top"}
        alg = tabulated_framework_algebra(lat, [const_top])
        report = check_laws(alg)
        assert report.verdict("annihilates-right").status == "holds"
        assert report.verdict("annihilates-left").status == "fails"
        assert report.verdict("distributes-left").status == "holds"
        assert report.classification == "distributive flow algebra"


def _contract_domains():
    """(algebra, elements) for every built-in domain: the killgen and
    bool carriers, the tabulated closures the tests use, and minplus
    samples with their sums and minima."""
    domains = [(f"killgen-{n}", killgen_algebra("abc"[:n])) for n in (1, 2, 3)]
    domains.append(("bool", boolean_algebra()))
    two_point = FiniteLattice(
        ["bot", "top"], lambda a, b: "top" if "top" in (a, b) else "bot")
    domains.append(("two-point", tabulated_framework_algebra(
        two_point, [{"bot": "top", "top": "top"}])))
    pairs = killgen_algebra({"a", "b"})
    lat = powerset_lattice({"a", "b"})
    domains.append(("killgen-tables", tabulated_framework_algebra(
        lat, [e.apply for e in pairs.elements])))
    domains.append(("tabulated-a", load_pds("algebra tabulated domain={a}\n").algebra))
    domains.append(("non-distributive", load_pds(NON_DISTRIBUTIVE).algebra))
    domains += [(f"tabulated-{seed}", tabulated_instance(seed)[0].algebra)
                for seed in range(20)]
    cases = [pytest.param(alg, alg.elements, id=name) for name, alg in domains]
    mp = minplus_algebra()
    samples = [0, 1, 2, 5, 17, INF]
    samples += [op(a, b) for a, b in itertools.product(samples, repeat=2)
                for op in (mp.combine, mp.extend)]
    cases.append(pytest.param(mp, samples, id="minplus"))
    return cases


class TestValueContract:
    """Elements are values: ``==`` agrees with equality of rendered
    text, and ``parse`` inverts ``render``."""

    @pytest.mark.parametrize("alg, elements", _contract_domains())
    def test_equality_is_render_equality(self, alg, elements):
        texts = [alg.render(x) for x in elements]
        for (a, ta), (b, tb) in itertools.product(zip(elements, texts), repeat=2):
            assert (a == b) == (ta == tb), (ta, tb)
        assert len(set(elements)) == len(set(texts))
        for a, text in zip(elements, texts):
            assert alg.parse(text) == a
        if alg.name == "tabulated":
            assert texts == sorted(texts)

    def test_lattice_rejects_distinct_elements_with_equal_text(self):
        with pytest.raises(ValueError):
            FiniteLattice([1, "1"], lambda a, b: b)
