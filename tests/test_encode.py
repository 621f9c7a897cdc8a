"""Graph ingestion, the pushdown translation, and the result table.

The expected demo table is computed by hand: each row composes the
kill/gen pairs along every path from the entry configuration to a stack
with that node on top, then joins the contexts.  For example h1 joins
  (via the first call)   ({},{x}) . ({y},{z})           = ({y},{x,z})
  (via the second call)  ({y},{x,z}) . ({x},{y}) . ({y},{z})
                                                        = ({x,y},{z})
to kill={y} gen={x,z}.
"""

import itertools
import sys
from pathlib import Path

import pytest

from pdsflow import (
    Configuration,
    KillGenElement,
    analysis_report,
    encode_icfg,
    load_icfg,
    post_star,
    query,
    render_report,
    solve_least,
)
from pdsflow import encode
from pdsflow.automaton import POST, transition_key
from pdsflow.cli import main, single_config_automaton
from pdsflow.encode import CONTROL_LOCATION, ICFG, IntraEdge, Procedure
from pdsflow.errors import ValidationError
from pdsflow.pds import PushdownSystem

import reference_front_end as reference

FIXTURES = Path(__file__).parent / "fixtures"

SMALL = """
domain {a,b}
proc main entry n0 exit n1
edge n0 -> n1 kill={a} gen={b}
main main
"""

WITH_CALL = """
domain {a}
proc main entry n0 exit n2
call n0 -> sub return n1
edge n1 -> n2 kill={} gen={a}
proc sub entry s0 exit s1
edge s0 -> s1 kill={a} gen={}
main main
"""

# A valid graph whose rules repeat: a second m0 -> m1 edge with other
# facts, a repeated call line, and a procedure that nobody calls whose
# entry has no edge, so only its exit is a stack symbol.
DUPLICATES = """
domain {a,b,c}
proc main entry m0 exit m3
edge m0 -> m1 kill={a} gen={b}
call m1 -> sub return m2
edge m2 -> m3 kill={} gen={}
edge m0 -> m1 kill={b} gen={c}
call m1 -> sub return m2
proc sub entry s0 exit s1
edge s0 -> s1 kill={c} gen={a}
proc idle entry i0 exit i1
main main
"""


def demo():
    return load_icfg((FIXTURES / "demo.icfg").read_text())


def demo_pipeline():
    g = demo()
    pds = encode_icfg(g)
    init = Configuration(CONTROL_LOCATION, ("m0",))
    aut = single_config_automaton(pds, init, POST)
    result = post_star(pds, aut)
    sol = solve_least(result.constraints, pds.algebra)
    return g, pds, result, sol


class TestEncoding:
    def test_single_edge_gives_swap_and_pop(self):
        pds = encode_icfg(load_icfg(SMALL))
        kinds = sorted(len(r.to_word) for r in pds.rules)
        assert kinds == [0, 1]
        swap = next(r for r in pds.rules if len(r.to_word) == 1)
        assert swap.from_sym == "n0" and swap.to_word == ("n1",)
        assert swap.weight.kill == {"a"} and swap.weight.gen == {"b"}
        pop = next(r for r in pds.rules if not r.to_word)
        assert pop.from_sym == "n1"
        assert pop.weight == pds.algebra.one

    def test_call_edge_gives_push(self):
        pds = encode_icfg(load_icfg(WITH_CALL))
        pushes = [r for r in pds.rules if len(r.to_word) == 2]
        assert len(pushes) == 1
        assert pushes[0].from_sym == "n0"
        assert pushes[0].to_word == ("s0", "n1")
        assert pushes[0].weight == pds.algebra.one

    def test_encoding_is_deterministic(self):
        text = (FIXTURES / "demo.icfg").read_text()
        a = encode_icfg(load_icfg(text)).text()
        b = encode_icfg(load_icfg(text)).text()
        assert a == b

    def test_rule_invariants(self):
        pds = encode_icfg(demo())
        assert all(len(r.to_word) <= 2 for r in pds.rules)
        assert all(r.from_sym is not None for r in pds.rules)

    def test_duplicate_rules_merge_as_from_rules_merges_them(self):
        """The system is built from the graph, not through
        ``PushdownSystem.from_rules``, and still gives the rules, their
        order, the locations and the alphabet of the old merge."""
        pds = encode_icfg(load_icfg(DUPLICATES))
        ref = reference.encode_icfg(reference.load_icfg(DUPLICATES))
        assert pds.rules == ref.rules
        assert (pds.locations, pds.alphabet) == (ref.locations, ref.alphabet)
        assert [(r.from_sym, r.to_word) for r in pds.rules] == [
            ("m0", ("m1",)), ("m2", ("m3",)), ("s0", ("s1",)),
            ("m1", ("s0", "m2")), ("m3", ()), ("s1", ()), ("i1", ())]
        assert pds.rules[0].weight == KillGenElement((), {"b", "c"})
        assert pds.alphabet == {"m0", "m1", "m2", "m3", "s0", "s1", "i1"}

    def test_carrier_is_built_only_when_read(self, monkeypatch):
        """The 4^8-element kill/gen carrier of an 8-fact graph is left
        unbuilt by the encoding and enumerated once when first read."""
        calls = []
        combinations = itertools.combinations
        monkeypatch.setattr(itertools, "combinations",
                            lambda *a: calls.append(a) or combinations(*a))
        pds = encode_icfg(load_icfg("""
        domain {f0,f1,f2,f3,f4,f5,f6,f7}
        proc main entry n0 exit n1
        edge n0 -> n1 kill={f0} gen={f7}
        main main
        """))
        assert calls == []
        assert len(pds.algebra.elements) == 4 ** 8
        assert calls == []
        assert len(set(pds.algebra.elements)) == 4 ** 8
        built = len(calls)
        assert built > 0
        assert pds.algebra.elements[0] == pds.algebra.one
        assert len(calls) == built

    def test_validation_collects_all_problems(self):
        bad = """
        domain {a}
        proc main entry n0 exit n1
        edge n0 -> n1 kill={zzz} gen={}
        call n0 -> ghost return n1
        main other
        """
        with pytest.raises(ValidationError) as err:
            load_icfg(bad)
        text = str(err.value)
        assert "zzz" in text
        assert "ghost" in text
        assert "other" in text

    def test_hand_built_graph_is_validated(self):
        edge = IntraEdge("n0", "n1", KillGenElement({"zzz"}, ()))
        with pytest.raises(ValidationError) as err:
            ICFG(frozenset({"a"}), (Procedure("main", "n0", "n1", ("n0", "n1")),),
                 (edge,), (), "other")
        assert err.value.problems == ["edge n0 -> n1 mentions unknown fact zzz",
                                      "main procedure other is not defined"]

    def test_shared_node_name_rejected(self):
        bad = """
        domain {a}
        proc main entry n0 exit n1
        edge n0 -> n1 kill={} gen={}
        proc sub entry n0 exit s1
        edge n0 -> s1 kill={} gen={}
        main main
        """
        with pytest.raises(ValidationError):
            load_icfg(bad)


class TestDemoAnalysis:
    def test_table_matches_hand_computation(self):
        g, pds, result, sol = demo_pipeline()
        table = analysis_report(g, sol, result.automaton)
        rendered = render_report(g, table, pds.algebra)
        expected = (FIXTURES / "demo_analysis_expected.txt").read_text()
        assert rendered == expected

    def test_distinct_calling_contexts(self):
        """The helper entry under the two return addresses carries the
        two different hand-computed path compositions."""
        _, pds, result, sol = demo_pipeline()
        alg = pds.algebra
        first = query(result.automaton, sol,
                      Configuration(CONTROL_LOCATION, ("h0", "m2")))
        second = query(result.automaton, sol,
                       Configuration(CONTROL_LOCATION, ("h0", "m4")))
        assert alg.render(first) == "kill={} gen={x}"
        assert alg.render(second) == "kill={x,y} gen={y,z}"
        assert first != second

    def test_entry_node_weight_is_one(self):
        g, pds, result, sol = demo_pipeline()
        table = analysis_report(g, sol, result.automaton)
        assert table["m0"] == pds.algebra.one

    def test_unreachable_node_reported(self):
        g = load_icfg("""
        domain {a}
        proc main entry n0 exit n1
        edge n0 -> n1 kill={} gen={a}
        proc dead entry d0 exit d1
        edge d0 -> d1 kill={} gen={}
        main main
        """)
        pds = encode_icfg(g)
        init = Configuration(CONTROL_LOCATION, ("n0",))
        aut = single_config_automaton(pds, init, POST)
        result = post_star(pds, aut)
        sol = solve_least(result.constraints, pds.algebra)
        table = analysis_report(g, sol, result.automaton)
        assert table["d0"] is None
        assert table["d1"] is None
        rendered = render_report(g, table, pds.algebra)
        assert "d0: unreachable" in rendered

    def test_backward_direction_report(self):
        """Backward weights to C = {<p, n1>}.  The n1 row joins the
        trivial context (weight one) with stacks like <p: n1 n0> whose
        pending frame still runs the n0 edge, so it picks up gen={b}."""
        from pdsflow import pre_star
        from pdsflow.automaton import PRE

        g = load_icfg(SMALL)
        pds = encode_icfg(g)
        aut = single_config_automaton(pds, Configuration("p", ("n1",)), PRE)
        result = pre_star(pds, aut)
        sol = solve_least(result.constraints, pds.algebra)
        table = analysis_report(g, sol, result.automaton)
        assert pds.algebra.render(table["n0"]) == "kill={a} gen={b}"
        assert pds.algebra.render(table["n1"]) == "kill={} gen={b}"

    def test_reachable_tops_match_interprocedural_walk(self):
        """Under run enumeration the reachable stack tops must equal an
        independently computed matched call/return reachability."""
        g, pds, result, sol = demo_pipeline()
        table = analysis_report(g, sol, result.automaton)
        reached_by_engine = {n for n, v in table.items() if v is not None}

        entries = {p.name: p.entry for p in g.procedures}
        exits = {p.name: p.exit for p in g.procedures}
        owner = {n: p.name for p in g.procedures for n in p.nodes}
        # summary-style walk: a node is reachable if some matched path
        # from main's entry gets there
        reached = set()
        frontier = [entries[g.main]]
        returnable = {}  # procedure -> return nodes waiting on its exit
        while frontier:
            node = frontier.pop()
            if node in reached:
                continue
            reached.add(node)
            for e in g.intra_edges:
                if e.src == node and e.dst not in reached:
                    frontier.append(e.dst)
            for c in g.call_edges:
                if c.src == node:
                    returnable.setdefault(c.callee, set()).add(c.return_node)
                    frontier.append(entries[c.callee])
                    if exits[c.callee] in reached:
                        frontier.append(c.return_node)
            for proc, rets in returnable.items():
                if exits[proc] in reached:
                    frontier.extend(r for r in rets if r not in reached)
        assert reached_by_engine == reached


@pytest.mark.parametrize("direction, node", [("post", "m0"), ("pre", "m5")])
def test_analyze_does_not_redo_earlier_work(monkeypatch, capsys, direction, node):
    """One ``analyze`` builds its system without ``from_rules``, solves
    without sorting, and makes the report without sorting backward and
    with one sort of the saturated transitions forward, where the
    epsilon steps out of ``p`` are read in order.  Counting wrappers
    replace ``transition_key`` in every pdsflow module that holds it,
    and ``from_rules``; nothing is timed."""
    counts: dict = {}  # module -> transition_key calls through its global
    for name, module in list(sys.modules.items()):
        if name.startswith("pdsflow.") and vars(module).get("transition_key") is transition_key:
            def counted(t, name=name):
                counts[name] = counts.get(name, 0) + 1
                return transition_key(t)
            monkeypatch.setattr(module, "transition_key", counted)
    merges = []
    from_rules = PushdownSystem.from_rules
    monkeypatch.setattr(PushdownSystem, "from_rules", classmethod(
        lambda cls, *args: merges.append(args) or from_rules(*args)))
    reports = []  # (transition_key calls inside the report, transitions)
    report = encode.analysis_report

    def counted_report(g, sol, aut):
        before = sum(counts.values())
        table = report(g, sol, aut)
        reports.append((sum(counts.values()) - before, len(aut.transitions)))
        return table

    monkeypatch.setattr(encode, "analysis_report", counted_report)
    assert main(["analyze", "--icfg", str(FIXTURES / "demo.icfg"),
                 "--direction", direction, "--init-config", f"<p: {node}>"]) == 0
    out, err = capsys.readouterr()
    assert "m0: " in out and err == ""
    assert merges == []
    assert counts.get("pdsflow.solver", 0) == 0
    [(calls, transitions)] = reports
    if direction == "pre":
        assert calls == 0
    else:
        assert 0 < calls <= transitions
