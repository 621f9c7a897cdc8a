"""The one-walk readout against the run-enumerating reference copy.

``query`` must equal the join over ``accepting_runs`` of the weighted
readouts, ``NotAcceptedError`` included, and ``analysis_report`` must
render byte-identically to the round-based reference.
"""

import itertools
import random
import time
from pathlib import Path

import pytest

from pdsflow import (
    Configuration,
    PushdownSystem,
    Rule,
    analysis_report,
    check_laws,
    encode_icfg,
    load_automaton,
    load_icfg,
    load_pds,
    post_star,
    powerset_lattice,
    pre_star,
    query,
    render_report,
    solve_least,
    tabulated_framework_algebra,
)
from pdsflow.automaton import (POST, PRE, Transition, make_automaton,
                               readout_start, then)
from pdsflow.cli import single_config_automaton
from pdsflow.encode import CONTROL_LOCATION
from pdsflow.errors import NotAcceptedError

import reference_readout as reference
from instances import (automaton_from_skeleton, instance, random_skeleton,
                       recursive_icfg_text)

FIXTURES = Path(__file__).parent / "fixtures"


def readout(read, aut, sol, c):
    try:
        return sol.algebra.render(read(aut, sol, c))
    except NotAcceptedError:
        return None


def configs(aut, max_stack):
    """Every configuration from an initial state with a stack of at most
    ``max_stack`` symbols of the automaton's alphabet."""
    alphabet = sorted(aut.alphabet)
    for p in sorted(aut.initials):
        for n in range(max_stack + 1):
            for stack in itertools.product(alphabet, repeat=n):
                yield Configuration(p, stack)


def solved(pds, aut):
    """The saturated automaton and its least solution."""
    result = (pre_star if aut.direction == PRE else post_star)(pds, aut)
    return result.automaton, solve_least(result.constraints, pds.algebra)


def assert_query_matches(pds, aut, max_stack=3):
    """Returns how many of the configurations are accepted."""
    aut, sol = solved(pds, aut)
    accepted = 0
    for c in configs(aut, max_stack):
        expected = readout(reference.query_by_runs, aut, sol, c)
        assert readout(query, aut, sol, c) == expected, c.text()
        accepted += expected is not None
    return accepted


@pytest.mark.parametrize("loop_free", [False, True])
@pytest.mark.parametrize("algebra_kind", ["killgen", "minplus", "bool"])
def test_query_matches_runs_on_seeded_instances(algebra_kind, loop_free):
    accepted = 0
    for seed in range(60):
        pds, aut_pre, aut_post = instance(seed, algebra_kind, loop_free)
        for aut in (aut_pre, aut_post):
            accepted += assert_query_matches(pds, aut)
    assert accepted > 800


TAB_FACTS = ("x", "y")


def random_monotone(rng, lattice):
    """A random monotone map on the powerset of TAB_FACTS, as a table."""
    out = {}
    for s in sorted(lattice.elements, key=len):
        below = frozenset().union(*(out[t] for t in out if t < s))
        out[s] = below | frozenset(f for f in TAB_FACTS if rng.random() < 0.3)
    return out


def tabulated_instance(seed):
    rng = random.Random(seed)
    skel = random_skeleton(rng)
    lattice = powerset_lattice(TAB_FACTS)
    maps = [random_monotone(rng, lattice) for _ in skel["shapes"]]
    alg = tabulated_framework_algebra(lattice, maps)
    rules = [Rule(src, sym, dst, tuple(word), tuple(m[e] for e in lattice.elements))
             for (src, sym, dst, word), m in zip(skel["shapes"], maps)]
    pds = PushdownSystem.from_rules(rules, alg)
    return (pds, automaton_from_skeleton(skel, pds, PRE),
            automaton_from_skeleton(skel, pds, POST))


def collapsed_query(aut, sol, c):
    """A walk that joins the prefix values per state: the path-sum that
    is exact only where extend distributes over combine."""
    alg = sol.algebra
    step = then(aut, alg)
    here = {}
    for q, v in readout_start(aut, sol, c.loc):
        here[q] = alg.combine(here[q], v) if q in here else v
    for sym in c.stack:
        nxt = {}
        for q, v in here.items():
            for t in aut.outgoing(q):
                if t.label == sym:
                    w = step(v, sol.value(t))
                    nxt[t.dst] = alg.combine(nxt[t.dst], w) if t.dst in nxt else w
        here = nxt
    ends = [v for q, v in here.items() if q in aut.finals]
    if not ends:
        raise NotAcceptedError(c.text())
    acc = ends[0]
    for v in ends[1:]:
        acc = alg.combine(acc, v)
    return acc


GX = "[{}->{x},{x}->{x},{y}->{x,y},{x,y}->{x,y}]"
GY = "[{}->{y},{x}->{x,y},{y}->{y},{x,y}->{x,y}]"
ONE = "[{}->{},{x}->{x},{y}->{y},{x,y}->{x,y}]"
H = "[{}->{},{x}->{},{y}->{},{x,y}->{x}]"  # monotone, not join-preserving

NON_DISTRIBUTIVE = f"""algebra tabulated domain={{x,y}}
rule <p, a> -> <q1, eps> weight {GX}
rule <p, a> -> <q2, eps> weight {GY}
rule <q1, b> -> <s, eps> weight {ONE}
rule <q2, b> -> <s, eps> weight {ONE}
rule <s, c> -> <s, eps> weight {H}
"""


def test_query_matches_runs_on_non_distributive_tabulated():
    """Two runs of <p: a b c z> meet at s with the values GX and GY and
    go on through H, which does not distribute over their join; a
    per-state path-sum misreads that configuration, the walk must not.
    Seeded tabulated systems add random monotone weights."""
    pds = load_pds(NON_DISTRIBUTIVE)
    assert check_laws(pds.algebra).verdict("distributes-right").failed
    systems = [(pds, load_automaton("final f\ntrans s z f\n", pds, PRE), None),
               (pds, load_automaton("final f\ntrans p a m1\ntrans m1 b m2\n"
                                    "trans m2 c m3\ntrans m3 z f\n", pds, POST), None)]
    systems += [tabulated_instance(seed) for seed in range(20)]
    accepted = 0
    misread = 0
    for pds, aut_pre, aut_post in systems:
        for aut in (aut_pre, aut_post):
            if aut is None:
                continue
            accepted += assert_query_matches(pds, aut, max_stack=4)
            aut, sol = solved(pds, aut)
            misread += sum(readout(collapsed_query, aut, sol, c)
                           != readout(query, aut, sol, c) for c in configs(aut, 4))
    assert accepted > 500
    assert misread > 0


def ambiguous_system(k):
    rng = random.Random(k)
    facts = ("f0", "f1", "f2", "f3")
    text = f"algebra killgen domain={{{','.join(facts)}}}\n"
    for x, y in itertools.product("pr", repeat=2):
        kill, gen = rng.sample(facts, 2), rng.sample(facts, 2)
        text += (f"rule <{x}, a> -> <{y}, eps> weight "
                 f"kill={{{','.join(sorted(kill))}}} gen={{{','.join(sorted(gen))}}}\n")
    return load_pds(text)


def test_ambiguous_query_matches_two_state_closed_form():
    """<p: a^40 z> has 2^40 accepting runs; kill/gen distributes from the
    left, so D_k(x) = join over y of W(x, y) D_(k-1)(y) is their join."""
    k = 40
    pds = ambiguous_system(k)
    alg = pds.algebra
    aut, sol = solved(pds, load_automaton("final f\ntrans p z f\ntrans r z f\n", pds, PRE))
    w = {(r.from_loc, r.to_loc): r.weight for r in pds.rules}
    d = {"p": alg.one, "r": alg.one}
    for _ in range(k):
        d = {x: alg.combine(alg.extend(w[x, "p"], d["p"]),
                            alg.extend(w[x, "r"], d["r"])) for x in "pr"}
    started = time.perf_counter()
    value = query(aut, sol, Configuration("p", ("a",) * k + ("z",)))
    assert time.perf_counter() - started < 1.0
    assert alg.render(value) == alg.render(d["p"])


def test_deep_stack_query():
    pds = load_pds("algebra minplus\nrule <p, a> -> <p, eps> weight 1\n")
    aut, sol = solved(pds, load_automaton("final f\ntrans p z f\n", pds, PRE))
    started = time.perf_counter()
    value = query(aut, sol, Configuration("p", ("a",) * 10_000 + ("z",)))
    assert time.perf_counter() - started < 1.0
    assert value == 10_000


def seeded_icfg(seed):
    rng = random.Random(seed)
    return load_icfg(recursive_icfg_text(rng)), rng


def assert_report_matches(g, direction, node):
    pds = encode_icfg(g)
    aut, sol = solved(pds, single_config_automaton(
        pds, Configuration(CONTROL_LOCATION, (node,)), direction))
    new = analysis_report(g, sol, aut)
    old = reference.analysis_report(g, direction, sol, aut)
    assert (render_report(g, new, pds.algebra)
            == render_report(g, old, pds.algebra))


@pytest.mark.parametrize("direction, node", [(POST, "m0"), (PRE, "m5"), (PRE, "h1")])
def test_report_matches_reference_on_demo_icfg(direction, node):
    assert_report_matches(load_icfg((FIXTURES / "demo.icfg").read_text()),
                          direction, node)


@pytest.mark.parametrize("direction", [POST, PRE])
def test_report_matches_reference_on_seeded_icfgs(direction):
    for seed in range(40):
        g, rng = seeded_icfg(seed)
        if direction == POST:
            node = "P0_0"
        else:
            node = rng.choice(sorted({n for p in g.procedures for n in p.nodes}))
        assert_report_matches(g, direction, node)


DEAD_BRANCH_ICFG = """\
domain {a,b}
proc main entry m0 exit m3
edge m0 -> m3 kill={} gen={b}
call m1 -> sub return m2
edge m2 -> m3 kill={} gen={}
proc sub entry s0 exit s2
edge s0 -> s1 kill={} gen={a}
edge s1 -> s2 kill={} gen={}
main main
"""


SELF_LOOPS = (Transition("f", "m2", "f"), Transition("dead", "m3", "dead"))


@pytest.mark.parametrize("direction, loops", [
    pytest.param(POST, (), id="post"),
    pytest.param(PRE, (), id="pre"),
    pytest.param(POST, SELF_LOOPS, id="post-self-loops"),
    pytest.param(PRE, SELF_LOOPS, id="pre-self-loops"),
])
def test_report_is_exact_with_a_dead_branch(direction, loops):
    """The automaton accepts <p, m0> and has p -m1-> dead, where dead
    reaches no final state.  Kill/gen ``zero`` does not annihilate from
    the left, so solving per-state constraints for the report instead
    gives m1 kill={a,b} gen={} and m3 kill={} gen={a,b} forward.  With
    ``loops``, the final state and dead each have a self-loop, which the
    report closes over when it visits them; dead still reaches no final
    state, so m1 stays unreachable forward."""
    g = load_icfg(DEAD_BRANCH_ICFG)
    pds = encode_icfg(g)
    aut, sol = solved(pds, make_automaton(
        pds, [Transition("p", "m0", "f"), Transition("p", "m1", "dead"), *loops],
        ["f"], direction, extra_states=["dead"]))
    table = analysis_report(g, sol, aut)
    assert table == reference.analysis_report(g, direction, sol, aut)
    if direction == POST:
        m2 = "kill={} gen={b}" if loops else "unreachable"  # <p: m0 m2> is accepted
        assert render_report(g, table, pds.algebra) == (
            "m0: kill={} gen={}\n"
            "m1: unreachable\n"
            f"m2: {m2}\n"
            "m3: kill={} gen={b}\n"
            "s0: unreachable\n"
            "s1: unreachable\n"
            "s2: unreachable\n")
