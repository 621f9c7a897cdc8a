"""The one-pass .icfg front end against the reference copy of the old one.

A seeded corpus of line-level mutations of ``demo.icfg`` and of
recursive graphs with 2, 4, 9 and 64 facts goes through both front
ends.  Errors must be of the same type, with the same ``ParseError``
text and the same ``ValidationError`` problems (compared sorted, since
the reference lists them in string-hash order).  An accepted graph must
encode to the same rule text and analyze to the same report both ways.
There are two deliberate differences.  A domain fact that is not an
identifier is a ``ParseError`` at the domain line, where the reference
let ``killgen_algebra`` raise ``ValueError`` (or reported the graph's
other problems first).  A line whose first word starts with ``main`` but
is not ``main``, such as ``mainframe P0``, is an unrecognized line, where
the reference read it as a main line.  Every mutant also goes through
``cli.main analyze``: no exception may escape, an accepted graph prints
the reference's report (or exits 2 when its start node is in no rule),
and a rejected one exits 2 with the expected error.
"""

import random
import re
import types
from pathlib import Path

import pytest

from pdsflow import (
    Configuration,
    PushdownSystem,
    analysis_report,
    encode_icfg,
    load_icfg,
    render_report,
    solve_least,
)
from pdsflow import encode
from pdsflow.automaton import POST, PRE
from pdsflow.cli import main, single_config_automaton
from pdsflow.encode import CONTROL_LOCATION
from pdsflow.errors import ParseError, ValidationError
from pdsflow.pds import IDENTIFIER_RE
from pdsflow.saturation import post_star, pre_star

import reference_front_end as reference
from instances import instance, recursive_icfg_text

FIXTURES = Path(__file__).parent / "fixtures"
SOURCE = "mutant.icfg"

# Lines and tokens that mutations splice in: bad syntax, bad names,
# unknown facts and procedures, shared nodes, and whitespace variants.
EXTRA_LINES = (
    "domain {a b,c}", "domain {a,,b}", "domain {}", "domain { }", "domain {,}",
    "domain {x,y}", "domain {a, b ,c}", "domainx {a}", "domain a,b",
    "proc Z entry P0_0 exit z1", "proc main entry m0 exit m9", "proc Q entry q0 exit q0",
    "proc P0 entry P0_0 exit P0_8", "proc bad", "edge P0_0 -> zz kill={} gen={q1}",
    "edge P0_0 -> P1_0 kill={a} gen={}", "edge m0 -> h1 kill={x,x} gen={ y }",
    "edge q0 -> q0 kill={q9,q2,q5} gen={q1}", "edge x", "edges a -> b kill={} gen={}",
    "call P0_0 -> ghost return P0_1", "call m1 -> helper return h2", "call a b",
    "main ghost", "main", "main P0 P1", "mainframe P0", "# comment", "", "bogus line",
)
TOKENS = ("ghost", "P0_0", "P1_3", "m0", "h1", "zz", "a b", "$x", "->", "",
          "kill={}", "gen={}", "kill={q1,q2}", "gen={,}", "kill={a,,b}",
          "gen={ a , b }", "kill={x,y,z}", "gen={f0,f1}", "return", "entry")


def mutate(rng, text):
    lines = text.splitlines()
    for _ in range(rng.choice((1, 1, 2, 3))):
        i = rng.randrange(len(lines))
        op = rng.randrange(6)
        if op == 0 and len(lines) > 1:
            del lines[i]
        elif op == 1:
            lines.insert(rng.randrange(len(lines) + 1), lines[i])
        elif op == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 3:
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(EXTRA_LINES))
        else:
            words = lines[i].split() or [""]
            words[rng.randrange(len(words))] = rng.choice(TOKENS)
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


def bases():
    yield (FIXTURES / "demo.icfg").read_text()
    yield ("domain { x , y,z }\nproc main entry m0 exit m2\n"
           "edge m0 -> m1 kill={ x , x,y } gen={ }\ncall m1 -> main return m2\n"
           "edge m1 -> m2 kill={} gen={z ,y}\nmain main\n")
    for n_facts in (2, 4, 9, 64):
        facts = ("a", "b", "c", "d") if n_facts == 4 else tuple(
            f"f{i}" for i in range(n_facts))
        for seed in range(3):
            yield recursive_icfg_text(random.Random(seed), facts)


def corpus():
    rng = random.Random(20261018)
    for base in bases():
        yield base
        for _ in range(40):
            yield mutate(rng, base)


CORPUS = list(corpus())


def bad_domain_fact(text):
    """(line, fact) for the first non-identifier fact of the last domain
    line, or None."""
    found = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line.startswith("domain") and "{" in line:
            facts = [f.strip() for f in line[line.index("{") + 1:-1].split(",")]
            found = next(((lineno, f) for f in facts if not IDENTIFIER_RE.match(f)), None)
    return found


def misread_main(text):
    """(line, text) of the first line whose first word starts with
    ``main`` but is not ``main``, or None."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        words = line.split()
        if words and words[0] != "main" and words[0].startswith("main"):
            return lineno, line.strip()
    return None


def outcome(load, encode_fn, text, source=SOURCE):
    try:
        g = load(text, source)
        return "ok", g, encode_fn(g)
    except ParseError as exc:
        return "ParseError", str(exc), None
    except ValidationError as exc:
        return "ValidationError", sorted(exc.problems), None
    except ValueError as exc:  # the reference's domain-fact crash
        return "ValueError", str(exc), None


def expected_outcome(text, source=SOURCE):
    kind, value, pds = outcome(reference.load_icfg, reference.encode_icfg, text, source)
    misread = misread_main(text)
    if misread is not None:
        lineno, line = misread
        earlier = kind == "ParseError" and re.match(
            rf"{re.escape(source)}:(\d+): ", value)
        if not (earlier and int(earlier.group(1)) < lineno):
            return "ParseError", f"{source}:{lineno}: unrecognized line: {line!r}", None
    bad = bad_domain_fact(text)
    if kind in ("ValidationError", "ValueError") and bad is not None:
        lineno, fact = bad
        return "ParseError", f"{source}:{lineno}: invalid fact name {fact!r}", None
    return kind, value, pds


def report(g, pds, direction, node):
    aut = single_config_automaton(pds, Configuration(CONTROL_LOCATION, (node,)), direction)
    result = (pre_star if direction == PRE else post_star)(pds, aut)
    sol = solve_least(result.constraints, pds.algebra)
    return render_report(g, analysis_report(g, sol, result.automaton),
                         pds.algebra)


def start_nodes(g):
    """The init nodes of the two analyses: main's entry forward, and the
    middle node backward."""
    entry = next(p.entry for p in g.procedures if p.name == g.main)
    return (POST, entry), (PRE, g.nodes[len(g.nodes) // 2])


def test_corpus_covers_every_outcome():
    kinds = [expected_outcome(text)[0] for text in CORPUS]
    assert set(kinds) == {"ok", "ParseError", "ValidationError"}
    assert min(kinds.count(k) for k in set(kinds)) >= 40
    assert sum(bad_domain_fact(text) is not None
               and "invalid fact name" in expected_outcome(text)[1]
               for text in CORPUS) >= 10


@pytest.mark.parametrize("part", range(4))
def test_front_end_matches_reference(part):
    for text in CORPUS[part::4]:
        kind, value, ref_pds = expected_outcome(text)
        got_kind, got, pds = outcome(load_icfg, encode_icfg, text)
        if kind != "ok":
            assert (got_kind, got) == (kind, value), text
            continue
        assert got_kind == "ok", text
        assert pds.text() == ref_pds.text(), text
        assert (pds.locations, pds.alphabet) == (ref_pds.locations, ref_pds.alphabet)
        ref_nodes = tuple(sorted({n for p in value.procedures for n in p.nodes}))
        assert got.nodes == ref_nodes
        assert [(e.src, e.dst, e.weight.kill, e.weight.gen) for e in got.intra_edges] == [
            (e.src, e.dst, e.kill, e.gen) for e in value.intra_edges]
        ref_g = types.SimpleNamespace(nodes=ref_nodes)
        for direction, node in start_nodes(got):
            assert report(got, pds, direction, node) == report(
                ref_g, ref_pds, direction, node), text


@pytest.mark.parametrize("part", range(4))
def test_cli_analyze_on_corpus(part, tmp_path, capsys):
    """No mutant escapes ``cli.main``: a rejected graph exits 2 with the
    reference's error, an accepted one prints the reference's report."""
    path = tmp_path / SOURCE
    for text in CORPUS[part::4]:
        path.write_text(text)
        kind, value, ref_pds = expected_outcome(text, str(path))
        if kind == "ok":
            ref_g = types.SimpleNamespace(
                nodes=tuple(sorted({n for p in value.procedures for n in p.nodes})))
            runs = start_nodes(load_icfg(text))
        else:
            runs = ((POST, "m0"),)
        for direction, node in runs:
            code = main(["analyze", "--icfg", str(path), "--direction", direction,
                         "--init-config", f"<p: {node}>"])
            out, err = capsys.readouterr()
            if kind == "ok":  # any node of the graph may start the analysis
                assert (code, out, err) == (0, report(ref_g, ref_pds, direction, node), ""), text
            elif kind == "ParseError":
                assert (code, out, err) == (2, "", f"error: {value}\n"), text
            else:
                assert (code, out) == (2, ""), text
                assert sorted(err[len("error: "):-1].split("; ")) == value, text


def test_from_rules_matches_three_pass_merge():
    """Merging duplicates keeps the first rule's place and joins the
    weights; locations and the alphabet are those of the merged rules."""
    for seed in range(60):
        for kind in ("killgen", "minplus", "bool"):
            pds = instance(seed, kind)[0]
            rules = list(pds.rules) * 2
            random.Random(seed).shuffle(rules)
            assert (PushdownSystem.from_rules(rules, pds.algebra)
                    == reference.from_rules(rules, pds.algebra))


def test_validate_runs_once_per_analyze(monkeypatch, capsys):
    calls = []
    validate = encode.validate_icfg
    monkeypatch.setattr(encode, "validate_icfg", lambda g: calls.append(g) or validate(g))
    assert main(["analyze", "--icfg", str(FIXTURES / "demo.icfg"), "--direction",
                 "post", "--init-config", "<p: m0>"]) == 0
    assert capsys.readouterr().out == (FIXTURES / "demo_analysis_expected.txt").read_text()
    assert len(calls) == 1
