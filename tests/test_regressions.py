"""Inputs that once escaped as uncaught Python exceptions, gave output
that depended on the string hash, or were wrongly rejected."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdsflow
from pdsflow import (
    Configuration,
    Transition,
    load_automaton,
    load_pds,
    pre_star,
    query,
    solve_least,
)
from pdsflow.automaton import PRE
from pdsflow.cli import main

from reference_oracle import transition_witness
from test_cli import AUT_PRE, PDS, run
from test_reference_readout import tabulated_instance


def test_bool_weight_other_than_zero_or_one_is_format_error(capsys, tmp_path):
    pds = tmp_path / "bad.pds"
    pds.write_text("algebra bool\nrule <p, a> -> <p, eps> weight 2\n")
    code, _, err = run(
        capsys, "query", "--pds", str(pds), "--automaton", AUT_PRE,
        "--direction", "pre", "--config", "<p: a end>",
    )
    assert code == 2
    assert err.startswith("error:")
    assert f"{pds}:2" in err


@pytest.mark.parametrize("flag, value", [("--depth", "0"), ("--stack", "-1")])
def test_oracle_bounds_out_of_range_exit_two(capsys, flag, value):
    assert main(["oracle", "--pds", PDS, "--automaton", AUT_PRE,
                 "--direction", "pre", "--mode", "soundness", flag, value]) == 2
    assert flag in capsys.readouterr().err


def test_witness_of_a_long_swap_chain():
    """<p, a_i> -> <p, a_(i+1)> for i < 1500 derives l(p, a_0, f) in
    1500 steps, deeper than the interpreter's recursion limit."""
    n = 1500
    pds = load_pds("algebra minplus\n" + "".join(
        f"rule <p, a{i}> -> <p, a{i + 1}> weight 1\n" for i in range(n)))
    aut = load_automaton(f"final f\ntrans p a{n} f\n", pds, PRE)
    result = pre_star(pds, aut)
    sol = solve_least(result.constraints, pds.algebra)
    assert query(result.automaton, sol, Configuration("p", ("a0",))) == n
    witness = transition_witness(result, pds, Transition("p", "a0", "f"))
    assert [r.from_sym for r in witness] == [f"a{i}" for i in range(n + 1)]
    assert list(witness[:n]) == sorted(pds.rules, key=lambda r: int(r.from_sym[1:]))
    assert (witness[n].to_loc, witness[n].to_word) == ("f", ())


def test_non_monotone_tabulated_weight_names_its_line(capsys, tmp_path):
    pds = tmp_path / "nonmono.pds"
    pds.write_text(
        "algebra tabulated domain={a,b}\n"
        "rule <p, a> -> <p, eps> weight [{}->{a},{a}->{},{b}->{b},{a,b}->{a,b}]\n"
    )
    aut = tmp_path / "nonmono.aut"
    aut.write_text("final f\ntrans p z f\n")
    code, out, err = run(
        capsys, "query", "--pds", str(pds), "--automaton", str(aut),
        "--direction", "pre", "--config", "<p: a z>",
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {pds}:2: function [")
    assert "is not monotone: {} <= {a}" in err


@pytest.mark.parametrize("domain, fact", [("{a b,c}", "a b"), ("{a,,b}", "")])
def test_icfg_domain_fact_that_is_not_an_identifier_is_format_error(
        capsys, tmp_path, domain, fact):
    icfg = tmp_path / "bad.icfg"
    icfg.write_text(f"# facts\ndomain {domain}\nproc P entry x exit y\n"
                    f"edge x -> y kill={{}} gen={{}}\nmain P\n")
    code, out, err = run(capsys, "analyze", "--icfg", str(icfg),
                         "--direction", "post", "--init-config", "<p: x>")
    assert (code, out) == (2, "")
    assert err == f"error: {icfg}:2: invalid fact name {fact!r}\n"


def test_icfg_validation_problems_do_not_depend_on_hash_seed(tmp_path):
    """Node conflicts come in file order and unknown facts by name."""
    icfg = tmp_path / "conflict.icfg"
    icfg.write_text("domain {a,b}\nproc P entry x exit y\n"
                    "edge x -> y kill={q1,q2,q3} gen={q4}\n"
                    "proc Q entry x exit y\nmain P\n")
    argv = ["analyze", "--icfg", str(icfg), "--direction", "post",
            "--init-config", "<p: x>"]
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(Path(pdsflow.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from pdsflow.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *argv],
            env=env, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (
            "error: node x appears in procedures P and Q; "
            "node y appears in procedures P and Q; "
            + "; ".join(f"edge x -> y mentions unknown fact q{i}" for i in (1, 2, 3, 4))
            + "\n")


@pytest.mark.parametrize("direction, report", [
    ("post", "x: kill={} gen={}\ny: unreachable\nz: unreachable\n"),
    # the exit's pop rule takes any stack below it, so y and z are reached
    ("pre", "x: kill={} gen={}\ny: kill={} gen={a}\nz: kill={} gen={a}\n"),
], ids=["post", "pre"])
def test_analyze_from_a_node_that_no_rule_mentions(capsys, tmp_path,
                                                   direction, report):
    """The initial stack is checked against the graph's nodes, not against
    the symbols of the encoded rules, which leave out the entry x here."""
    icfg = tmp_path / "island.icfg"
    icfg.write_text("domain {a}\nproc P entry x exit y\n"
                    "edge z -> y kill={} gen={a}\nmain P\n")
    args = ["analyze", "--icfg", str(icfg), "--direction", direction]
    assert run(capsys, *args, "--init-config", "<p: x>") == (0, report, "")
    assert run(capsys, *args, "--init-config", "<p: w>") == (
        2, "", "error: unknown stack symbol 'w'\n")


def test_tabulated_system_text_reads_back(capsys, tmp_path):
    """A tabulated system built in Python names its domain in the header,
    so its text loads back to the same rules and the commands accept it."""
    for seed in range(40):
        pds, aut_pre, aut_post = tabulated_instance(seed)
        text = pds.text()
        assert text.startswith("algebra tabulated domain={")
        assert load_pds(text).rules == pds.rules
        files = {}
        for name, content in (("pds", text), ("pre", aut_pre.text()),
                              ("post", aut_post.text())):
            files[name] = tmp_path / f"{seed}.{name}"
            files[name].write_text(content)
        code, _, err = run(capsys, "prestar", "--pds", str(files["pds"]),
                           "--automaton", str(files["pre"]))
        assert (code, err) == (0, ""), seed
        code, _, err = run(capsys, "solve", "--pds", str(files["pds"]),
                           "--automaton", str(files["post"]),
                           "--direction", "post")
        assert (code, err) == (0, ""), seed


def test_outgoing_cannot_change_the_readout():
    """``outgoing`` hands out the automaton's own index entries, so they
    are tuples: a caller cannot clear one and change later queries."""
    pds = load_pds(Path(PDS).read_text())
    result = pre_star(pds, load_automaton(Path(AUT_PRE).read_text(), pds, PRE))
    sol = solve_least(result.constraints, pds.algebra)
    out = result.automaton.outgoing("p")
    assert isinstance(out, tuple) and out
    with pytest.raises(AttributeError):
        out.clear()
    assert result.automaton.outgoing("nowhere") == ()
    assert query(result.automaton, sol, Configuration("p", ("a", "end"))) == 2
