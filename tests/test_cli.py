"""Command line behavior: output formats and exit codes."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import pdsflow
from pdsflow.cli import main
from pdsflow.encode import encode_icfg, load_icfg

FIXTURES = Path(__file__).parent / "fixtures"

PDS = str(FIXTURES / "w_pre.pds")
AUT_PRE = str(FIXTURES / "w_pre.aut")
AUT_POST = str(FIXTURES / "w_post.aut")
ICFG = str(FIXTURES / "demo.icfg")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_backward_solution_file(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--pds", PDS, "--automaton", AUT_PRE,
            "--direction", "pre",
        )
        assert code == 0
        assert out == (
            "l(p,a,p) = 2\n"
            "l(p,b,p) = 1\n"
            "l(p,end,q_f) = 0\n"
        )

    def test_forward_solution_file(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--pds", PDS, "--automaton", AUT_POST,
            "--direction", "post",
        )
        assert code == 0
        assert out == (
            "l(p,a,q_f) = 0\n"
            "l(p,b,q_f) = 1\n"
            "l(p,eps,q_f) = 2\n"
        )

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "solution.txt"
        code, out, _ = run(
            capsys, "solve", "--pds", PDS, "--automaton", AUT_PRE,
            "--direction", "pre", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert "l(p,a,p) = 2" in target.read_text()

    def test_iteration_limit_exit_code(self, capsys):
        code, _, err = run(
            capsys, "solve", "--pds", PDS, "--automaton", AUT_PRE,
            "--direction", "pre", "--max-steps", "1",
        )
        assert code == 3
        assert err.startswith("error:")
        assert "\n" not in err.strip()

    @pytest.mark.parametrize("command", ["solve", "query"])
    @pytest.mark.parametrize("steps", ["0", "-5"])
    def test_max_steps_below_one_exit_two(self, capsys, command, steps):
        argv = [command, "--pds", PDS, "--automaton", AUT_PRE,
                "--direction", "pre", "--max-steps", steps]
        if command == "query":
            argv += ["--config", "<p: a end>"]
        assert main(argv) == 2
        assert "--max-steps" in capsys.readouterr().err


class TestQuery:
    def test_weight_printed(self, capsys):
        code, out, _ = run(
            capsys, "query", "--pds", PDS, "--automaton", AUT_PRE,
            "--direction", "pre", "--config", "<p: a end>",
        )
        assert code == 0
        assert out == "2\n"

    def test_empty_stack_forward(self, capsys):
        code, out, _ = run(
            capsys, "query", "--pds", PDS, "--automaton", AUT_POST,
            "--direction", "post", "--config", "<p:>",
        )
        assert code == 0
        assert out == "2\n"

    def test_unreachable_exit_one(self, capsys):
        code, out, _ = run(
            capsys, "query", "--pds", PDS, "--automaton", AUT_PRE,
            "--direction", "pre", "--config", "<p: end end>",
        )
        assert code == 1
        assert out == "UNREACHABLE\n"

    def test_deep_stack_pops_without_recursion(self, capsys, tmp_path):
        pds = tmp_path / "pop.pds"
        pds.write_text("algebra minplus\nrule <p, a> -> <p, eps> weight 1\n")
        aut = tmp_path / "pop.aut"
        aut.write_text("final f\ntrans p z f\n")
        code, out, _ = run(
            capsys, "query", "--pds", str(pds), "--automaton", str(aut),
            "--direction", "pre", "--config", "<p:" + " a" * 1500 + " z>",
        )
        assert code == 0
        assert out == "1500\n"

    def test_unknown_symbol_is_format_error(self, capsys):
        code, _, err = run(
            capsys, "query", "--pds", PDS, "--automaton", AUT_PRE,
            "--direction", "pre", "--config", "<p: zzz end>",
        )
        assert code == 2
        assert err.startswith("error:")

    def test_unknown_location_is_format_error(self, capsys):
        code, _, err = run(
            capsys, "query", "--pds", PDS, "--automaton", AUT_PRE,
            "--direction", "pre", "--config", "<nowhere: a>",
        )
        assert code == 2


class TestSaturate:
    def test_prestar_writes_automaton_and_constraints(self, capsys, tmp_path):
        aut_file = tmp_path / "saturated.aut"
        con_file = tmp_path / "constraints.txt"
        code, out, _ = run(
            capsys, "prestar", "--pds", PDS, "--automaton", AUT_PRE,
            "--out", str(aut_file), "--constraints", str(con_file),
        )
        assert code == 0
        aut_text = aut_file.read_text()
        assert "trans p a p" in aut_text
        assert "trans p b p" in aut_text
        assert "trans p end q_f" in aut_text
        con_text = con_file.read_text()
        assert "1 (x) l(p,b,p) <= l(p,a,p)" in con_text

    def test_poststar_stdout(self, capsys):
        code, out, _ = run(
            capsys, "poststar", "--pds", PDS, "--automaton", AUT_POST,
        )
        assert code == 0
        assert "trans p eps q_f" in out
        assert "l(p,a,q_f) (x) 1 <= l(p,b,q_f)" in out

    def test_byte_identical_across_runs(self, capsys):
        _, first, _ = run(capsys, "prestar", "--pds", PDS, "--automaton", AUT_PRE)
        _, second, _ = run(capsys, "prestar", "--pds", PDS, "--automaton", AUT_PRE)
        assert first == second

    def test_missing_file_is_format_error(self, capsys):
        code, _, err = run(
            capsys, "prestar", "--pds", "nope.pds", "--automaton", AUT_PRE,
        )
        assert code == 2
        assert err.startswith("error:")

    def test_non_utf8_file_is_format_error(self, capsys, tmp_path):
        bad = tmp_path / "latin.pds"
        bad.write_bytes(b"algebra minplus\nrule <p, a> -> <p, eps> weight 1\xff\n")
        code, out, err = run(
            capsys, "query", "--pds", str(bad), "--automaton", AUT_PRE,
            "--direction", "pre", "--config", "<p: a end>",
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read {bad}:")

    def test_parse_error_names_file_and_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.pds"
        bad.write_text("algebra minplus\nrule <p a> -> <p, b> weight 1\n")
        code, _, err = run(
            capsys, "prestar", "--pds", str(bad), "--automaton", AUT_PRE,
        )
        assert code == 2
        assert f"{bad}:2" in err

    def test_error_after_the_last_line_names_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.pds"
        bad.write_text("# a system with no algebra line\n")
        code, out, err = run(
            capsys, "prestar", "--pds", str(bad), "--automaton", AUT_PRE,
        )
        assert (code, out) == (2, "")
        assert err == f"error: {bad}: missing algebra line\n"

    def test_misspelled_algebra_keyword_is_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.pds"
        bad.write_text("algebrax bool\nrule <p, a> -> <p, eps> weight 1\n")
        code, out, err = run(
            capsys, "prestar", "--pds", str(bad), "--automaton", AUT_PRE,
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {bad}:1: unrecognized line: 'algebrax bool'\n"


class TestOracle:
    def test_soundness_report(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--pds", PDS, "--automaton", AUT_PRE,
            "--direction", "pre", "--mode", "soundness", "--depth", "8",
        )
        assert code == 0
        assert "violations=0" in out.splitlines()[-1]

    def test_completeness_report(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--pds", PDS, "--automaton", AUT_POST,
            "--direction", "post", "--mode", "completeness", "--depth", "8",
        )
        assert code == 0
        assert "violations=0" in out.splitlines()[-1]

    def test_violations_exit_four(self, capsys, monkeypatch):
        """A failing report must map to exit code 4; the engine itself
        never produces one, so substitute a canned failure where the
        oracle command imports it from."""
        from pdsflow import Configuration, oracle
        from pdsflow.oracle import OracleReport, OracleViolation

        violation = OracleViolation(Configuration("p", ("a",)), 1, "1", "0")
        failing = OracleReport(checked=1, bound_limited=0, ok_configs=(),
                               violations=(violation,))
        monkeypatch.setattr(oracle, "check_soundness",
                            lambda *a, **k: failing)
        code, out, _ = run(
            capsys, "oracle", "--pds", PDS, "--automaton", AUT_PRE,
            "--direction", "pre", "--mode", "soundness", "--depth", "4",
        )
        assert code == 4
        assert "VIOLATION <p: a> 1 1 0" in out
        assert "violations=1" in out.splitlines()[-1]


class TestCheckAlgebra:
    def test_table(self, capsys, tmp_path):
        kg = tmp_path / "kg.pds"
        kg.write_text(
            "algebra killgen domain={x,y}\n"
            "rule <p, a> -> <p, eps> weight kill={x} gen={y}\n"
        )
        code, out, _ = run(capsys, "check-algebra", "--pds", str(kg))
        assert code == 0
        assert "annihilates-left: FAILS" in out
        assert "annihilates-right: holds" in out
        assert "classification: distributive flow algebra" in out

    def test_minplus_uses_rule_weights_as_samples(self, capsys):
        code, out, _ = run(capsys, "check-algebra", "--pds", PDS)
        assert code == 0
        assert "classification: idempotent semiring" in out
        assert "holds (sampled)" in out


class TestAnalyze:
    def test_demo_table(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--icfg", ICFG, "--direction", "post",
            "--init-config", "<p: m0>",
        )
        assert code == 0
        expected = (FIXTURES / "demo_analysis_expected.txt").read_text()
        assert out == expected

    def test_empty_init_stack_rejected(self, capsys):
        code, _, err = run(
            capsys, "analyze", "--icfg", ICFG, "--direction", "post",
            "--init-config", "<p:>",
        )
        assert code == 2
        assert err.startswith("error:")

    def test_missing_domain_line_names_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.icfg"
        bad.write_text("proc P0 entry a exit b\nedge a -> b kill={} gen={}\nmain P0\n")
        code, out, err = run(
            capsys, "analyze", "--icfg", str(bad), "--init-config", "<p: a>",
        )
        assert (code, out) == (2, "")
        assert err == f"error: {bad}: missing domain line\n"

    def test_main_keyword_is_a_whole_word(self, capsys, tmp_path):
        """``mainframe P0`` is no main line, though it starts with one."""
        bad = tmp_path / "bad.icfg"
        bad.write_text("domain {a}\nproc P0 entry x exit y\n"
                       "edge x -> y kill={} gen={a}\nmainframe P0\n")
        code, out, err = run(
            capsys, "analyze", "--icfg", str(bad), "--init-config", "<p: x>",
        )
        assert (code, out) == (2, "")
        assert err == f"error: {bad}:4: unrecognized line: 'mainframe P0'\n"

    def test_unknown_init_node_rejected(self, capsys):
        code, _, _ = run(
            capsys, "analyze", "--icfg", ICFG, "--direction", "post",
            "--init-config", "<p: nope>",
        )
        assert code == 2


def test_internal_error_exit_five(capsys, monkeypatch):
    """An exception that is not a PdsflowError is a fault in pdsflow, not
    an input error or an unreachable configuration: one line, exit 5."""
    from pdsflow import encode

    def crash(*args, **kwargs):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(encode, "load_icfg", crash)
    code, out, err = run(capsys, "analyze", "--icfg", ICFG,
                         "--init-config", "<p: m0>")
    assert code == 5
    assert out == ""
    assert err == "error: internal error: RuntimeError: injected fault\n"


@pytest.mark.parametrize("argv", [
    ["frobnicate"],
    ["analyze", "--icfg", ICFG, "--init-config", "-> m0>"],
    ["analyze", "--icfg", ICFG, "--init-config", "->"],
])
def test_usage_errors_return_two(capsys, argv):
    """A usage error returns 2 from ``main`` with its message on stderr,
    instead of raising ``SystemExit``; a value that reads as an option,
    given as its own word, is one too."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "error: " in err


def test_help_returns_zero(capsys):
    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: pdsflow")


def test_help_and_usage_errors_match_fixture(capsys, monkeypatch):
    """``--help`` for ``pdsflow`` and each subcommand, and the usage
    errors of ``solve`` and ``query`` without their required options,
    print exactly the recorded text at an 80-column terminal.  Python
    3.13's argparse keeps an option with its metavar when it wraps a
    usage line, so 8 of the 13 texts have their own 3.13 recording."""
    monkeypatch.setenv("COLUMNS", "80")
    name = "cli_usage_py313.json" if sys.version_info >= (3, 13) else "cli_usage.json"
    cases = json.loads((FIXTURES / name).read_text())
    assert len(cases) == 13
    for case in cases:
        assert run(capsys, *case["argv"]) == (case["code"], case["out"], case["err"])


def test_console_exit_codes():
    """Run as a program, the module still exits with main's code."""
    env = dict(os.environ, PYTHONPATH=str(Path(pdsflow.__file__).parents[1]))
    for argv, code in ((["frobnicate"], 2), (["--help"], 0)):
        done = subprocess.run([sys.executable, "-m", "pdsflow.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == code, done.stderr


def _wide_icfg() -> str:
    """A recursive graph over 64 facts: each of 12 six-node procedures
    calls the next at its second node and every third calls P0 at its
    fourth; the other steps kill and gen random facts."""
    rng = random.Random(0)
    names = [f"f{i:02d}" for i in range(64)]
    lines = ["domain {" + ",".join(names) + "}"]
    for i in range(12):
        lines.append(f"proc P{i} entry P{i}_0 exit P{i}_5")
        calls = {1: i + 1} if i < 11 else {}
        if i % 3 == 2:
            calls[3] = 0
        for k in range(5):
            if k in calls:
                lines.append(f"call P{i}_{k} -> P{calls[k]} return P{i}_{k + 1}")
            else:
                kill, gen = ([f for f in names if rng.random() < 0.3]
                             for _ in range(2))
                lines.append(f"edge P{i}_{k} -> P{i}_{k + 1} "
                             f"kill={{{','.join(kill)}}} gen={{{','.join(gen)}}}")
    return "\n".join(lines + ["main P0"]) + "\n"


def test_output_does_not_depend_on_hash_seed(tmp_path):
    """Fact bits follow first-seen order and graph domains are sets, so
    the output must not follow the string hash: analyze both ways on the
    demo and a 64-fact graph, and prestar with its constraints."""
    wide = tmp_path / "wide.icfg"
    wide.write_text(_wide_icfg())
    pds = tmp_path / "wide.pds"
    pds.write_text(encode_icfg(load_icfg(wide.read_text())).text())
    aut = tmp_path / "wide.aut"
    aut.write_text("final f\ntrans p P0_5 f\n")
    argvs = [["analyze", "--icfg", str(icfg), "--direction", d,
              "--init-config", f"<p: {node}>"]
             for icfg, nodes in ((ICFG, ("m0", "m5")), (wide, ("P0_0", "P0_5")))
             for d, node in zip(("post", "pre"), nodes)]
    outputs = []
    for seed in ("0", "1"):
        constraints = tmp_path / f"constraints-{seed}.txt"
        script = ("import json, sys\nfrom pdsflow.cli import main\n"
                  "for argv in json.loads(sys.argv[1]):\n    main(argv)\n")
        runs = argvs + [["prestar", "--pds", str(pds), "--automaton", str(aut),
                         "--constraints", str(constraints)]]
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(Path(pdsflow.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        outputs.append((done.stdout, constraints.read_text()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].count("kill=") > 50


def test_error_texts_do_not_depend_on_hash_seed(tmp_path):
    """An invalid automaton state name and an invalid kill/gen fact name
    are each reported as the same one under every hash seed: the first
    state name in file order, the first fact name in sorted order."""
    aut = tmp_path / "bad.aut"
    aut.write_text("states x-1 y-2 z-3 w-4\nfinal q_f\ntrans p end q_f\n")
    script = ("import sys\nfrom pdsflow import killgen_algebra\n"
              "from pdsflow.cli import main\n"
              "main(['prestar', '--pds', sys.argv[1], '--automaton', sys.argv[2]])\n"
              "try:\n    killgen_algebra(['d-4', 'c-3', 'b-2', 'a-1'])\n"
              "except ValueError as exc:\n    print(exc, file=sys.stderr)\n")
    errors = set()
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(Path(pdsflow.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script, PDS, str(aut)],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        errors.add(done.stderr)
    assert errors == {f"error: {aut}: invalid state name 'x-1'\n"
                      "invalid fact name 'a-1'\n"}
