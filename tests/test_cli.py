"""Command line behavior: output formats and exit codes."""

from pathlib import Path

from pdsflow.cli import main

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

    def test_parse_error_names_file_and_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.pds"
        bad.write_text("algebra minplus\nrule <p a> -> <p, b> weight 1\n")
        code, _, err = run(
            capsys, "prestar", "--pds", str(bad), "--automaton", AUT_PRE,
        )
        assert code == 2
        assert f"{bad}:2" in err


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
        never produces one, so substitute a canned failure."""
        from pdsflow import Configuration, cli
        from pdsflow.oracle import OracleReport, OracleViolation

        failing = OracleReport(checked=1)
        failing.violations.append(OracleViolation(
            Configuration("p", ("a",)), 1, "1", "0",
        ))
        monkeypatch.setattr(cli, "check_soundness",
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

    def test_unknown_init_node_rejected(self, capsys):
        code, _, _ = run(
            capsys, "analyze", "--icfg", ICFG, "--direction", "post",
            "--init-config", "<p: nope>",
        )
        assert code == 2
