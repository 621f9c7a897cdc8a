"""The benchmark's own checks: its references against the hand-computed
fixture and the program, its run counter against the program's run
enumeration, and its failure modes.

    python3 -m pytest perfbench -q
"""

import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import ref  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, QueryMix  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"


def test_forward_reference_reproduces_hand_computed_demo():
    text = (FIXTURES / "demo.icfg").read_text()
    expected = (FIXTURES / "demo_analysis_expected.txt").read_text()
    assert ref.analyze(text, "post") == expected


def test_backward_reference_on_single_edge():
    # the n1 row joins the empty context with stacks like <p: n1 n0>
    text = ("domain {a,b}\nproc main entry n0 exit n1\n"
            "edge n0 -> n1 kill={a} gen={b}\nmain main\n")
    assert ref.analyze(text, "pre") == "n0: kill={a} gen={b}\nn1: kill={} gen={b}\n"


@pytest.mark.parametrize("direction", ["post", "pre"])
@pytest.mark.parametrize("seed", range(17))
def test_analyze_reference_matches_program(tmp_path, direction, seed):
    rng = random.Random(seed)
    text = gen.baseline_icfg(random.Random(100 + seed), rng, rng.randint(4, 9),
                             gen.fact_names(rng.choice((3, 12))), 0.3)
    path = tmp_path / "g.icfg"
    path.write_text(text)
    node = 0 if direction == "post" else gen.CHAIN - 1
    done = subprocess.run(
        [sys.executable, "-m", "pdsflow.cli", "analyze", "--icfg", str(path),
         "--direction", direction, "--init-config", f"<p: P0_{node}>"],
        capture_output=True, text=True, env={"PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == ref.analyze(text, direction)


@pytest.fixture(scope="module")
def query_mix(tmp_path_factory):
    wl = QueryMix()
    wl.AMBIGUOUS = [2, 3, 4]  # keep the enumeration small here
    wl.generate(7, tmp_path_factory.mktemp("qm"))
    wl.references()
    wl.setup()
    return wl


def test_query_mix_outputs_match_references(query_mix):
    outputs = {i: query_mix.run(i) for i in query_mix.order}
    assert query_mix.check(outputs) == []
    assert "UNREACHABLE" in outputs.values()


def test_query_mix_check_rejects_wrong_answers(query_mix):
    outputs = {i: query_mix.run(i) for i in query_mix.order}
    deep = next(i for i, op in enumerate(query_mix.ops) if op[2] is not None)
    walked = next(i for i, op in enumerate(query_mix.ops)
                  if op[3] is not None and op[4] is None
                  and query_mix.lower[op[3]] is not None)
    outputs[deep] = outputs[walked] = "UNREACHABLE"
    assert sorted(query_mix.check(outputs)) == sorted([deep, walked])


def test_run_counter_equals_run_enumeration(query_mix):
    from pdsflow import accepting_runs

    for i, op in enumerate(query_mix.ops):
        aut = query_mix.solved[op[0]][0]
        runs = accepting_runs(aut, query_mix.configs[i])
        assert query_mix.trace_counts(i)["automaton.runs_per_query"] == len(runs)


def test_tracer_wraps_every_reference_and_restores_them(query_mix):
    import pdsflow
    from pdsflow import automaton, cli

    originals = (pdsflow.query, automaton.query, cli.main)
    tracer = spans.Tracer()
    with tracer.installed():
        assert pdsflow.query.__wrapped__ is originals[0]
        assert automaton.query.__wrapped__ is originals[1]
        assert cli.main.__wrapped__ is originals[2]
        with tracer.span("op", op="op:1"):
            query_mix.run(query_mix.order[0])
    assert (pdsflow.query, automaton.query, cli.main) == originals
    ops = tracer.per_op()
    assert ops["op:1"]["automaton.query"]["calls"] == 1
    assert tracer.spans[1][1] == tracer.spans[0][0]


def test_every_workload_names_its_layers():
    for make in WORKLOADS.values():
        assert set(make().required) <= {name for name, _ in spans.LAYERS.values()}


def test_run_fails_without_package_source(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_measure_stops_when_every_op_fails():
    import run

    class Broken:
        order = [0]

        def run(self, i):
            raise ValueError("broken op")

        def check(self, outputs):
            return []

    with pytest.raises(SystemExit, match="all 110 ops failed"):
        run.measure(Broken(), 0)
