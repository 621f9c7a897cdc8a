"""Seeded mutation fuzzing of the command line.

Each run takes a seeded system, its automaton and a configuration, or
for ``analyze`` a graph and its initial configuration, mutates one of
them with a few random edits, and runs one subcommand on it.  No
exception may escape ``cli.main``, and every exit code must be in the
0-4 contract: exit 5 is an internal error, a fault in pdsflow.
"""

import contextlib
import io
import random
from pathlib import Path

import pytest

from pdsflow.cli import main
from pdsflow.encode import load_icfg

from instances import instance, recursive_icfg_text
from test_reference_readout import tabulated_instance

# command -> which of its three inputs may be mutated: the system (or
# graph), the automaton and the configuration
INPUTS = {"prestar": (0, 1), "poststar": (0, 1), "solve": (0, 1), "query": (0, 1, 2),
          "check-algebra": (0,), "oracle": (0, 1), "analyze": (0, 2)}
# runs per command; analyze alone reads graphs, so it gets more
RUNS = {command: 100 for command in INPUTS} | {"analyze": 400}
DEMO = (Path(__file__).parent / "fixtures" / "demo.icfg").read_text()
# characters and tokens the input formats give meaning to
CHARS = "<>{}[](),=-:;# \n\tabpqrsuvwxyz019"
TOKENS = ("eps", "inf", "-1", "0", "1", "{}", "{u}", "{x}", "{x,y}", "[]",
          "->", "weight", "rule", "algebra", "domain={u}", "final", "trans",
          "states", "kill={u}", "gen={}", "p0", "s0", "a", "b")
ICFG_TOKENS = ("domain", "proc", "entry", "exit", "edge", "call", "return",
               "main", "->", "kill={}", "gen={x}", "kill={a,b}", "{}", "{x}",
               "m0", "h0", "helper", "P0", "P1", "P0_0", "P1_8", "p")


def seeded_inputs(rng):
    """A (system, automaton, direction) from the seeded families."""
    if rng.random() < 0.25:
        pds, aut_pre, aut_post = tabulated_instance(rng.randrange(40))
    else:
        kind = rng.choice(("killgen", "minplus", "bool"))
        pds, aut_pre, aut_post = instance(rng.randrange(150), kind,
                                          loop_free=rng.random() < 0.5)
    aut = rng.choice((aut_pre, aut_post))
    return pds, aut, aut.direction


def analyze_inputs(rng):
    """A (graph, initial configuration, direction): the demo graph or
    one of the recursive family, from a node of the graph."""
    text = DEMO if rng.random() < 0.25 else recursive_icfg_text(rng)
    node = rng.choice(load_icfg(text).nodes)
    return text, f"<p: {node}>", rng.choice(("pre", "post"))


def config_text(rng, pds):
    symbols = sorted(pds.alphabet) or ["a"]
    stack = " ".join(rng.choice(symbols) for _ in range(rng.randint(0, 3)))
    return f"<{rng.choice(sorted(pds.locations))}: {stack}>"


def mutate(rng, text, tokens=TOKENS):
    """One to three edits: a character or token inserted, deleted or
    replaced, or a line dropped, doubled or moved."""
    for _ in range(rng.randint(1, 3)):
        lines = text.split("\n")
        edit = rng.randrange(6)
        if edit == 0 and text:
            i = rng.randrange(len(text))
            text = text[:i] + text[i + rng.randint(1, 3):]
        elif edit == 1:
            i = rng.randint(0, len(text))
            text = text[:i] + rng.choice(CHARS) + text[i:]
        elif edit == 2:
            words = text.split(" ")
            words[rng.randrange(len(words))] = rng.choice(tokens)
            text = " ".join(words)
        elif edit == 3:
            del lines[rng.randrange(len(lines))]
            text = "\n".join(lines)
        elif edit == 4:
            i = rng.randrange(len(lines))
            lines.insert(i, lines[i])
            text = "\n".join(lines)
        else:
            lines.insert(rng.randint(0, len(lines)), lines.pop(rng.randrange(len(lines))))
            text = "\n".join(lines)
    return text


def argv_for(rng, command, pds_path, aut_path, direction, config):
    if command == "analyze":  # as one word "=" keeps a config such as "->" a value
        config_args = ([f"--init-config={config}"] if rng.random() < 0.5
                       else ["--init-config", config])
        return [command, "--icfg", pds_path, "--direction", direction, *config_args]
    if command == "check-algebra":
        return [command, "--pds", pds_path]
    argv = [command, "--pds", pds_path, "--automaton", aut_path]
    if command in ("solve", "query", "oracle"):
        argv += ["--direction", direction]
    if command == "query":
        argv += ["--config", config]
    if command == "oracle":
        argv += ["--mode", rng.choice(("soundness", "completeness")),
                 "--depth", "6", "--stack", "2"]
    return argv


@pytest.mark.parametrize("command", sorted(INPUTS))
def test_mutated_inputs_keep_the_exit_code_contract(command, tmp_path):
    rng = random.Random(f"cli-fuzz:{command}")
    pds_path, aut_path = str(tmp_path / "in.pds"), str(tmp_path / "in.aut")
    codes = set()
    for run in range(RUNS[command]):
        if command == "analyze":
            graph, config, direction = analyze_inputs(rng)
            texts = [graph, "", config]
        else:
            pds, aut, direction = seeded_inputs(rng)
            texts = [pds.text(), aut.text(), config_text(rng, pds)]
        target = rng.choice(INPUTS[command])
        texts[target] = mutate(rng, texts[target],
                               ICFG_TOKENS if command == "analyze" else TOKENS)
        with open(pds_path, "w", encoding="utf-8") as handle:
            handle.write(texts[0])
        with open(aut_path, "w", encoding="utf-8") as handle:
            handle.write(texts[1])
        argv = argv_for(rng, command, pds_path, aut_path, direction, texts[2])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3, 4), (run, argv, texts, err.getvalue())
        codes.add(code)
    assert 0 in codes and 2 in codes
