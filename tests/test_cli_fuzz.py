"""Seeded mutation fuzzing of the command line.

Each run takes a seeded system, its automaton and a configuration,
mutates one of the three with a few random edits, and runs one
subcommand on it.  No exception may escape ``cli.main``, and every exit
code must be in the 0-4 contract: exit 5 is an internal error, a fault
in pdsflow.
"""

import contextlib
import io
import random

import pytest

from pdsflow.cli import main

from instances import instance
from test_reference_readout import tabulated_instance

# command -> how many of the system, automaton and configuration it reads
INPUTS = {"prestar": 2, "poststar": 2, "solve": 2, "query": 3, "check-algebra": 1,
          "oracle": 2}
RUNS = 600
# characters and tokens the input formats give meaning to
CHARS = "<>{}[](),=-:;# \n\tabpqrsuvwxyz019"
TOKENS = ("eps", "inf", "-1", "0", "1", "{}", "{u}", "{x}", "{x,y}", "[]",
          "->", "weight", "rule", "algebra", "domain={u}", "final", "trans",
          "states", "kill={u}", "gen={}", "p0", "s0", "a", "b")


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


def config_text(rng, pds):
    symbols = sorted(pds.alphabet) or ["a"]
    stack = " ".join(rng.choice(symbols) for _ in range(rng.randint(0, 3)))
    return f"<{rng.choice(sorted(pds.locations))}: {stack}>"


def mutate(rng, text):
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
            words[rng.randrange(len(words))] = rng.choice(TOKENS)
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
    for run in range(RUNS // len(INPUTS)):
        pds, aut, direction = seeded_inputs(rng)
        texts = [pds.text(), aut.text(), config_text(rng, pds)]
        target = rng.randrange(INPUTS[command])
        texts[target] = mutate(rng, texts[target])
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
