"""Command line front end.

Exit codes are part of the contract: 0 success, 1 query of a
non-accepted configuration, 2 input or format errors, 3 iteration
limit exceeded, 4 oracle violations found, 5 internal error (an
exception that is not a ``PdsflowError``: a fault in pdsflow).

The oracle, the law checker and the graph front end are imported by
the commands that use them, so that the other commands never load them.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys

from .automaton import (
    POST,
    PRE,
    PAutomaton,
    Transition,
    load_automaton,
    make_automaton,
    query,
    validate_input_automaton,
)
from .errors import (
    IterationLimitExceededError,
    NotAcceptedError,
    ParseError,
    PdsflowError,
    UnknownLocationError,
)
from .pds import Configuration, load_pds, parse_config_text
from .saturation import post_star, pre_star, render_constraints
from .solver import SolverConfig, solve_least

EXIT_OK = 0
EXIT_UNREACHABLE = 1
EXIT_FORMAT = 2
EXIT_ITERATION_LIMIT = 3
EXIT_VIOLATIONS = 4
EXIT_INTERNAL = 5


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"cannot read {path}: not UTF-8 text (byte {exc.start})"
        ) from exc


def _write(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _load_inputs(args):
    pds = load_pds(_read(args.pds), source=args.pds)
    aut = load_automaton(_read(args.automaton), pds, args.direction,
                         source=args.automaton)
    return pds, aut


def _saturate(pds, aut):
    return pre_star(pds, aut) if aut.direction == PRE else post_star(pds, aut)


def _solve(pds, aut, max_steps: int = 1_000_000):
    """Saturate, then solve the constraints: ``(result, solution)``."""
    result = _saturate(pds, aut)
    config = SolverConfig(max_applications=max_steps)
    return result, solve_least(result.constraints, pds.algebra, config)


def _parse_config(text: str, locations, alphabet) -> Configuration:
    c = parse_config_text(text)
    if c.loc not in locations:
        raise ParseError(f"unknown control location {c.loc!r}")
    for sym in c.stack:
        if sym not in alphabet:
            raise ParseError(f"unknown stack symbol {sym!r}")
    return c


def single_config_automaton(pds, c: Configuration, direction: str) -> PAutomaton:
    """An automaton accepting exactly one configuration; the chain states
    use ':' so they cannot collide with user identifiers."""
    if not c.stack:
        raise ParseError(
            "the initial configuration must have a nonempty stack "
            "(initial and final states may not overlap)"
        )
    transitions = []
    prev = c.loc
    for i, sym in enumerate(c.stack):
        nxt = f"acc:{i}"
        transitions.append(Transition(prev, sym, nxt))
        prev = nxt
    aut = make_automaton(pds, transitions, [prev], direction)
    validate_input_automaton(aut)
    return aut


def _cmd_saturate(args) -> int:
    pds, aut = _load_inputs(args)
    result = _saturate(pds, aut)
    _write(args.out, result.automaton.text())
    _write(args.constraints, render_constraints(result, pds.algebra))
    return EXIT_OK


def _cmd_solve(args) -> int:
    pds, aut = _load_inputs(args)
    _, sol = _solve(pds, aut, args.max_steps)
    _write(args.out, sol.text())
    return EXIT_OK


def _cmd_query(args) -> int:
    pds, aut = _load_inputs(args)
    c = _parse_config(args.config, pds.locations, aut.alphabet)
    result, sol = _solve(pds, aut, args.max_steps)
    try:
        value = query(result.automaton, sol, c)
    except (NotAcceptedError, UnknownLocationError):
        print("UNREACHABLE")
        return EXIT_UNREACHABLE
    print(pds.algebra.render(value))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    from .oracle import check_completeness, check_soundness

    pds, aut = _load_inputs(args)
    result, sol = _solve(pds, aut)
    kwargs = dict(depth_bound=args.depth, config_stack_bound=args.stack)
    if args.mode == "soundness":
        report = check_soundness(pds, result, sol, **kwargs)
    else:
        samples = [r.weight for r in pds.rules]
        report = check_completeness(pds, result, sol, samples=samples, **kwargs)
    sys.stdout.write(report.text())
    return EXIT_OK if report.passed else EXIT_VIOLATIONS


def _cmd_check_algebra(args) -> int:
    from .laws import check_laws

    pds = load_pds(_read(args.pds), source=args.pds)
    samples = [r.weight for r in pds.rules]
    report = check_laws(pds.algebra, samples=samples)
    print(report.render_table(pds.algebra))
    return EXIT_OK


def _cmd_analyze(args) -> int:
    from .encode import analysis_report, encode_icfg, load_icfg, render_report

    g = load_icfg(_read(args.icfg), source=args.icfg)
    pds = encode_icfg(g)
    c = _parse_config(args.init_config, pds.locations, g.nodes)
    aut = single_config_automaton(pds, c, args.direction)
    result, sol = _solve(pds, aut)
    table = analysis_report(g, sol, result.automaton)
    sys.stdout.write(render_report(g, table, pds.algebra))
    return EXIT_OK


def _at_least(low: int):
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdsflow",
        description="Weighted pushdown reachability with pluggable weight domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--pds", required=True)
    inputs.add_argument("--automaton", required=True)
    directed = argparse.ArgumentParser(add_help=False, parents=[inputs])
    directed.add_argument("--direction", choices=(PRE, POST), required=True)

    for name, direction in (("prestar", PRE), ("poststar", POST)):
        p = sub.add_parser(name, parents=[inputs],
                           help=f"saturate in the {direction} direction")
        p.add_argument("--out", default=None)
        p.add_argument("--constraints", default=None)
        p.set_defaults(func=_cmd_saturate, direction=direction)

    p = sub.add_parser("solve", parents=[directed],
                       help="saturate and solve the constraints")
    p.add_argument("--max-steps", type=_at_least(1), default=1_000_000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("query", parents=[directed],
                       help="weight of one configuration")
    p.add_argument("--config", required=True)
    p.add_argument("--max-steps", type=_at_least(1), default=1_000_000)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("oracle", parents=[directed],
                       help="brute-force check of the results")
    p.add_argument("--mode", choices=("soundness", "completeness"), required=True)
    p.add_argument("--depth", type=_at_least(1), default=12)
    p.add_argument("--stack", type=_at_least(0), default=4)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("check-algebra", help="law table for the system's algebra")
    p.add_argument("--pds", required=True)
    p.set_defaults(func=_cmd_check_algebra)

    p = sub.add_parser("analyze", help="per-node table for a kill/gen graph")
    p.add_argument("--icfg", required=True)
    p.add_argument("--direction", choices=(PRE, POST), default=POST)
    p.add_argument("--init-config", required=True)
    p.set_defaults(func=_cmd_analyze)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command and return its exit code, argparse's on a usage error.

    The cyclic garbage collector is paused while the command runs: the
    pipeline builds acyclic records, which reference counting frees, and
    the process is the command's.  It is enabled again afterwards only if
    it was enabled on entry."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except IterationLimitExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ITERATION_LIMIT
    except PdsflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
