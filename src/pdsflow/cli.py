"""Command line front end.

Exit codes are part of the contract: 0 success, 1 query of a
non-accepted configuration, 2 input or format errors, 3 iteration
limit exceeded, 4 oracle violations found.
"""

from __future__ import annotations

import argparse
import sys

from .algebra import check_laws
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
from .encode import (
    CONTROL_LOCATION,
    analysis_report,
    encode_icfg,
    load_icfg,
    render_report,
)
from .errors import (
    IterationLimitExceededError,
    NotAcceptedError,
    ParseError,
    PdsflowError,
    UnknownLocationError,
)
from .oracle import check_completeness, check_soundness
from .pds import Configuration, load_pds, parse_config_text
from .saturation import post_star, pre_star, render_constraints
from .solver import SolverConfig, solve_least

EXIT_OK = 0
EXIT_UNREACHABLE = 1
EXIT_FORMAT = 2
EXIT_ITERATION_LIMIT = 3
EXIT_VIOLATIONS = 4


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc


def _write(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _load_inputs(args, direction: str):
    pds = load_pds(_read(args.pds), source=args.pds)
    aut = load_automaton(_read(args.automaton), pds, direction,
                         source=args.automaton)
    return pds, aut


def _saturate(pds, aut):
    return pre_star(pds, aut) if aut.direction == PRE else post_star(pds, aut)


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


def _cmd_saturate(args, direction: str) -> int:
    pds, aut = _load_inputs(args, direction)
    result = _saturate(pds, aut)
    _write(args.out, result.automaton.text())
    _write(args.constraints, render_constraints(result, pds.algebra))
    return EXIT_OK


def _cmd_solve(args) -> int:
    pds, aut = _load_inputs(args, args.direction)
    result = _saturate(pds, aut)
    config = SolverConfig(max_applications=args.max_steps)
    sol = solve_least(result.constraints, pds.algebra, config)
    _write(args.out, sol.text())
    return EXIT_OK


def _cmd_query(args) -> int:
    pds, aut = _load_inputs(args, args.direction)
    c = _parse_config(args.config, pds.locations, aut.alphabet)
    result = _saturate(pds, aut)
    config = SolverConfig(max_applications=args.max_steps)
    sol = solve_least(result.constraints, pds.algebra, config)
    try:
        value = query(result.automaton, sol, c)
    except (NotAcceptedError, UnknownLocationError):
        print("UNREACHABLE")
        return EXIT_UNREACHABLE
    print(pds.algebra.render(value))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    pds, aut = _load_inputs(args, args.direction)
    result = _saturate(pds, aut)
    sol = solve_least(result.constraints, pds.algebra)
    kwargs = dict(depth_bound=args.depth, config_stack_bound=args.stack)
    if args.mode == "soundness":
        report = check_soundness(pds, result, sol, **kwargs)
    else:
        samples = [r.weight for r in pds.rules]
        report = check_completeness(pds, result, sol, samples=samples, **kwargs)
    sys.stdout.write(report.text())
    return EXIT_OK if report.passed else EXIT_VIOLATIONS


def _cmd_check_algebra(args) -> int:
    pds = load_pds(_read(args.pds), source=args.pds)
    samples = [r.weight for r in pds.rules]
    report = check_laws(pds.algebra, samples=samples)
    print(report.render_table(pds.algebra))
    return EXIT_OK


def _cmd_analyze(args) -> int:
    g = load_icfg(_read(args.icfg), source=args.icfg)
    pds = encode_icfg(g)
    c = _parse_config(args.init_config, pds.locations, pds.alphabet)
    if c.loc != CONTROL_LOCATION:
        raise ParseError(
            f"encoded systems use the single control location "
            f"{CONTROL_LOCATION!r}"
        )
    aut = single_config_automaton(pds, c, args.direction)
    result = _saturate(pds, aut)
    sol = solve_least(result.constraints, pds.algebra)
    table = analysis_report(g, args.direction, sol, result.automaton)
    sys.stdout.write(render_report(g, table, pds.algebra))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdsflow",
        description="Weighted pushdown reachability with pluggable weight domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, direction in (("prestar", PRE), ("poststar", POST)):
        p = sub.add_parser(name, help=f"saturate in the {direction} direction")
        p.add_argument("--pds", required=True)
        p.add_argument("--automaton", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--constraints", default=None)
        p.set_defaults(func=lambda a, d=direction: _cmd_saturate(a, d))

    p = sub.add_parser("solve", help="saturate and solve the constraints")
    p.add_argument("--pds", required=True)
    p.add_argument("--automaton", required=True)
    p.add_argument("--direction", choices=(PRE, POST), required=True)
    p.add_argument("--max-steps", type=int, default=1_000_000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("query", help="weight of one configuration")
    p.add_argument("--pds", required=True)
    p.add_argument("--automaton", required=True)
    p.add_argument("--direction", choices=(PRE, POST), required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--max-steps", type=int, default=1_000_000)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("oracle", help="brute-force check of the results")
    p.add_argument("--pds", required=True)
    p.add_argument("--automaton", required=True)
    p.add_argument("--direction", choices=(PRE, POST), required=True)
    p.add_argument("--mode", choices=("soundness", "completeness"), required=True)
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--stack", type=int, default=4)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IterationLimitExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ITERATION_LIMIT
    except PdsflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
