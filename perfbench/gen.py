"""Seeded input families for the benchmark.

Only the standard library is used here, so inputs can be generated before
the package under test is imported.  The generators draw from a
``random.Random``; the program receives only the text they produce, in the
package's input formats.
"""

from __future__ import annotations

import random

CHAIN = 9  # nodes per procedure: entry 0, exit CHAIN - 1
RECURSIVE_SHARE = 0.3


def fact_names(n: int) -> list:
    width = len(str(n - 1))
    return [f"f{i:0{width}d}" for i in range(n)]


def _fact_set(rng: random.Random, facts: list, density: float) -> str:
    return ",".join(f for f in facts if rng.random() < density)


def baseline_icfg(shape: random.Random, rng: random.Random, n: int,
                  facts: list, density: float) -> str:
    """The recursive kill/gen family: ``n`` procedures, each a 9-node
    chain.  P<i> calls P<i+1> at node 1 and P<i+2> at node 4; 30% of
    the procedures, drawn from ``shape``, also call an earlier one drawn
    from ``shape`` at node 6, which makes the program recursive.  Every
    other chain step is an intraprocedural edge with kill and gen sets
    drawn from ``rng``."""
    recursive = set(shape.sample(range(1, n), round(RECURSIVE_SHARE * n)))
    lines = ["domain {" + ",".join(facts) + "}"]
    for i in range(n):
        lines.append(f"proc P{i} entry P{i}_0 exit P{i}_{CHAIN - 1}")
        calls = {1: i + 1, 4: i + 2}
        if i in recursive:
            calls[6] = shape.randrange(i)
        for k in range(CHAIN - 1):
            callee = calls.get(k)
            if callee is not None and callee < n:
                lines.append(f"call P{i}_{k} -> P{callee} return P{i}_{k + 1}")
            else:
                lines.append(
                    f"edge P{i}_{k} -> P{i}_{k + 1} "
                    f"kill={{{_fact_set(rng, facts, density)}}} "
                    f"gen={{{_fact_set(rng, facts, density)}}}"
                )
    lines.append("main P0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# query-mix systems
#
# A system is a dict: algebra name, fact list (killgen and tabulated), and
# rules as (from_loc, from_sym, to_loc, to_word, weight literal).  An
# automaton is (finals, transitions); a configuration is (loc, stack).

TAB_FACTS = ["x", "y"]
_TAB_CELLS = [frozenset(), frozenset("x"), frozenset("y"), frozenset("xy")]


def _set_literal(facts) -> str:
    return "{" + ",".join(sorted(facts)) + "}"


def weight_literal(rng: random.Random, algebra: str, facts=None,
                   sized=False) -> str:
    """A random weight; ``sized`` kill/gen weights kill two facts and
    generate two, so their cost does not depend on the seed."""
    if algebra == "minplus":
        return str(rng.randint(0, 5))
    if algebra == "bool":
        return "1"
    if algebra == "killgen":
        if sized:
            kill, gen = rng.sample(facts, 2), rng.sample(facts, 2)
        else:
            kill = [f for f in facts if rng.random() < 0.4]
            gen = [f for f in facts if rng.random() < 0.4]
        return f"kill={_set_literal(kill)} gen={_set_literal(gen)}"
    return _tabulated_literal(_random_monotone(rng))


def _random_monotone(rng: random.Random) -> dict:
    """A random monotone map on the powerset of {x, y}."""
    out = {}
    out[_TAB_CELLS[0]] = frozenset(f for f in TAB_FACTS if rng.random() < 0.3)
    for single in _TAB_CELLS[1:3]:
        extra = frozenset(f for f in TAB_FACTS if rng.random() < 0.4)
        out[single] = out[_TAB_CELLS[0]] | extra
    out[_TAB_CELLS[3]] = out[_TAB_CELLS[1]] | out[_TAB_CELLS[2]] | frozenset(
        f for f in TAB_FACTS if rng.random() < 0.2
    )
    return out


def _tabulated_literal(fn: dict) -> str:
    return "[" + ",".join(f"{_set_literal(k)}->{_set_literal(v)}"
                          for k, v in fn.items()) + "]"


MONOTONE_MAPS = 36  # monotone maps of the 2x2 lattice: 6 per output fact


def _closure_size(maps) -> int:
    """Size of the closure under composition and pointwise join, together
    with the identity and the constant-bottom map."""
    def key(f):
        return tuple(f[c] for c in _TAB_CELLS)

    seen = {key(f): f for f in maps}
    for f in ({c: c for c in _TAB_CELLS}, {c: frozenset() for c in _TAB_CELLS}):
        seen.setdefault(key(f), f)
    work = list(seen.values())
    while work:
        f = work.pop()
        for g in list(seen.values()):
            for h in ({c: g[f[c]] for c in _TAB_CELLS}, {c: f[g[c]] for c in _TAB_CELLS},
                      {c: f[c] | g[c] for c in _TAB_CELLS}):
                if key(h) not in seen:
                    seen[key(h)] = h
                    work.append(h)
    return len(seen)


def pds_text(system: dict) -> str:
    header = f"algebra {system['algebra']}"
    if system["algebra"] in ("killgen", "tabulated"):
        header += " domain=" + _set_literal(system["facts"])
    lines = [header]
    for from_loc, from_sym, to_loc, word, weight in system["rules"]:
        rhs = " ".join(word) if word else "eps"
        lines.append(f"rule <{from_loc}, {from_sym}> -> <{to_loc}, {rhs}> weight {weight}")
    return "\n".join(lines) + "\n"


def automaton_text(finals, transitions) -> str:
    lines = ["final " + " ".join(finals)]
    lines.extend(f"trans {s} {a} {d}" for s, a, d in transitions)
    return "\n".join(lines) + "\n"


def single_config_automaton(config) -> tuple:
    """Finals and transitions accepting exactly ``config``; the chain
    states are named so that they cannot be control locations."""
    loc, stack = config
    states = [loc] + [f"s{i}" for i in range(len(stack))]
    trans = [(states[i], sym, states[i + 1]) for i, sym in enumerate(stack)]
    return [states[-1]], trans


def config_text(config) -> str:
    loc, stack = config
    return f"<{loc}: {' '.join(stack)}>" if stack else f"<{loc}:>"


def deep_system(rng: random.Random, algebra: str, direction: str) -> dict:
    """Closed-form deep stacks.  Backward: pop rules for a and b below a
    z-accepting automaton, so <p: s1..sk z> weighs W(s1)..W(sk).
    Forward: from <p: z>, one push of a over z and a push of a over a,
    so <p: a^k z> weighs W(z) W(a)^(k-1)."""
    facts = fact_names(4) if algebra == "killgen" else None
    def weight():
        return weight_literal(rng, algebra, facts, sized=True)

    if direction == "pre":
        rules = [("p", s, "p", (), weight()) for s in "ab"]
    else:
        rules = [("p", "z", "p", ("a", "z"), weight()),
                 ("p", "a", "p", ("a", "a"), weight())]
    return {"algebra": algebra, "facts": facts, "rules": rules}


def ambiguous_system(rng: random.Random, algebra: str) -> dict:
    """Two control locations p, r that each pop a to either one, above a
    z-accepting automaton from both: <p: a^k z> has 2^k accepting runs."""
    facts = fact_names(4) if algebra == "killgen" else None
    rules = [(x, "a", y, (), weight_literal(rng, algebra, facts, sized=True))
             for x in "pr" for y in "pr"]
    return {"algebra": algebra, "facts": facts, "rules": rules}


def random_system(rng: random.Random, algebra: str) -> dict:
    """A small random system in the style of the seeded test instances:
    two or three locations, four symbols, pop, swap and push rules."""
    facts = TAB_FACTS if algebra == "tabulated" else (
        fact_names(3) if algebra == "killgen" else None)
    locs = [f"q{i}" for i in range(rng.randint(2, 3))]
    syms = list("abcd")
    shapes = set()
    target = rng.randint(5, 7)
    while len(shapes) < target:
        kind = rng.choice(("pop", "swap", "swap", "push"))
        word = {"pop": (), "swap": (rng.choice(syms),),
                "push": (rng.choice(syms), rng.choice(syms))}[kind]
        shapes.add((rng.choice(locs), rng.choice(syms), rng.choice(locs), word))
    shapes = sorted(shapes)
    if algebra != "tabulated":
        rules = [s + (weight_literal(rng, algebra, facts),) for s in shapes]
        return {"algebra": algebra, "facts": facts, "rules": rules}
    # Tabulated weights are redrawn until they generate every monotone
    # map, so that loading closes the same carrier on every seed.
    while True:
        maps = [_random_monotone(rng) for _ in shapes]
        if _closure_size(maps) == MONOTONE_MAPS:
            break
    rules = [s + (_tabulated_literal(m),) for s, m in zip(shapes, maps)]
    return {"algebra": algebra, "facts": facts, "rules": rules}


def step(rules, config) -> list:
    """One-step successors of a configuration: (rule index, successor)."""
    loc, stack = config
    return [
        (i, (to_loc, tuple(word) + stack[1:]))
        for i, (from_loc, from_sym, to_loc, word, _) in enumerate(rules)
        if from_loc == loc and stack and stack[0] == from_sym
    ]


def random_walk_end(rng: random.Random, rules, config, length: int):
    """Where a seeded random walk of at most ``length`` steps stops."""
    for _ in range(length):
        moves = step(rules, config)
        nonempty = [m for m in moves if m[1][1]]
        if not nonempty:
            break
        config = rng.choice(nonempty)[1]
    return config
