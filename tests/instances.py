"""Seeded random systems shared by the oracle and acceptance suites.

Loop-free skeletons rank the stack symbols and only rewrite upward
(every produced symbol ranks strictly above the consumed one) and only
allow forward automaton transitions, so every run of the composite
systems terminates and bounded path enumeration can be exhaustive.
"""

import random

from pdsflow import (
    KillGenElement,
    PushdownSystem,
    Rule,
    Transition,
    boolean_algebra,
    killgen_algebra,
    make_automaton,
    minplus_algebra,
)
from pdsflow.automaton import POST, PRE

FACTS = ("u", "v", "w")


def random_skeleton(rng: random.Random, loop_free: bool = False) -> dict:
    n_loc = rng.randint(2, 3)
    locs = [f"p{i}" for i in range(n_loc)]
    syms = ["a", "b", "c", "d"][: rng.randint(3, 4)]

    shapes = set()
    target = rng.randint(3, 6)
    for _ in range(60):
        if len(shapes) >= target:
            break
        src = rng.choice(locs)
        dst = rng.choice(locs)
        if loop_free:
            gi = rng.randrange(len(syms))
            sym = syms[gi]
            above = syms[gi + 1:]
            kinds = ["pop"] + (["swap", "push"] if above else [])
            kind = rng.choice(kinds)
            if kind == "pop":
                word = ()
            elif kind == "swap":
                word = (rng.choice(above),)
            else:
                word = (rng.choice(above), rng.choice(above))
        else:
            sym = rng.choice(syms)
            # pushes kept rare enough that pop witnesses for stack-4
            # configurations fit the oracle's depth horizon
            kind = rng.choice(["pop", "pop", "swap", "swap", "push"])
            if kind == "pop":
                word = ()
            elif kind == "swap":
                word = (rng.choice(syms),)
            else:
                word = (rng.choice(syms), rng.choice(syms))
        shapes.add((src, sym, dst, word))

    n_extra = rng.randint(1, max(1, 4 - n_loc))
    extras = [f"s{i}" for i in range(n_extra)]
    final = extras[-1]
    trans = {(rng.choice(locs), rng.choice(syms), final)}
    for _ in range(30):
        if len(trans) >= 1 + rng.randint(1, 3):
            break
        if loop_free:
            src = rng.choice(locs + extras[:-1])
            if src in locs:
                dst = rng.choice(extras)
            else:
                later = extras[extras.index(src) + 1:]
                if not later:
                    continue
                dst = rng.choice(later)
        else:
            src = rng.choice(locs + extras)
            dst = rng.choice(extras)
        trans.add((src, rng.choice(syms), dst))

    return {
        "locs": locs,
        "syms": syms,
        "shapes": sorted(shapes),
        "extras": extras,
        "finals": [final],
        "trans": sorted(trans),
    }


def _killgen_weight(rng: random.Random) -> KillGenElement:
    kill = frozenset(rng.sample(FACTS, rng.randint(0, len(FACTS))))
    gen = frozenset(rng.sample(FACTS, rng.randint(0, len(FACTS))))
    return KillGenElement(kill, gen)


def pds_from_skeleton(skel: dict, algebra_kind: str,
                      rng: random.Random) -> PushdownSystem:
    if algebra_kind == "killgen":
        alg = killgen_algebra(FACTS)
        weight = lambda: _killgen_weight(rng)
    elif algebra_kind == "minplus":
        alg = minplus_algebra()
        weight = lambda: rng.randint(0, 5)
    elif algebra_kind == "bool":
        alg = boolean_algebra()
        weight = lambda: True
    else:
        raise ValueError(algebra_kind)
    rules = [
        Rule(src, sym, dst, tuple(word), weight())
        for src, sym, dst, word in skel["shapes"]
    ]
    return PushdownSystem.from_rules(rules, alg)


def automaton_from_skeleton(skel: dict, pds: PushdownSystem,
                            direction: str):
    return make_automaton(
        pds,
        [Transition(src, label, dst) for src, label, dst in skel["trans"]],
        skel["finals"],
        direction,
    )


def instance(seed: int, algebra_kind: str, loop_free: bool = False):
    """One reproducible (system, backward automaton, forward automaton)."""
    rng = random.Random(seed)
    skel = random_skeleton(rng, loop_free=loop_free)
    pds = pds_from_skeleton(skel, algebra_kind, rng)
    return (
        pds,
        automaton_from_skeleton(skel, pds, PRE),
        automaton_from_skeleton(skel, pds, POST),
    )


def recursive_icfg_text(rng: random.Random, facts=("a", "b", "c", "d"),
                        procedures: int = 0) -> str:
    """The recursive ICFG family: procedure Pi is a 9-node chain calling
    P(i+1) at node 1 and P(i+2) at node 4, some procedures also call an
    earlier one at node 6, and some chains skip a node.  There are
    ``procedures`` procedures, or 2 to 7 drawn from ``rng``."""
    n = procedures or rng.randint(2, 7)
    lines = [f"domain {{{','.join(facts)}}}"]

    def fs():
        return ",".join(f for f in facts if rng.random() < 0.3)

    for i in range(n):
        lines.append(f"proc P{i} entry P{i}_0 exit P{i}_8")
        calls = {1: i + 1, 4: i + 2}
        if i and rng.random() < 0.3:
            calls[6] = rng.randrange(i)
        for j in range(8):
            if j in calls and calls[j] < n:
                lines.append(f"call P{i}_{j} -> P{calls[j]} return P{i}_{j + 1}")
            else:
                lines.append(f"edge P{i}_{j} -> P{i}_{j + 1} kill={{{fs()}}} gen={{{fs()}}}")
        if rng.random() < 0.5:
            j = rng.choice([0, 2, 5])
            lines.append(f"edge P{i}_{j} -> P{i}_{j + 2} kill={{{fs()}}} gen={{{fs()}}}")
    lines.append("main P0")
    return "\n".join(lines) + "\n"
