"""Independent references for every benchmark output.

Nothing here imports the package under test.  The analyses are computed
by the summary-based (Sharir-Pnueli) join over valid paths directly on
the graph; the query families have closed forms or are checked by
duality and by a bounded walk over configurations.
"""

from __future__ import annotations

import re

from gen import step

# ---------------------------------------------------------------------------
# weight domains, on their text forms as the package prints them

INF = float("inf")


class KillGen:
    """Kill/gen pairs as (kill, gen) bitmasks over the sorted facts."""

    def __init__(self, facts):
        self.facts = sorted(facts)
        self.bit = {f: 1 << i for i, f in enumerate(self.facts)}
        self.one = (0, 0)
        self.zero = ((1 << len(self.facts)) - 1, 0)

    @staticmethod
    def combine(a, b):
        return (a[0] & b[0], a[1] | b[1])

    @staticmethod
    def extend(a, b):
        return (a[0] | b[0], (a[1] & ~b[0]) | b[1])

    def mask(self, names) -> int:
        m = 0
        for name in names:
            m |= self.bit[name]
        return m

    def names(self, mask: int) -> str:
        return ",".join(f for i, f in enumerate(self.facts) if mask >> i & 1)

    def render(self, a) -> str:
        return f"kill={{{self.names(a[0])}}} gen={{{self.names(a[1])}}}"

    def parse(self, text: str):
        m = re.fullmatch(r"kill=\{([^}]*)\} gen=\{([^}]*)\}", text.strip())
        return tuple(self.mask(filter(None, g.split(","))) for g in m.groups())


class MinPlus:
    one, zero = 0, INF
    combine = staticmethod(min)

    @staticmethod
    def extend(a, b):
        return a + b

    @staticmethod
    def render(a) -> str:
        return "inf" if a == INF else str(a)

    @staticmethod
    def parse(text: str):
        return INF if text.strip() == "inf" else int(text)


class Bool:
    one, zero = True, False

    @staticmethod
    def combine(a, b):
        return a or b

    @staticmethod
    def extend(a, b):
        return a and b

    @staticmethod
    def render(a) -> str:
        return "1" if a else "0"

    @staticmethod
    def parse(text: str):
        return text.strip() == "1"


class Tabulated:
    """Monotone maps on a powerset lattice, as dicts; extend applies
    its first argument first."""

    def __init__(self, facts):
        n = len(facts)
        self.cells = [frozenset(f for i, f in enumerate(facts) if k >> i & 1)
                      for k in range(1 << n)]
        self.one = {c: c for c in self.cells}

    def combine(self, a, b):
        return {c: a[c] | b[c] for c in self.cells}

    def extend(self, a, b):
        return {c: b[a[c]] for c in self.cells}

    @staticmethod
    def parse(text: str):
        cells = re.findall(r"\{([^}]*)\}->\{([^}]*)\}", text)
        return {frozenset(filter(None, k.split(","))):
                frozenset(filter(None, v.split(","))) for k, v in cells}

    def leq(self, a, b) -> bool:
        return all(a[c] <= b[c] for c in self.cells)


def algebra_for(system: dict):
    name = system["algebra"]
    if name == "killgen":
        return KillGen(system["facts"])
    if name == "tabulated":
        return Tabulated(system["facts"])
    return {"minplus": MinPlus, "bool": Bool}[name]()


def weights(system: dict, alg) -> list:
    return [alg.parse(r[4]) for r in system["rules"]]


def product(alg, items):
    acc = alg.one
    for x in items:
        acc = alg.extend(acc, x)
    return acc


# ---------------------------------------------------------------------------
# analyze: summary-based join over valid paths


def parse_icfg(text: str) -> dict:
    """The graph format, read on its own: procedures in order, edges and
    calls attached to the most recent procedure."""
    g = {"procs": {}, "edges": [], "calls": [], "main": None, "owner": {}}
    current = None
    for line in text.splitlines():
        words = line.replace("->", " ").split()
        if not words or words[0].startswith("#"):
            continue
        if words[0] == "domain":
            g["facts"] = [f for f in line.split("{")[1].rstrip("}").split(",") if f]
        elif words[0] == "proc":
            current = words[1]
            g["procs"][current] = (words[3], words[5])
            g["owner"].setdefault(words[3], current)
            g["owner"].setdefault(words[5], current)
        elif words[0] == "edge":
            kill, gen = re.findall(r"\{([^}]*)\}", line)
            g["edges"].append((words[1], words[2], kill, gen))
            g["owner"].setdefault(words[1], current)
            g["owner"].setdefault(words[2], current)
        elif words[0] == "call":
            g["calls"].append((words[1], words[2], words[4]))
            g["owner"].setdefault(words[1], current)
            g["owner"].setdefault(words[4], current)
        elif words[0] == "main":
            g["main"] = words[1]
    return g


def _fixpoint(alg, values: dict, updates) -> dict:
    """Round-robin chaotic iteration of ``updates``, a list of
    (target, function of values returning a value or None)."""
    changed = True
    while changed:
        changed = False
        for target, fn in updates:
            v = fn(values)
            if v is None:
                continue
            old = values.get(target)
            new = v if old is None else alg.combine(old, v)
            if new != old:
                values[target] = new
                changed = True
    return values


def analyze(text: str, direction: str) -> str:
    """The rendered per-node report of ``pdsflow analyze``.

    Forward: from <p: entry(main)>, a node's row joins every valid-path
    prefix reaching it, which with distributive weights is the calling
    context of its procedure times its same-level summary from the
    entry.  Backward: towards <p: exit(main)>, a node's row joins every
    stack below it; each frame contributes its same-level summary to its
    procedure's exit, the last frame belongs to main, and any frames may
    sit between, so the row is S(n) A* M.
    """
    g = parse_icfg(text)
    alg = KillGen(g["facts"])
    w = {}
    for s, d, k, gn in g["edges"]:  # parallel edges join, as in the encoding
        x = (alg.mask(filter(None, k.split(","))), alg.mask(filter(None, gn.split(","))))
        w[s, d] = alg.combine(w[s, d], x) if (s, d) in w else x
    entry = {p: e for p, (e, _) in g["procs"].items()}
    exit_ = {p: x for p, (_, x) in g["procs"].items()}
    ext = alg.extend

    def chain(a, b):
        return None if a is None or b is None else ext(a, b)

    if direction == "post":
        summary = _fixpoint(alg, {e: alg.one for e in entry.values()}, [
            (d, lambda v, s=s, d=d: chain(v.get(s), w[s, d])) for s, d in w
        ] + [
            (r, lambda v, s=s, q=q: chain(v.get(s), v.get(exit_[q])))
            for s, q, r in g["calls"]
        ])
        context = _fixpoint(alg, {g["main"]: alg.one}, [
            (q, lambda v, s=s: chain(v.get(g["owner"][s]), summary.get(s)))
            for s, q, _ in g["calls"]
        ])
        row = {n: chain(context.get(p), summary.get(n)) for n, p in g["owner"].items()}
    else:
        summary = _fixpoint(alg, {x: alg.one for x in exit_.values()}, [
            (s, lambda v, s=s, d=d: chain(w[s, d], v.get(d))) for s, d in w
        ] + [
            (s, lambda v, q=q, r=r: chain(v.get(entry[q]), v.get(r)))
            for s, q, r in g["calls"]
        ])
        below = alg.zero  # A: any frame
        last = alg.zero   # M: a frame of main, the bottom one
        for n, v in summary.items():
            below = alg.combine(below, v)
            if g["owner"][n] == g["main"]:
                last = alg.combine(last, v)
        tail = last
        while True:  # A* M
            nxt = alg.combine(tail, ext(below, tail))
            if nxt == tail:
                break
            tail = nxt
        row = {n: chain(summary.get(n), tail) for n in g["owner"]}
    return "".join(
        f"{n}: {'unreachable' if row[n] is None else alg.render(row[n])}\n"
        for n in sorted(row)
    )


# ---------------------------------------------------------------------------
# query families


def deep_answer(system: dict, direction: str, stack) -> str:
    """Closed form of the deep family (see gen.deep_system)."""
    alg = algebra_for(system)
    ws = weights(system, alg)
    if direction == "pre":
        by_sym = {r[1]: x for r, x in zip(system["rules"], ws)}
        return alg.render(product(alg, (by_sym[s] for s in stack[:-1])))
    return alg.render(product(alg, [ws[0]] + [ws[1]] * (len(stack) - 2)))


def ambiguous_answer(system: dict, k: int) -> str:
    """Join over the 2^k runs of <p: a^k z>, by the two-state recurrence
    D_k(x) = join over y of W(x, y) D_(k-1)(y), D_0 = one; exact because
    these domains distribute over joins from the left."""
    alg = algebra_for(system)
    w = {(r[0], r[2]): x for r, x in zip(system["rules"], weights(system, alg))}
    d = {"p": alg.one, "r": alg.one}
    for _ in range(k):
        d = {x: alg.combine(alg.extend(w[x, "p"], d["p"]),
                            alg.extend(w[x, "r"], d["r"])) for x in "pr"}
    return alg.render(d["p"])


def walk_join(system: dict, source, target, depth: int, cap: int = 20000):
    """Join of the weights of every rule sequence of at most ``depth``
    steps from ``source`` to ``target`` (weights in execution order), or
    None when the walk finds none.  Paths are enumerated, never merged,
    so the result is a lower bound for any sound answer."""
    alg = algebra_for(system)
    ws = weights(system, alg)
    found = alg.one if source == target else None
    frontier = [(source, alg.one)]
    for _ in range(depth):
        nxt = []
        for config, weight in frontier:
            for i, succ in step(system["rules"], config):
                wt = alg.extend(weight, ws[i])
                if succ == target:
                    found = wt if found is None else alg.combine(found, wt)
                nxt.append((succ, wt))
        frontier = nxt[:cap]
    return found


def is_sound(system: dict, lower, answer: str) -> bool:
    """``answer`` (package output, or UNREACHABLE) lies above ``lower``."""
    if lower is None:
        return True
    if answer == "UNREACHABLE":
        return False
    alg = algebra_for(system)
    a = alg.parse(answer)
    if isinstance(alg, Tabulated):
        return alg.leq(lower, a)
    return alg.combine(lower, a) == a
