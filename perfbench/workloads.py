"""The three workloads.

Each workload makes its inputs from the seed (``generate``, stdlib only),
computes the expected outputs apart from the program (``references``),
does the program's set-up work (``setup``, which imports the package),
and runs one op by index (``run``), returning the output text that
``check`` compares with the references.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random

import gen
import ref


class Analyze:
    """``pdsflow analyze`` in-process through ``pdsflow.cli.main``, over
    a fixed list of ICFG slots.  Each slot's call structure comes from a
    fixed shape seed, so the saturation work per slot does not depend on
    ``--seed``; the seed draws the kill/gen labels and the op order."""

    def __init__(self, name, direction, sizes, facts, density, shape_of):
        self.name = name
        self.direction = direction
        self.sizes = sizes
        self.facts = gen.fact_names(facts)
        self.density = density
        self.shape_of = shape_of
        self.required = ("cli.main", "encode.load_icfg", "encode.encode_icfg",
                         f"saturation.{direction}_star", "solver.solve_least",
                         "encode.analysis_report", "encode.render_report")

    def generate(self, seed, workdir):
        rng = random.Random(seed)
        self.texts, self.argvs = [], []
        for slot, n in enumerate(self.sizes):
            text = gen.baseline_icfg(self.shape_of(slot, n), rng, n,
                                     self.facts, self.density)
            path = workdir / f"{self.name}-{slot}.icfg"
            path.write_text(text, encoding="utf-8")
            node = 0 if self.direction == "post" else gen.CHAIN - 1
            self.texts.append(text)
            self.argvs.append(["analyze", "--icfg", str(path), "--direction",
                               self.direction, "--init-config", f"<p: P0_{node}>"])
        self.order = list(range(len(self.sizes)))
        rng.shuffle(self.order)

    def references(self):
        self.expected = [ref.analyze(t, self.direction) for t in self.texts]

    def setup(self):
        """Import, plus one cold op: what a first ``pdsflow analyze`` costs."""
        self.cli = importlib.import_module("pdsflow.cli")
        self.run(0)

    def run(self, i):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = self.cli.main(self.argvs[i])
        if status != 0:
            raise RuntimeError(f"analyze exited with status {status}")
        return out.getvalue()

    def check(self, outputs: dict) -> list:
        return [i for i, text in outputs.items() if text != self.expected[i]]

    def trace_counts(self, i):
        return {}


def forward_shape(slot, n):
    """The first shape seed, counting up from 1000 * slot, whose forward
    report has 40 to 62 reachable nodes.  With the round-based engine that
    makes ops of roughly 0.1 to 0.3 s, where unselected shapes of the
    family range over 0.05 to 0.9 s."""
    s = 1000 * slot
    while True:
        text = gen.baseline_icfg(random.Random(s), random.Random(0), n,
                                 gen.fact_names(1), 0.0)
        report = ref.analyze(text, "post")
        if 40 <= len(report.splitlines()) - report.count("unreachable") <= 62:
            return random.Random(s)
        s += 1


class QueryMix:
    """The library path: set-up loads every system from text, saturates it
    in the op's direction and solves it; each op is one ``pdsflow.query``.

    Of the 47 ops per pass, 16 query small random systems (stacks of 1 to
    4 symbols; some configurations are not accepted), 15 query deep
    stacks of 20 to 300 symbols, and 16 (a third) query 2-way-ambiguous
    automata with 2^10 to 2^14 runs.  The three groups sort by op time in
    that order.  Nine of the deep queries are alike (backward minplus, 150
    symbols), with three cheaper and three dearer deep queries around
    them, so the median lands inside those nine; the 90th percentile
    lands inside the four 2^13-run queries."""

    name = "query-mix"
    required = ("pds.load_pds", "automaton.load_automaton", "saturation.pre_star",
                "saturation.post_star", "solver.solve_least", "automaton.query")
    DEEP = ([("killgen", "pre", 20), ("killgen", "post", 30), ("bool", "post", 40)]
            + [("minplus", "pre", 150)] * 9
            + [("minplus", "post", 240), ("bool", "pre", 270), ("minplus", "pre", 300)])
    AMBIGUOUS = [10] * 3 + [11] * 3 + [12] * 3 + [13] * 4 + [14] * 3
    RANDOM = ("killgen", "minplus", "bool", "tabulated")
    WALK_DEPTH = 6

    def generate(self, seed, workdir):
        """Systems, saturations (system, direction, automaton text) and
        ops (saturation, configuration, expected text, walk key, dual op);
        ``workdir`` is unused, as every input is passed as a string."""
        rng = random.Random(seed)
        self.systems, self.sats, self.ops = [], [], []

        def system(s):
            self.systems.append(s)
            return len(self.systems) - 1

        def saturation(sid, direction, finals, trans):
            self.sats.append((sid, direction, gen.automaton_text(finals, trans)))
            return len(self.sats) - 1

        deep = {}
        for alg, direction, _ in self.DEEP:
            if (alg, direction) not in deep:
                sid = system(gen.deep_system(rng, alg, direction))
                deep[alg, direction] = (sid, saturation(
                    sid, direction, *gen.single_config_automaton(("p", ("z",)))))
        for alg, direction, k in self.DEEP:
            if direction == "pre":
                stack = tuple(rng.choice("ab") for _ in range(k)) + ("z",)
            else:
                stack = ("a",) * k + ("z",)
            sid, sat = deep[alg, direction]
            expected = ref.deep_answer(self.systems[sid], direction, stack)
            self.ops.append((sat, ("p", stack), expected, None, None))

        ambiguous = []
        for _ in range(3):
            sid = system(gen.ambiguous_system(rng, "killgen"))
            ambiguous.append((sid, saturation(sid, "pre", ["f"],
                                              [("p", "z", "f"), ("r", "z", "f")])))
        for j, k in enumerate(self.AMBIGUOUS):
            sid, sat = ambiguous[j % 3]
            expected = ref.ambiguous_answer(self.systems[sid], k)
            self.ops.append((sat, ("p", ("a",) * k + ("z",)), expected, None, None))

        for alg in self.RANDOM:
            sid = system(gen.random_system(rng, alg))
            rules = self.systems[sid]["rules"]
            first = rng.choice(rules)
            source = (first[0], (first[1],) + tuple(
                rng.choice("abcd") for _ in range(rng.randint(0, 2))))
            locs = sorted({r[0] for r in rules} | {r[2] for r in rules})
            targets = [
                gen.random_walk_end(rng, rules, source, rng.randint(1, 4)),
                (rng.choice(locs), tuple(rng.choice("abcd")
                                         for _ in range(rng.randint(1, 3)))),
            ]
            post = saturation(sid, "post", *gen.single_config_automaton(source))
            for target in targets:
                pre = saturation(sid, "pre", *gen.single_config_automaton(target))
                walk = (sid, source, target)
                n = len(self.ops)
                dual = alg != "tabulated"  # duality needs distributivity
                self.ops.append((post, target, None, walk, n + 1 if dual else None))
                self.ops.append((pre, source, None, walk, n if dual else None))

        self.pds_texts = [gen.pds_text(s) for s in self.systems]
        self.config_texts = [gen.config_text(op[1]) for op in self.ops]
        self.order = list(range(len(self.ops)))
        rng.shuffle(self.order)

    def references(self):
        """Bounded-walk lower bounds; closed forms are made in generate."""
        self.lower = {op[3]: ref.walk_join(self.systems[op[3][0]], op[3][1], op[3][2],
                                           self.WALK_DEPTH)
                      for op in self.ops if op[3] is not None}

    def setup(self):
        """Import, then load, saturate and solve every system."""
        pf = importlib.import_module("pdsflow")
        self.pf = pf
        self.not_accepted = importlib.import_module("pdsflow.errors").NotAcceptedError
        pds = [pf.load_pds(text) for text in self.pds_texts]
        self.solved = []
        for sid, direction, text in self.sats:
            aut = pf.load_automaton(text, pds[sid], direction)
            saturate = pf.pre_star if direction == "pre" else pf.post_star
            result = saturate(pds[sid], aut)
            sol = pf.solve_least(result.constraints, pds[sid].algebra)
            self.solved.append((result.automaton, sol, pds[sid].algebra))
        self.configs = [pf.parse_config_text(text) for text in self.config_texts]

    def run(self, i):
        aut, sol, alg = self.solved[self.ops[i][0]]
        try:
            return alg.render(self.pf.query(aut, sol, self.configs[i]))
        except self.not_accepted:
            return "UNREACHABLE"

    def check(self, outputs: dict) -> list:
        bad = []
        for i, text in outputs.items():
            _, _, expected, walk, dual = self.ops[i]
            ok = expected is None or text == expected
            if walk is not None:
                ok = ok and ref.is_sound(self.systems[walk[0]], self.lower[walk], text)
            if dual is not None and dual in outputs:
                ok = ok and text == outputs[dual]
            if not ok:
                bad.append(i)
        return bad

    def trace_counts(self, i):
        """Accepting runs of the op's configuration, counted over the
        saturated automaton by the benchmark: a property of the input
        that does not depend on how readout works."""
        aut = self.solved[self.ops[i][0]][0]
        loc, stack = self.ops[i][1]
        counts = {loc: 1}
        for t in aut.transitions:
            if t.src == loc and t.label is None and aut.direction == "post":
                counts[t.dst] = counts.get(t.dst, 0) + 1
        for sym in stack:
            nxt = {}
            for t in aut.transitions:
                if t.label == sym and t.src in counts:
                    nxt[t.dst] = nxt.get(t.dst, 0) + counts[t.src]
            counts = nxt
        return {"automaton.runs_per_query": sum(counts.get(f, 0) for f in aut.finals)}


WORKLOADS = {
    "analyze-fwd": lambda: Analyze("analyze-fwd", "post", list(range(14, 29)), 4, 0.25,
                                   forward_shape),
    "analyze-bwd-wide": lambda: Analyze("analyze-bwd-wide", "pre",
                                        list(range(146, 176, 2)), 64, 0.05,
                                        lambda slot, n: random.Random(slot)),
    "query-mix": QueryMix,
}
