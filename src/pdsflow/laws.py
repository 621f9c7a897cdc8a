"""Law checking for weight domains.

Checks each flow-algebra law on a concrete instance, exhaustively when
the carrier is small enough and on samples otherwise, and classifies
the instance: flow algebra, distributive flow algebra or idempotent
semiring.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

from .algebra import FlowAlgebra
from .errors import NoSamplesError

# Budget for exhaustive law checking; beyond it the checker samples.
MAX_EXHAUSTIVE_PAIRS = 4096
MAX_EXHAUSTIVE_TRIPLES = 32768

LAW_NAMES = (
    "combine-idempotent",
    "combine-commutative",
    "combine-associative",
    "zero-neutral",
    "extend-associative",
    "one-neutral",
    "extend-monotone",
    "distributes-left",
    "distributes-right",
    "annihilates-left",
    "annihilates-right",
)

_BASE_LAWS = LAW_NAMES[:7]
_SEMIRING_LAWS = LAW_NAMES[7:]


@dataclass(frozen=True)
class LawVerdict:
    law: str
    status: str  # "holds", "fails", "sampled-only"
    counterexample: Optional[tuple] = None

    @property
    def failed(self) -> bool:
        return self.status == "fails"


@dataclass(frozen=True)
class LawReport:
    """Per-law verdicts for one weight domain plus a classification."""

    algebra_name: str
    verdicts: dict = field(default_factory=dict)

    def verdict(self, law: str) -> LawVerdict:
        return self.verdicts[law]

    @property
    def is_idempotent_semiring(self) -> bool:
        """True iff every distributivity and strictness law holds."""
        return not any(self.verdicts[l].failed for l in _SEMIRING_LAWS)

    @property
    def classification(self) -> str:
        if any(self.verdicts[l].failed for l in _BASE_LAWS):
            return "not a flow algebra"
        if self.is_idempotent_semiring:
            return "idempotent semiring"
        if not any(
            self.verdicts[l].failed
            for l in ("distributes-left", "distributes-right")
        ):
            return "distributive flow algebra"
        return "flow algebra"

    def render_table(self, alg: FlowAlgebra) -> str:
        lines = [f"algebra {self.algebra_name}"]
        for law in LAW_NAMES:
            v = self.verdicts[law]
            if v.status == "fails":
                ce = ", ".join(alg.render(x) for x in v.counterexample)
                lines.append(f"{law}: FAILS at ({ce})")
            elif v.status == "sampled-only":
                lines.append(f"{law}: holds (sampled)")
            else:
                lines.append(f"{law}: holds")
        lines.append(f"classification: {self.classification}")
        return "\n".join(lines)


def check_laws(
    alg: FlowAlgebra,
    samples: Optional[Sequence] = None,
    *,
    max_pairs: int = MAX_EXHAUSTIVE_PAIRS,
    max_triples: int = MAX_EXHAUSTIVE_TRIPLES,
) -> LawReport:
    """Check every algebra law, exhaustively when the carrier allows.

    Explicit carriers are swept in full while the number of pairs and
    triples stays within budget; otherwise the check runs over the
    provided samples (always augmented with zero and one) and verdicts
    degrade to "sampled-only".  Abstract carriers require samples.
    """
    if alg.elements is None and not samples:
        raise NoSamplesError(
            f"algebra {alg.name!r} has an abstract carrier; provide samples"
        )

    sample_pool = list(dict.fromkeys([*(samples or ()), alg.zero, alg.one]))

    def pool_for(arity: int) -> tuple[Sequence, bool]:
        if alg.elements is None:
            return sample_pool, False
        budget = max_pairs if arity <= 2 else max_triples
        if len(alg.elements) ** arity <= budget:
            return alg.elements, True
        return sample_pool, False

    verdicts = {}

    def run_law(law: str, arity: int, test) -> None:
        pool, exhaustive = pool_for(arity)
        for combo in itertools.product(pool, repeat=arity):
            ce = test(*combo)
            if ce is not None:
                verdicts[law] = LawVerdict(law, "fails", ce)
                return
        status = "holds" if exhaustive else "sampled-only"
        verdicts[law] = LawVerdict(law, status)

    eq, comb, ext = alg.eq, alg.combine, alg.extend

    run_law(
        "combine-idempotent", 1,
        lambda a: None if eq(comb(a, a), a) else (a,),
    )
    run_law(
        "combine-commutative", 2,
        lambda a, b: None if eq(comb(a, b), comb(b, a)) else (a, b),
    )
    run_law(
        "combine-associative", 3,
        lambda a, b, c: None
        if eq(comb(comb(a, b), c), comb(a, comb(b, c)))
        else (a, b, c),
    )
    run_law(
        "zero-neutral", 1,
        lambda a: None if eq(comb(a, alg.zero), a) else (a,),
    )
    run_law(
        "extend-associative", 3,
        lambda a, b, c: None
        if eq(ext(ext(a, b), c), ext(a, ext(b, c)))
        else (a, b, c),
    )
    run_law(
        "one-neutral", 1,
        lambda a: None
        if eq(ext(a, alg.one), a) and eq(ext(alg.one, a), a)
        else (a,),
    )

    def monotone(a, b, c):
        if not alg.leq(a, b):
            return None
        if not alg.leq(ext(a, c), ext(b, c)):
            return (a, b, c)
        if not alg.leq(ext(c, a), ext(c, b)):
            return (a, b, c)
        return None

    run_law("extend-monotone", 3, monotone)

    run_law(
        "distributes-left", 3,
        lambda a, b, c: None
        if eq(ext(a, comb(b, c)), comb(ext(a, b), ext(a, c)))
        else (a, b, c),
    )
    run_law(
        "distributes-right", 3,
        lambda a, b, c: None
        if eq(ext(comb(a, b), c), comb(ext(a, c), ext(b, c)))
        else (a, b, c),
    )
    run_law(
        "annihilates-left", 1,
        lambda a: None if eq(ext(alg.zero, a), alg.zero) else (a,),
    )
    run_law(
        "annihilates-right", 1,
        lambda a: None if eq(ext(a, alg.zero), alg.zero) else (a,),
    )

    return LawReport(algebra_name=alg.name, verdicts=verdicts)
