"""Law checking for weight domains.

Checks each flow-algebra law on a concrete instance, exhaustively when
the carrier is small enough and on samples otherwise, and classifies
the instance: flow algebra, distributive flow algebra or idempotent
semiring.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from typing import NamedTuple, Optional

from .algebra import FlowAlgebra
from .errors import NoSamplesError

# Budget for exhaustive law checking; beyond it the checker samples.
MAX_EXHAUSTIVE_PAIRS = 4096
MAX_EXHAUSTIVE_TRIPLES = 32768

# One row per law: law -> (arity, predicate).  A predicate takes the
# algebra ``A`` and one combination of carrier elements and says whether
# the law holds there.  Base laws first, then the semiring laws.
_LAWS = {
    "combine-idempotent": (1, lambda A, a: A.combine(a, a) == a),
    "combine-commutative": (2, lambda A, a, b: A.combine(a, b) == A.combine(b, a)),
    "combine-associative": (3, lambda A, a, b, c:
        A.combine(A.combine(a, b), c) == A.combine(a, A.combine(b, c))),
    "zero-neutral": (1, lambda A, a: A.combine(a, A.zero) == a),
    "extend-associative": (3, lambda A, a, b, c:
        A.extend(A.extend(a, b), c) == A.extend(a, A.extend(b, c))),
    "one-neutral": (1, lambda A, a:
        A.extend(a, A.one) == a and A.extend(A.one, a) == a),
    "extend-monotone": (3, lambda A, a, b, c: not A.leq(a, b) or (
        A.leq(A.extend(a, c), A.extend(b, c))
        and A.leq(A.extend(c, a), A.extend(c, b)))),
    "distributes-left": (3, lambda A, a, b, c:
        A.extend(a, A.combine(b, c)) == A.combine(A.extend(a, b), A.extend(a, c))),
    "distributes-right": (3, lambda A, a, b, c:
        A.extend(A.combine(a, b), c) == A.combine(A.extend(a, c), A.extend(b, c))),
    "annihilates-left": (1, lambda A, a: A.extend(A.zero, a) == A.zero),
    "annihilates-right": (1, lambda A, a: A.extend(a, A.zero) == A.zero),
}

LAW_NAMES = tuple(_LAWS)
_BASE_LAWS = LAW_NAMES[:7]
_SEMIRING_LAWS = LAW_NAMES[7:]
_DISTRIBUTIVITY_LAWS = LAW_NAMES[7:9]


class LawVerdict(NamedTuple):
    law: str
    status: str  # "holds", "fails", "sampled-only"
    counterexample: Optional[tuple] = None

    @property
    def failed(self) -> bool:
        return self.status == "fails"


class LawReport(NamedTuple):
    """Per-law verdicts for one weight domain plus a classification."""

    algebra_name: str
    verdicts: dict  # law -> LawVerdict

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
        if not any(self.verdicts[l].failed for l in _DISTRIBUTIVITY_LAWS):
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


def _law_verdict(alg: FlowAlgebra, law: str,
                 samples: Optional[Sequence]) -> LawVerdict:
    """The verdict on one law, as ``check_laws`` gives it."""
    if alg.elements is None and not samples:
        raise NoSamplesError(
            f"algebra {alg.name!r} has an abstract carrier; provide samples"
        )
    arity, holds = _LAWS[law]
    budget = MAX_EXHAUSTIVE_PAIRS if arity <= 2 else MAX_EXHAUSTIVE_TRIPLES
    exhaustive = (alg.elements is not None
                  and len(alg.elements) ** arity <= budget)
    pool = (alg.elements if exhaustive
            else list(dict.fromkeys([*(samples or ()), alg.zero, alg.one])))
    combos = itertools.product(pool, repeat=arity)
    ce = next((c for c in combos if not holds(alg, *c)), None)
    status = ("fails" if ce is not None
              else "holds" if exhaustive else "sampled-only")
    return LawVerdict(law, status, ce)


def check_laws(alg: FlowAlgebra, samples: Optional[Sequence] = None) -> LawReport:
    """Check every algebra law, exhaustively when the carrier allows.

    Explicit carriers are swept in full while the number of pairs and
    triples stays within budget; otherwise the check runs over the
    provided samples (always augmented with zero and one) and verdicts
    degrade to "sampled-only".  Abstract carriers require samples.  A
    failing law's counterexample is its first failing combination in
    ``itertools.product`` order.
    """
    verdicts = {law: _law_verdict(alg, law, samples) for law in LAW_NAMES}
    return LawReport(algebra_name=alg.name, verdicts=verdicts)
