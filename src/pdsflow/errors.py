"""Exception types shared across the package."""


class PdsflowError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PdsflowError):
    """A text input (PDS, automaton, ICFG, weight literal) is malformed.

    Carries the source name and 1-based line number when known; the
    text starts ``source:line: `` or, with no line, ``source: ``.
    """

    def __init__(self, message, source=None, line=None):
        self.source = source
        self.line = line
        if source is not None:
            message = (f"{source}: {message}" if line is None
                       else f"{source}:{line}: {message}")
        super().__init__(message)


class EmptyDomainError(PdsflowError):
    """A kill/gen weight domain was requested over an empty fact set."""


class NoSamplesError(PdsflowError):
    """Law checking on an abstract carrier requires sample elements."""


class NonMonotoneFunctionError(PdsflowError):
    """A supplied transfer function violates monotonicity.

    The witness pair (input, larger input) is attached for diagnostics.
    """

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class ClosureExplosionError(PdsflowError):
    """Closing a function space under join/composition exceeded its bound."""


class UnknownLocationError(PdsflowError):
    """A configuration was queried from a state that is not an initial state."""


class MissingAssignmentError(PdsflowError):
    """A transition variable has no value in the given assignment."""


class NotAcceptedError(PdsflowError):
    """Weight was requested for a configuration the automaton does not accept."""


class InvalidInputAutomatonError(PdsflowError):
    """An input automaton violates a saturation precondition."""


class IterationLimitExceededError(PdsflowError):
    """The fixpoint computation exceeded its application cap.

    Usually the weight domain has infinite ascending chains or the cap
    was configured too low.
    """


class PreconditionNotMetError(PdsflowError):
    """An operation's algebraic precondition does not hold."""


class ValidationError(PdsflowError):
    """A structured input violates one or more of its invariants.

    ``problems`` lists every violation found, not just the first.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
