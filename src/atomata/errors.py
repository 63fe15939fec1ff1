"""Exception types shared across the package."""


class AtomataError(Exception):
    """Base class for all package-specific errors."""


class DegreeMismatchError(AtomataError, ValueError):
    """Two transformations (or a transformation and a set) disagree on degree."""


class DegreeCapError(AtomataError, ValueError):
    """A transformation degree exceeds the configured cap."""


class ClosureCapError(AtomataError, RuntimeError):
    """A semigroup closure could outgrow its element bound or byte maps."""


class EnumerationCapError(AtomataError, ValueError):
    """An exhaustive enumeration would exceed the configured caps."""


class UnknownLetterError(AtomataError, ValueError):
    """A word contains a letter outside the automaton's alphabet."""


class NotAnAtomError(AtomataError, ValueError):
    """The given state set does not label any atom of the language."""


class FullSemigroupError(AtomataError, ValueError):
    """An operation requires a minimal DFA with a full transition semigroup."""


class IntervalConsistencyError(AtomataError, RuntimeError):
    """A reachable collection of state sets failed to be an interval.

    Raised by the interval-walk machinery; it can only trigger if the
    closed-form atomaton transition rule is wrong for the given input.
    """


class DfaParseError(AtomataError, ValueError):
    """A DFA text document is malformed; carries line and column info."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)
