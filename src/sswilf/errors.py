"""Exception types shared across the package.

``UsageError`` subclasses signal bad caller input (the CLI exits with code 2
on these); ``InternalError`` subclasses signal a broken internal invariant
that should never fire (CLI exit code 3).
"""


class WilfError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(WilfError):
    """Invalid input: malformed text or out-of-range parameters."""


class InternalError(WilfError):
    """A consistency check failed; indicates a bug, not bad input."""


# -- parsing and word validation -------------------------------------------

class MalformedToken(UsageError):
    """Input text contains a token that is not a positive integer."""


class NonPositiveLetter(UsageError):
    """A letter was zero or negative."""


class DuplicateLetter(UsageError):
    """A letter occurs more than once where distinct letters are required."""


class MissingLetter(UsageError):
    """The letters do not form the full set 1..n."""


class EmptyPattern(UsageError):
    """The pattern word of an embedding query is empty."""


# -- size and range preconditions ------------------------------------------

class SizeTooSmall(UsageError):
    """The argument has fewer letters or elements than the operation requires."""


class SizeMismatch(UsageError):
    """Two arguments that must have equal size do not."""


class LengthMismatch(UsageError):
    """Vector lengths do not fit the requested transition."""


class OutOfRange(UsageError):
    """A numeric parameter lies outside its valid range."""


class LimitExceeded(UsageError):
    """The requested sweep or listing exceeds its size limit."""


# -- structural validation ---------------------------------------------------

class InvalidPyramid(UsageError):
    """The level stack is not a valid pyramidal sequence."""


class InvalidTrapezoid(UsageError):
    """The level stack is not a valid trapezoidal sequence."""


class NotAPrefix(UsageError):
    """The word is not a minimal prefix with periodic complement."""


class NotInB(UsageError):
    """The permutation has an interval suffix and is outside the codomain."""


class InvalidMove(UsageError):
    """A rigid shift would move a column out of range or onto a low column."""


# -- internal assertions ------------------------------------------------------

class NegativeResult(InternalError):
    """A count recurrence produced a negative value."""


class ParityViolation(InternalError):
    """A class count that must be even is odd."""
