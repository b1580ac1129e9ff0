"""Exception types shared across the package.

Everything raised on bad user input derives from :class:`RpdError`, so
callers (including the CLI) can distinguish input problems from bugs.
"""


class RpdError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(RpdError):
    """Malformed content in an input file; messages include the line number."""


class FormatError(RpdError):
    """An embedding file that is empty or unlike its own "n d" header."""


class DuplicateWordError(RpdError):
    """The same word appears more than once in a vocabulary."""


class DegenerateInputError(RpdError):
    """Input is degenerate for the requested computation (zero variance, zero norm, ...)."""


class AlignmentError(RpdError):
    """Two vocabularies cannot be aligned."""


class DimensionError(RpdError):
    """Array shapes are incompatible with the requested operation."""


class CorpusError(RpdError):
    """A corpus is empty or unusable after filtering."""


class PreconditionError(RpdError):
    """An argument violates a documented precondition."""
