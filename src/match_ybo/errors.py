"""Exception types shared across the package."""


class MatchYboError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInputError(MatchYboError):
    """Input data (JSON, CLI argument) does not satisfy its schema."""


class NotASolutionError(MatchYboError):
    """Structural recovery failed; the matrix cannot come from a germ."""
