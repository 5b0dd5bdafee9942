"""Exception types shared across the package."""


class MatchYboError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInputError(MatchYboError):
    """Input data (JSON, CLI argument) does not satisfy its schema."""


class InadmissibleEdgeError(MatchYboError):
    """An edge block fits none of the six admissible patterns."""

    def __init__(self, pair):
        self.pair = pair
        super().__init__(f"inadmissible edge block {pair}")


class NotASolutionError(MatchYboError):
    """Structural recovery failed; the matrix cannot come from a germ."""


class IrrationalSpectrumError(MatchYboError):
    """An edge block has irrational eigenvalues.

    Carries the block's trace and determinant so the caller can see the
    offending quadratic z^2 - trace*z + det.
    """

    def __init__(self, trace, det):
        self.trace = trace
        self.det = det
        super().__init__(f"irrational spectrum: z^2 - ({trace})z + ({det})")
