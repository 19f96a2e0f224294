"""Exception classes shared across the package.

All errors derive from :class:`WextrapError` so callers can catch the
package's failures with a single except clause while still being able to
distinguish built-in errors (``ValueError`` etc.) from ours.
"""


class WextrapError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(WextrapError):
    """Raised when vector or matrix dimensions are inconsistent."""


class NotHermitian(WextrapError):
    """Raised when a dense weight matrix deviates from its conjugate
    transpose beyond tolerance."""


class NotPositiveDefinite(WextrapError):
    """Raised when the Cholesky factorization of a weight matrix fails."""


class NonpositiveWeight(WextrapError):
    """Raised when a diagonal weight entry is not a strictly positive real."""


class NegativeQuadraticForm(WextrapError):
    """Raised when z*Mz comes out negative or materially non-real,
    which signals a corrupted weight operator."""


class RankDeficient(WextrapError):
    """Raised when an orthogonalized column falls below the rank tolerance.

    Carries the column index at which dependence was detected; for
    difference matrices this index is the detected k0.
    """

    def __init__(self, index, residual_norm=None, threshold=None):
        self.index = index
        self.residual_norm = residual_norm
        self.threshold = threshold
        msg = f"column {index} is numerically dependent on its predecessors"
        if residual_norm is not None:
            msg += f" (deflated norm {residual_norm:.3e}, threshold {threshold:.3e})"
        super().__init__(msg)


class LambdaNotPositive(WextrapError):
    """Raised when the constrained least-squares multiplier is not a
    positive real, which indicates broken triangular factors."""


class MpeNonexistent(WextrapError):
    """Raised when an operation requires an extrapolant whose coefficient
    sum vanished."""


class InsufficientVectors(WextrapError):
    """Raised when a sequence is too short for the requested stage bound."""


class NonFiniteIterate(WextrapError):
    """Raised when fixed-point iteration produces an overflow or NaN."""

    def __init__(self, index, msg=None):
        self.index = index
        super().__init__(msg or f"iterate {index} is not finite")


class ParseError(WextrapError):
    """Raised on malformed input files; carries position information."""

    def __init__(self, message, path=None, line=None, column=None):
        self.path = path
        self.line = line
        self.column = column
        loc = ""
        if path is not None:
            loc += str(path)
        if line is not None:
            loc += f":{line}"
            if column is not None:
                loc += f":{column}"
        super().__init__(f"{loc}: {message}" if loc else message)
