"""Exception types raised by the analysis modules."""


class ChainError(ValueError):
    """Base class for all errors raised by this package."""


class ValidationError(ChainError):
    """Input data violates a structural invariant (range, sum, NaN)."""


class DimensionMismatchError(ChainError):
    """Operands have incompatible dimensions."""


class RegimeError(ChainError):
    """The operation is not defined for the chain's regime."""


class ConvergenceError(ChainError):
    """Iterative solver exhausted its iteration budget.

    Carries the last iterate and the residual it achieved so callers can
    inspect or resume.
    """

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


class SingularSystemError(ChainError):
    """The stationary linear system is singular beyond the normalization row.

    Only a matrix solved whole raises it: a StochasticMatrix, or P(0) = P0,
    with several closed classes (P(eps), eps > 0, is solved class by class);
    solve per class (see structure.restrict) instead.
    """


class IllConditionedError(ChainError):
    """A linear system is too ill-conditioned to solve reliably."""


class SpectralStructureError(ChainError):
    """The eigenvalue decomposition does not have the assumed structure.

    Raised when the fitted constant term disagrees with the stationary
    distribution, which signals a defective (non-semisimple) matrix.
    """


class ContractionError(ChainError):
    """A required ergodicity coefficient is not strictly below one."""


class IngestError(ChainError):
    """An input file could not be read into a valid chain, or a report file could not be written."""
