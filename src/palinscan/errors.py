"""Exception hierarchy shared across the package."""


class PalinscanError(Exception):
    """Base class for all errors raised by this package."""


class FastaError(PalinscanError, ValueError):
    """Malformed FASTA input."""


class FetchError(PalinscanError, RuntimeError):
    """Remote sequence retrieval failed and no cached copy exists."""


class SingularMatrixError(PalinscanError, ArithmeticError):
    """Matrix inversion requested for a (numerically) singular matrix."""


class ConvergenceError(PalinscanError, RuntimeError):
    """An iterative routine exhausted its iteration budget."""


class NonFiniteError(PalinscanError, ArithmeticError):
    """A numeric evaluation produced NaN or infinity."""


class EstimationError(PalinscanError, ValueError):
    """Model estimation impossible for the given input."""


class DomainError(PalinscanError, ValueError):
    """Argument outside the validity domain of an analytic formula."""


class InfiniteScoreError(PalinscanError, ArithmeticError):
    """Pattern probability is zero, so its log-score is infinite."""


class EmptyBankError(PalinscanError, ValueError):
    """No palindrome available to populate a pattern bank."""


class CrowdedSegmentError(PalinscanError, RuntimeError):
    """A hot-spot segment is too crowded to place the requested patterns."""
