"""Exception types shared across the package."""


class RelayArqError(Exception):
    """Base class for errors raised by this package."""


class DimensionError(RelayArqError):
    """Array shapes are inconsistent with the requested operation."""


class ContractViolationError(RelayArqError):
    """An input fails a structural requirement (e.g. not Hermitian, not PSD)."""


class DegenerateInputError(RelayArqError):
    """An input is valid in shape but degenerate in value (e.g. zero channel)."""


class UnsupportedOrderError(RelayArqError):
    """A closed form is only implemented for a specific antenna count."""


class NumericFailureError(RelayArqError):
    """An iterative numeric routine failed to converge.

    Carries whatever diagnostic payload the caller attached (iteration
    trace, residuals) in ``details``.
    """

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = details
