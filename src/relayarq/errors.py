"""Exception types shared across the package."""


class RelayArqError(Exception):
    """Base class for errors raised by this package."""


class DimensionError(RelayArqError):
    """Array shapes are inconsistent with the requested operation."""


class ContractViolationError(RelayArqError):
    """An input fails a structural requirement (e.g. not Hermitian, not PSD)."""


class DegenerateInputError(RelayArqError):
    """An input is valid in shape but degenerate in value (e.g. zero channel)."""
