"""Exception types shared across the package."""


class RelayArqError(Exception):
    """Base class for errors raised by this package."""


class DimensionError(RelayArqError):
    """Two channel vectors given to a relay design differ in length."""


class ContractViolationError(RelayArqError):
    """A parameter, count, seed or preset is out of range, or a relay
    design's gain or SINR overflows a float."""


class DegenerateInputError(RelayArqError):
    """The single-user design has under two relay antennas or a budget that
    is not positive. A zero channel is an outcome, not an error."""
