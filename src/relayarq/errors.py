"""Exception types shared across the package. Each is bad input, which
the CLI reports with exit code 2."""


class RelayArqError(Exception):
    """Base class for errors raised by this package."""


class ContractViolationError(RelayArqError):
    """A parameter, count, seed or preset is out of range; two channel
    vectors given to a relay design differ in length, or one holds a NaN
    or inf; the single-user design has under two relay antennas; a relay
    design's budget (or the max-min design's noise) is not positive and
    finite, the one rule both designs apply, so NaN and inf are refused;
    or a relay design's gain or SINR overflows a float. A zero channel is
    an outcome, not an error."""
