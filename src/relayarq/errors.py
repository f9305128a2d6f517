"""The package's one exception type, reported by the CLI with exit code
2. Bad input to any function is a ``ContractViolationError``, and so are
the CLI's usage and config errors: a malformed command line or config
file, an out-of-range run parameter or an output file that cannot be
written."""


class ContractViolationError(Exception):
    """A command line or config file is malformed; a parameter, count,
    seed or preset is out of range; an output file cannot be written; two
    channel vectors given to a relay design differ in length, or one holds
    a NaN or inf; the single-user design has under two relay antennas; a
    relay design's budget (or the max-min design's noise) is not positive
    and finite, the one rule both designs apply, so NaN and inf are
    refused; a channel variance given to ``channel.cn`` is negative, NaN
    or infinite; or a relay design's gain or SINR overflows a float. A
    zero channel is an outcome, not an error."""
