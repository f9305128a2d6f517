"""The package's one exception type, reported by the CLI with exit code
2. Bad input to any function is a ``ContractViolationError``, and so are
the CLI's usage and config errors: a malformed command line or config
file, an out-of-range run parameter or an output file that cannot be
written."""


class ContractViolationError(Exception):
    """A command line or config file is malformed; a count, seed or
    substream key word is not a whole number in its range
    (``channel.whole``); a real input, such as a config field, a variance,
    a relay design's budget or noise, or a probability, is not a real
    number in its range (``channel.real``); a preset is unknown; an output
    file cannot be written; two channel vectors given to a relay design
    differ in length, or one holds a NaN or inf; the single-user design
    has under two relay antennas; or a relay design's gain or SINR
    overflows a float. A zero channel is an outcome, not an error."""
