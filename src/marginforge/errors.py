"""Exception types shared across the package.

Each class maps to a distinct CLI exit code (see cli.EXIT_CODES).
"""


class MarginforgeError(Exception):
    """Base class for all errors raised by this package."""


class ContractError(MarginforgeError):
    """A documented precondition was violated by the caller."""


class ValidationError(ContractError):
    """A configuration or generator spec is invalid."""


class ParseError(MarginforgeError):
    """An input file could not be parsed; message carries the line number."""


class SchemaError(MarginforgeError):
    """Parsed input violates the dataset, transform or report schema."""


class AlignmentError(MarginforgeError):
    """Walk direction is undefined (zero net horizontal displacement)."""


class DegenerateDataError(MarginforgeError):
    """Data carries no usable variance (e.g. total scatter is zero)."""


class DegenerateMetricWarning(RuntimeWarning):
    """A metric hit a zero denominator and returned an infinity marker."""
