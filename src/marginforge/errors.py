"""Exception types shared across the package.

Each class declares the code the command exits with when it is raised:
a subclass inherits its parent's code unless it declares its own, so
ValidationError exits 2 as ContractError does. An OSError exits 8.
"""


class MarginforgeError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ContractError(MarginforgeError):
    """A documented precondition was violated by the caller."""

    exit_code = 2


class ValidationError(ContractError):
    """A configuration or generator spec is invalid."""


class ParseError(MarginforgeError):
    """An input file could not be parsed; message carries the line number."""

    exit_code = 3


class SchemaError(MarginforgeError):
    """Parsed input violates the dataset, transform or report schema."""

    exit_code = 4


class AlignmentError(MarginforgeError):
    """Walk direction is undefined (zero net horizontal displacement)."""

    exit_code = 5


class DegenerateDataError(MarginforgeError):
    """Data carries no usable variance (e.g. total scatter is zero)."""

    exit_code = 6
