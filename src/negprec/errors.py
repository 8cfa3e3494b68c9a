"""Error taxonomy shared across the package.

Each kind carries the CLI's exit code for it and the label its message is
printed under. Library code raises them directly.
"""


class NegprecError(Exception):
    """Base class for all package errors."""


class UsageError(NegprecError):
    """Bad invocation: unknown flags, missing arguments, malformed config."""

    exit_code, label = 1, "usage error"


class DataError(NegprecError):
    """Broken input data: schema violations, integrity failures, missing files."""

    exit_code, label = 2, "data error"


class NumericError(NegprecError):
    """Numeric failure: divergence, non-finite gradients, failed checks."""

    exit_code, label = 3, "numeric error"
