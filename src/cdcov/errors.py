"""Exception types shared across the package."""


class CdcovError(Exception):
    """Base class for all package errors."""


class InvalidInputError(CdcovError):
    """Raised when an argument violates a documented precondition."""


class NumericalError(CdcovError):
    """Raised when a numerical routine fails, such as an eigensolve that does not converge."""


class UsageError(CdcovError):
    """Raised for malformed CLI configuration (maps to exit code 2)."""
