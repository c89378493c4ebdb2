"""Exception types shared across the package."""


class AnleakError(Exception):
    """Base class for package-specific errors."""


class ConfigError(AnleakError):
    """A configuration file or CLI parameter set is malformed or inconsistent."""


class NotApplicable(AnleakError, ValueError):
    """A bound does not apply at a configuration; ``code`` is the stable
    reason code that ``anleak sweep`` and ``anleak bounds`` print."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class DegenerateChannelError(AnleakError):
    """A sampled or supplied channel matrix is numerically rank deficient.

    Raised when an operation that assumes full row rank (null-space
    extraction, zero-forcing pseudo-inverse) meets a matrix whose smallest
    singular value falls below the relative rank tolerance.
    """
