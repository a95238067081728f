"""Exception types shared across the package."""


class CrtourError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(CrtourError, ValueError):
    """An argument violates an operation's precondition."""


class ResourceLimitError(CrtourError, RuntimeError):
    """A request exceeds a fixed size cap."""


class TheoremViolationError(CrtourError):
    """Two routes that must agree by a proven identity disagreed.

    Raising this means either the implementation is wrong or the inputs
    escaped a guard; it is never an expected runtime outcome.
    """
