"""Exception types shared across the package."""


class NzeckError(Exception):
    """Base class for all domain errors raised by this package."""


class IndexNotFound(NzeckError):
    """No sequence index satisfies the requested constraints."""


class InvalidDecomposition(NzeckError):
    """Index list violates the lower-bound or gap invariants."""


class BlockTooLarge(NzeckError):
    """Requested block would exceed the configured length cap."""


class ScanLimitExceeded(NzeckError):
    """Requested scan would exceed the configured scan limit."""
