"""Exception types shared across the package, and the one formatter of
caller-sized values in their messages."""

_SHOWN_DIGITS = 100


def _brief(value) -> str:
    """repr(value) for an error message, except that an int of more than
    _SHOWN_DIGITS digits reads "a D-digit integer" (or "a negative D-digit
    integer"). D comes from the bit length and one power of ten: str() of an
    int above 4300 digits raises under CPython's default digit limit."""
    if isinstance(value, int) and not isinstance(value, bool):
        magnitude = abs(value)
        # 2**(b-1) <= magnitude < 2**b puts D at this estimate or one above it
        digits = int((magnitude.bit_length() - 1) * 0.30102999566398120) + 1
        if magnitude >= 10**digits:
            digits += 1
        if digits > _SHOWN_DIGITS:
            return f"a {'negative ' if value < 0 else ''}{digits}-digit integer"
    return repr(value)


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
