"""Exception taxonomy shared across the package."""


class MtvError(Exception):
    """Base class for package errors."""


class InputError(MtvError):
    """Malformed or inconsistent input."""


class UnsupportedScopeError(MtvError):
    """Structurally valid request outside the implemented scope."""


class VerificationError(MtvError):
    """An exact identity that must hold failed to hold."""


class TruncationError(MtvError):
    """Series not known to high enough order for the requested operation."""


class PrecisionError(MtvError):
    """Working precision exhausted without a certified answer."""


class ReconstructionError(MtvError):
    """Rational reconstruction failed or would be ambiguous at the bound."""


class ResourceLimitError(MtvError):
    """A request whose size exceeds a fixed cap, refused before any work."""
