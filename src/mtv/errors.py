"""Exception taxonomy shared across the package, with each class's exit code."""


class MtvError(Exception):
    """Base class for package errors."""
    exit_code = 1


class InputError(MtvError):
    """Malformed or inconsistent input."""
    exit_code = 3


class UnsupportedScopeError(MtvError):
    """Structurally valid request outside the implemented scope."""
    exit_code = 3


class VerificationError(MtvError):
    """An exact identity that must hold failed to hold."""
    exit_code = 2


class TruncationError(MtvError):
    """Series not known to high enough order for the requested operation."""
    exit_code = 4


class PrecisionError(MtvError):
    """Working precision exhausted without a certified answer."""
    exit_code = 4


class ReconstructionError(MtvError):
    """Rational reconstruction failed or would be ambiguous at the bound."""
    exit_code = 4


class ResourceLimitError(MtvError):
    """A request whose size exceeds a fixed cap, refused before any work."""
    exit_code = 4


def require_within(size, cap, what, *args):
    """Refuse, before any work, a request whose size is above its cap; the
    message names the size as what % args."""
    if size > cap:
        raise ResourceLimitError("%s is %d, above the cap of %d" % (what % args, size, cap))
