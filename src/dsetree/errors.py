"""Exception types shared across the package."""


class DsetreeError(Exception):
    """Base class for all errors raised by this package."""


class MalformedCode(DsetreeError):
    """A tree or forest code string could not be parsed."""


class InvalidArgument(DsetreeError, ValueError):
    """An argument lies outside the values its function accepts; a ``ValueError`` too."""


class SizeLimit(DsetreeError):
    """A requested enumeration or expansion exceeds the configured bound."""


class InvalidSpec(DsetreeError):
    """A fixpoint-equation spec violates its well-formedness conditions."""


class OrderExceeded(DsetreeError):
    """A series coefficient beyond the truncation order was requested."""


class Nonfinite(DsetreeError):
    """An enumeration was requested that would produce infinitely many trees."""


class ArityMismatch(DsetreeError):
    """A node was built or visited with the wrong number of children."""
