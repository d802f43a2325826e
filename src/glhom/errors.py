"""Exception types shared across the package."""


class GlhomError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GlhomError, ValueError):
    """An input value violates a documented invariant."""


class ParseError(GlhomError, ValueError):
    """Malformed input text; carries the offending position."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnsupportedFamily(ParseError):
    """A group-spec names a family this tool does not know."""


class RangeError(GlhomError, ValueError):
    """An integer argument is outside its required range."""


class InvariantViolation(GlhomError, RuntimeError):
    """A computed value broke a proven identity; signals a logic bug, not bad input."""


class ResourceLimit(GlhomError, RuntimeError):
    """A resource cap was exceeded; the message names the quantity and the cap."""
