"""Exception types shared across the library."""

from __future__ import annotations


class BrownlabError(Exception):
    """Base class for all library errors."""


class InvalidArgumentError(BrownlabError, ValueError):
    """An argument is outside an operation's domain (bad color, zero gap bound, ...)."""


class PreconditionError(BrownlabError, ValueError):
    """A declared precondition was violated, e.g. a fast path that needs a
    nondecreasing growth function was handed one without the flag."""


class ResourceLimitError(BrownlabError, RuntimeError):
    """An input exceeds a configured resource cap (brute-force oracle length, ...)."""


class MagnitudeError(BrownlabError, OverflowError):
    """A requested value does not fit the configured magnitude caps; the
    message names the arguments that overflowed."""


class InsufficientPrefixError(BrownlabError, ValueError):
    """A finite prefix is too short for the requested analysis."""


class GrowthSpecError(BrownlabError, ValueError):
    """A growth spec string failed to parse; ``position`` is the 0-based offset
    of the offending character."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ColoringFileError(BrownlabError, ValueError):
    """A coloring file failed to parse; ``line`` and ``column`` are 1-based."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column
