"""Exception types shared across the package."""
from __future__ import annotations

__all__ = ["CapacityError", "DomainError", "ParseError"]


class DomainError(ValueError):
    """An argument violates a documented precondition."""


class CapacityError(RuntimeError):
    """The request exceeds a hard size limit (ground set, enumeration, retries)."""


class ParseError(ValueError):
    """A family text file is malformed.  Carries the 1-based offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
