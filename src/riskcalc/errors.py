"""Exception hierarchy shared across the toolkit.

Every error raised on a user-facing path carries a stable ``code`` string so
that callers (and the CLI) can branch on the failure class without parsing
messages.
"""

from __future__ import annotations


class RiskcalcError(Exception):
    """Base class for all toolkit errors."""

    code = "E_GENERIC"

    def __init__(self, message: str, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class StructuralError(RiskcalcError):
    """Malformed object: shapes, lengths, or block structure do not line up."""

    code = "E_STRUCTURE"


class DomainError(RiskcalcError):
    """Argument outside the mathematical domain of an operation."""

    code = "E_DOMAIN"


class ConfigurationError(RiskcalcError):
    """Operation called with an unsupported combination of options."""

    code = "E_CONFIG"


class InvariantViolation(RiskcalcError):
    """An internal cross-check failed; indicates a bug, not bad input."""

    code = "E_INVARIANT"


class ProblemFormatError(RiskcalcError):
    """Problem file rejected during parsing or validation.

    ``path`` locates the offending field, e.g. ``"constraint.grid"`` or
    ``"objective.integrand[0][1].a"``.
    """

    def __init__(self, code: str, path: str, message: str):
        super().__init__(f"{code} at {path}: {message}")
        self.code = code
        self.path = path
        self.detail = message
