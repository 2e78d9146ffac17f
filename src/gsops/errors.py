"""Exception types shared across the package."""

from __future__ import annotations


class InvariantViolation(RuntimeError):
    """An identity that must hold exactly failed to do so (a bug, never silent)."""


class ToleranceError(RuntimeError):
    """A computation could not be certified to its target tolerance."""


class PreconditionError(ValueError):
    """An inequality check was asked for a function outside its hypotheses.

    The message states which smoothness requirement failed; callers surface
    this as a skipped row, not a failure.
    """
