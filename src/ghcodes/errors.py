"""Exception types shared across the package."""

from __future__ import annotations


class GHCodeError(Exception):
    """Base class for all errors raised by this package."""


class InputError(GHCodeError, ValueError):
    """Malformed or out-of-domain input (CLI exit code 2)."""


class NoSecondRow(InputError):
    """The type has a single generator row, so no second-row order exists."""


class CapacityError(GHCodeError):
    """Materialization would exceed the configured memory budget (CLI exit code 3)."""

    def __init__(self, message: str, required_bytes: int, budget_bytes: int):
        super().__init__(message)
        self.required_bytes = required_bytes
        self.budget_bytes = budget_bytes
