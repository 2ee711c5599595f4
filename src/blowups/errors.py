"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["BlowupsError", "SchemaError", "NotContractibleError", "SearchLimitError"]


class BlowupsError(Exception):
    """Base class for domain errors raised by this package."""


class SchemaError(BlowupsError):
    """A JSON document does not match its declared file format."""


class NotContractibleError(BlowupsError):
    """A tensor is not the intersection form of any blow-up sequence."""


class SearchLimitError(BlowupsError):
    """An enumeration or search exceeded its guard limit."""
