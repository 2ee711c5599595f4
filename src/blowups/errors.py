"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["BlowupsError", "SchemaError", "NotContractibleError", "SearchLimitError"]


class BlowupsError(Exception):
    """Base class for domain errors raised by this package."""


class SchemaError(BlowupsError):
    """A JSON document does not match its declared file format."""


class NotContractibleError(BlowupsError):
    """A tensor is not the intersection form of any blow-up sequence.

    Recovery also raises it at a final that meets more than ``d``
    components: a point of a smooth ``d``-fold lies on at most ``d``
    exceptional divisors, so no forest the package accepts has such a form.
    """


class SearchLimitError(BlowupsError):
    """An enumeration or search exceeded its guard limit."""
