"""Exact calculus for sequences of point blow-ups.

Compute the d-ary intersection form of the exceptional components from
proximity data, recover the blow-up sequence from the form by iterated
numerical contraction, and decide combinatorial equivalence of marked
sequences and morphisms.  The package exports exactly the names each
module lists in its own ``__all__``.
"""

from __future__ import annotations

from . import contraction, equivalence, errors, forest, io, tensor
from .contraction import *  # noqa: F403
from .equivalence import *  # noqa: F403
from .errors import *  # noqa: F403
from .forest import *  # noqa: F403
from .io import *  # noqa: F403
from .tensor import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted({*contraction.__all__, *equivalence.__all__, *errors.__all__, *forest.__all__, *io.__all__, *tensor.__all__})
