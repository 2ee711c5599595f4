from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

from blowups import ProximityForest

# ``pythonpath`` in pyproject.toml serves this process only; the CLI tests
# start ``python -m blowups`` children, which must import this checkout too.
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def three_chain_mixed() -> ProximityForest:
    """Degrees 1, 1, 3 with 2 proximate to 1 and 3 proximate to 2."""
    return ProximityForest.make(4, (1, []), (1, [1]), (3, [2]))


@pytest.fixture
def three_chain_mixed_prime() -> ProximityForest:
    """Degrees 1, 2, 2 on the same proximity shape; same diagonal multiset, different form."""
    return ProximityForest.make(4, (1, []), (2, [1]), (2, [2]))


@pytest.fixture
def surface_chain() -> ProximityForest:
    """Two degree-1 points on a surface, the second proximate to the first."""
    return ProximityForest.make(2, (1, []), (1, [1]))


@pytest.fixture
def low_recursion_limit():
    """Python's recursion limit lowered to 200 for one test, to show that a deep search does not depend on it."""
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)
