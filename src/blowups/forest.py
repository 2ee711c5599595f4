"""Proximity data for sequences of point blow-ups.

A sequence of point blow-ups of a smooth projective variety of dimension
``d`` is recorded combinatorially by three pieces of data: the blown-up
points in creation order, the degree of each point (the degree of its
residue field over the base field), and the proximity relation.  Point
``i`` is *proximate* to an earlier point ``j`` when ``i`` lies on the
strict transform of the exceptional divisor created by blowing up ``j``.
Each point contributes one irreducible exceptional component, so points
and components share the same 1-based index.

:class:`ProximityForest` is that record.  :class:`MarkedPartition` groups
components into blocks, the combinatorial stand-in for divisors that are
irreducible only over a smaller base field.  Nothing in this module
touches the underlying varieties; everything downstream works purely with
indices, degrees and proximity edges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = [
    "Point",
    "ProximityForest",
    "MarkedPartition",
    "Violation",
    "ValidationReport",
    "validate_forest",
    "block_proximity",
    "block_degree",
    "random_forest",
]


@dataclass(frozen=True)
class Point:
    """One blown-up point: its degree and the earlier points it is proximate to."""

    degree: int
    proximate_to: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if type(self.proximate_to) is not frozenset:  # a frozenset is kept as it is, the object given
            object.__setattr__(self, "proximate_to", frozenset(self.proximate_to))


@dataclass(frozen=True)
class ProximityForest:
    """A sequence of point blow-ups, reduced to degrees and proximities.

    ``points[i-1]`` describes the ``i``-th blown-up point.  In a valid
    forest every proximity target precedes its source (``j < i`` for an
    edge ``i -> j``) and no point is proximate to more than ``dimension``
    earlier points.  Construction does not enforce validity; run
    :func:`validate_forest` to obtain a report.  Instances are immutable.
    """

    dimension: int
    points: tuple[Point, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))

    @classmethod
    def make(cls, dimension: int, *points: tuple[int, Iterable[int]]) -> "ProximityForest":
        """Build a forest from ``(degree, targets)`` pairs in creation order."""
        return cls(dimension, tuple(Point(d, frozenset(t)) for d, t in points))

    def __len__(self) -> int:
        return len(self.points)

    def degree(self, i: int) -> int:
        return self.points[i - 1].degree

    def targets(self, i: int) -> frozenset[int]:
        """Indices the ``i``-th point is proximate to."""
        return self.points[i - 1].proximate_to

    def children(self, j: int) -> tuple[int, ...]:
        """Later points proximate to ``j``, ascending."""
        return tuple(i for i, p in enumerate(self.points, 1) if j in p.proximate_to)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All proximity edges as ``(source, target)`` pairs."""
        for i, p in enumerate(self.points, 1):
            for j in sorted(p.proximate_to):
                yield i, j

    def total_degree(self) -> int:
        return sum(p.degree for p in self.points)


@dataclass(frozen=True)
class MarkedPartition:
    """An ordered partition of the component indices into nonempty blocks."""

    blocks: tuple[frozenset[int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(frozenset(b) for b in self.blocks))

    @classmethod
    def singletons(cls, size: int) -> "MarkedPartition":
        return cls(tuple(frozenset({i}) for i in range(1, size + 1)))

    def __len__(self) -> int:
        return len(self.blocks)

    def check(self, size: int) -> None:
        """Raise ``ValueError`` unless this is a partition of ``{1..size}``.

        Costs the total block size, whatever ``size`` is: disjoint blocks
        cover ``1..size`` exactly when they hold ``size`` members, all in range.
        """
        seen: set[int] = set()
        for pos, block in enumerate(self.blocks, 1):
            if not block:
                raise ValueError(f"block {pos} is empty")
            if block & seen:
                raise ValueError(f"block {pos} overlaps an earlier block")
            seen |= block
        if len(seen) != size or seen and not 1 <= min(seen) <= max(seen) <= size:
            raise ValueError(f"blocks do not partition 1..{size}")

    def index_of(self) -> dict[int, int]:
        """Map each component index to its 1-based block index."""
        return {i: b for b, block in enumerate(self.blocks, 1) for i in block}


@dataclass(frozen=True)
class Violation:
    rule: str
    indices: tuple[int, ...]
    message: str


@dataclass(frozen=True)
class ValidationReport:
    """Every invariant violated by a candidate forest, in scan order."""

    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_forest(forest: ProximityForest, strict: bool = False) -> ValidationReport:
    """Check a candidate forest and report every violated invariant.

    The base rules are structural: the ambient dimension is at least 2,
    degrees are positive, proximity targets lie strictly before their
    source, and no point is proximate to more than ``dimension`` targets.
    ``strict`` adds realizability over an actual variety: the degree of a
    point is divisible by the degree of each of its targets, and for
    surfaces (``dimension == 2``) a point proximate to two earlier points
    ``i < j`` requires ``j`` proximate to ``i`` with positive remaining
    intersection degree ``deg(j) - sum(deg(k'))`` over earlier points
    ``k'`` proximate to both.
    """
    found: list[Violation] = []
    d = forest.dimension
    if d < 2:
        found.append(Violation("dimension", (), f"ambient dimension must be >= 2, got {d}"))
    for i, p in enumerate(forest.points, 1):
        if p.degree < 1:
            found.append(Violation("degree-positive", (i,), f"point {i} has degree {p.degree} < 1"))
        for j in sorted(p.proximate_to):
            if not 1 <= j < i:
                found.append(
                    Violation("target-range", (i, j), f"point {i} proximate to {j}, not in 1..{i - 1}")
                )
        if len(p.proximate_to) > d:
            found.append(
                Violation(
                    "target-count",
                    (i,),
                    f"point {i} proximate to {len(p.proximate_to)} points, at most {d} allowed",
                )
            )
    if strict:
        for i, p in enumerate(forest.points, 1):
            for j in sorted(p.proximate_to):
                if 1 <= j < i and p.degree >= 1 and forest.degree(j) >= 1:
                    if p.degree % forest.degree(j):
                        found.append(
                            Violation(
                                "degree-divides",
                                (i, j),
                                f"degree {forest.degree(j)} of point {j} does not divide "
                                f"degree {p.degree} of point {i}",
                            )
                        )
        if d == 2:
            # For each edge ``b -> a`` with ``a < b``, the total degree so far of the points proximate to both.
            through: dict[tuple[int, int], int] = {}
            for k, p in enumerate(forest.points, 1):
                near = {b: forest.targets(b) for b in p.proximate_to if 1 <= b <= len(forest)}
                pair = sorted(j for j in near if j < k)
                if len(pair) == 2:
                    i, j = pair
                    if i not in near[j]:
                        found.append(
                            Violation(
                                "targets-not-proximate",
                                (k, i, j),
                                f"point {k} proximate to both {i} and {j}, but {j} is not proximate to {i}",
                            )
                        )
                    # Intersection degree of components i and j just before k is created.
                    elif (remaining := forest.degree(j) - through.get((i, j), 0)) <= 0:
                        found.append(
                            Violation(
                                "targets-separated",
                                (k, i, j),
                                f"point {k}'s targets {{{i},{j}}} are already separated "
                                f"(remaining intersection degree {remaining})",
                            )
                        )
                for b, targets in near.items():
                    for a in targets & p.proximate_to:
                        if a < b:
                            through[a, b] = through.get((a, b), 0) + p.degree
    return ValidationReport(tuple(found))


def block_proximity(forest: ProximityForest, partition: MarkedPartition) -> frozenset[tuple[int, int]]:
    """Proximity between blocks: ``(a, b)`` iff some ``i`` in block ``a`` is proximate to some ``j`` in block ``b``."""
    partition.check(len(forest))
    block_of = partition.index_of()
    return frozenset((block_of[i], block_of[j]) for i, j in forest.edges())


def block_degree(forest: ProximityForest, partition: MarkedPartition, block_index: int) -> int:
    """Total degree of the points in one block (1-based block index)."""
    partition.check(len(forest))
    if not 1 <= block_index <= len(partition):
        raise IndexError(f"block index {block_index} not in 1..{len(partition)}")
    return sum(forest.degree(i) for i in partition.blocks[block_index - 1])


def random_forest(seed: int, dimension: int, size: int, max_degree: int) -> ProximityForest:
    """A deterministic pseudo-random valid forest.

    For each point in creation order the degree is uniform on
    ``1..max_degree`` and the proximity targets are a uniform-size sample
    of the earlier points, capped at ``dimension``.  The same arguments
    always produce the same forest, and the result passes non-strict
    validation by construction.
    """
    if dimension < 2:
        raise ValueError(f"dimension must be >= 2, got {dimension}")
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    if max_degree < 1:
        raise ValueError(f"max_degree must be >= 1, got {max_degree}")
    rng = random.Random(seed)
    points = []
    for i in range(1, size + 1):
        degree = rng.randint(1, max_degree)
        count = rng.randint(0, min(dimension, i - 1))
        targets = frozenset(rng.sample(range(1, i), count))
        points.append(Point(degree, targets))
    return ProximityForest(dimension, tuple(points))
