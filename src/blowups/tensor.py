"""The d-ary intersection form of the exceptional components.

After a sequence of point blow-ups in ambient dimension ``d`` the
exceptional components span a free abelian group on which the degree-zero
intersection products ``H_{i_1} ... H_{i_d}`` define a symmetric d-linear
integer form.  The form is determined by the proximity data through the
total transforms ``H_i^*``: distinct total transforms have vanishing mixed
products, the pure power satisfies ``(H_k^*)^d = (-1)^{d-1} deg(k)``, and
the strict transform expands as ``H_i = H_i^* - sum(H_b^* for b proximate
to i)``.  Writing ``C`` for that strict-to-total change of basis,

    T(i_1, ..., i_d) = (-1)^{d-1} * sum_k C[i_1][k] * ... * C[i_d][k] * deg(k).

Entries are stored sparsely, keyed by nondecreasing index tuples; every
absent entry is zero.  All arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import SearchLimitError
from .forest import MarkedPartition, ProximityForest

__all__ = [
    "IntersectionTensor",
    "TotalTransformMatrix",
    "total_transform_matrix",
    "tensor_from_forest",
    "evaluate",
    "quotient_tensor",
    "diagonal",
]

# The most index elements (dimension times keys) that ``tensor_from_forest`` writes.  It is over
# ten times the 1.1e5 of a d 4, m 400 forest whose every point has four targets, the largest
# shape that the tests, demos and benchmark workloads build or that ROADMAP measures.
OUTPUT_LIMIT = 2 * 10**6


@dataclass(frozen=True)
class TotalTransformMatrix:
    """Strict transforms expanded in the total-transform basis.

    ``rows[i-1][k-1]`` is the coefficient of ``H_k^*`` in ``H_i``: 1 on the
    diagonal, -1 at columns ``k`` proximate to ``i`` (all with ``k > i``),
    0 elsewhere.  The matrix is unit upper triangular.
    """

    rows: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.rows)

    def inverse(self) -> tuple[tuple[int, ...], ...]:
        """Rows of the inverse matrix: total transforms in component coordinates.

        Row ``i`` expresses ``H_i^*`` as a nonnegative integer combination
        of strict transforms, by back substitution in
        ``H_i^* = H_i + sum(H_b^* for b proximate to i)``.
        """
        m = self.size
        inv: list[list[int]] = [[0] * m for _ in range(m)]
        for i in range(m - 1, -1, -1):
            row = [0] * m
            row[i] = 1
            for k in range(i + 1, m):
                if self.rows[i][k] == -1:
                    for c in range(m):
                        row[c] += inv[k][c]
            inv[i] = row
        return tuple(tuple(r) for r in inv)


@dataclass(frozen=True, eq=True)
class IntersectionTensor:
    """A symmetric d-linear integer form on ``size`` components.

    ``entries`` maps nondecreasing index tuples of length ``dimension``
    (1-based indices) to nonzero integers; missing keys are zero.  Keys are
    normalized and zero values dropped at construction; two keys naming
    one multiset and a ``dimension`` below 1 are rejected.  Instances are
    treated as immutable.
    """

    dimension: int
    size: int
    entries: Mapping[tuple[int, ...], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        clean: dict[tuple[int, ...], int] = {}
        for key, value in self.entries.items():
            if len(key) != self.dimension:
                raise ValueError(f"index {key} does not have length {self.dimension}")
            index = tuple(sorted(key))
            if index[0] < 1 or index[-1] > self.size:
                raise ValueError(f"index {key} out of range 1..{self.size}")
            if index in clean:
                raise ValueError(f"index {key} names the multiset {index} a second time")
            clean[index] = value
        object.__setattr__(self, "entries", {index: value for index, value in clean.items() if value})

    @classmethod
    def _trusted(cls, dimension: int, size: int, entries: dict[tuple[int, ...], int]) -> "IntersectionTensor":
        """A tensor on entries already normalized: sorted in-range keys, nonzero values."""
        tensor = object.__new__(cls)
        object.__setattr__(tensor, "dimension", dimension)
        object.__setattr__(tensor, "size", size)
        object.__setattr__(tensor, "entries", entries)
        return tensor

    @cached_property
    def _holding(self) -> dict[int, list[tuple[int, ...]]]:
        """For each component in a stored key, the stored keys that hold it, in entry order.

        Built on first use, in one pass over the entries.
        """
        holding: dict[int, list[tuple[int, ...]]] = {}
        for key in self.entries:
            for a in set(key):
                holding.setdefault(a, []).append(key)
        return holding

    def value(self, index: Iterable[int]) -> int:
        """The entry at a multi-index, in any order; zero if absent."""
        return self.entries.get(tuple(sorted(index)), 0)


def total_transform_matrix(forest: ProximityForest) -> TotalTransformMatrix:
    m = len(forest)
    rows = []
    for i in range(1, m + 1):
        row = [0] * m
        row[i - 1] = 1
        for k in forest.children(i):
            row[k - 1] = -1
        rows.append(tuple(row))
    return TotalTransformMatrix(tuple(rows))


def tensor_from_forest(forest: ProximityForest) -> IntersectionTensor:
    """The intersection form of a valid forest.

    Column ``k`` of the change-of-basis matrix is supported on ``k`` itself
    (coefficient 1) and the targets of ``k`` (coefficient -1), so at most
    ``d + 1`` components interact through any one total transform; the
    tensor is assembled column by column over those supports.  A support
    of ``s`` components writes ``C(s + d - 1, d)`` keys of ``d`` indices;
    when all of them together would hold more than ``OUTPUT_LIMIT`` index
    elements, :class:`SearchLimitError` is raised before any is built.
    """
    d = forest.dimension
    supports = [sorted(forest.targets(k) | {k}) for k in range(1, len(forest) + 1)]
    estimate = d * sum(math.comb(len(support) + d - 1, d) for support in supports)
    if estimate > OUTPUT_LIMIT:
        raise SearchLimitError(f"the tensor would hold about {estimate} index elements, over the bound {OUTPUT_LIMIT}")
    sign = -1 if d % 2 == 0 else 1
    acc: dict[tuple[int, ...], int] = {}
    for k, support in enumerate(supports, 1):
        weight = sign * forest.degree(k)
        for key in itertools.combinations_with_replacement(support, d):
            coeff = -1 if (d - key.count(k)) % 2 else 1
            acc[key] = acc.get(key, 0) + weight * coeff
    entries = {k: v for k, v in acc.items() if v}
    m = len(forest)
    # Keys over sorted supports come sorted and distinct; with targets in 1..m they are in range too.
    if d >= 1 and all(1 <= support[0] and support[-1] <= m for support in supports):
        return IntersectionTensor._trusted(d, m, entries)
    return IntersectionTensor(d, m, entries)  # names the defect as the checking constructor does


def evaluate(tensor: IntersectionTensor, vectors: Sequence[Sequence[int]]) -> int:
    """The multilinear form applied to ``dimension`` integer vectors.

    Each vector has one coordinate per component (position ``i-1`` is the
    coefficient of component ``i``).  The sum runs over the product of the
    vectors' supports, or, when that has over 32 times as many terms as
    there are stored keys (a key costs about as much as 32 terms), over
    the stored keys made of support components, each in every distinct
    arrangement over the slots.  Both are exact in integers.
    """
    d, m = tensor.dimension, tensor.size
    if len(vectors) != d:
        raise ValueError(f"expected {d} vectors, got {len(vectors)}")
    coords: list[dict[int, int]] = []
    for v in vectors:
        if len(v) != m:
            raise ValueError(f"expected vectors of length {m}")
        coords.append({i: int(x) for i, x in enumerate(v, 1) if x})
    entries = tensor.entries
    if math.prod(map(len, coords)) > 32 * len(entries):
        support = set().union(*coords)
        return sum(value * _arranged(key, coords) for key, value in entries.items() if support.issuperset(key))
    total = 0
    for combo in itertools.product(*coords):
        value = entries.get(tuple(sorted(combo)))
        if value:
            for coord, i in zip(coords, combo):
                value *= coord[i]
            total += value
    return total


def _arranged(key: tuple[int, ...], coords: list[dict[int, int]]) -> int:
    """The sum, over the distinct arrangements of ``key`` over the slots, of the product of the slots' coordinates.

    Slot by slot, each multiset of components still to place carries the
    sum over the ways its complement was placed; a slot takes each
    distinct component once.
    """
    placing = {key: 1}
    for coord in coords:
        placed: dict[tuple[int, ...], int] = {}
        for rest, partial in placing.items():
            for at, a in enumerate(rest):
                if (not at or rest[at - 1] != a) and (x := coord.get(a)):
                    left = rest[:at] + rest[at + 1 :]
                    placed[left] = placed.get(left, 0) + partial * x
        placing = placed
    return placing.get((), 0)


def quotient_tensor(tensor: IntersectionTensor, partition: MarkedPartition) -> IntersectionTensor:
    """The form induced on the blocks of a partition.

    Block divisors are the sums of their components.  A stored multiset
    ``K`` lands on the block multiset ``Q`` it maps onto, once per
    arrangement of ``K`` over the slots of ``Q``, which is
    ``prod_b mult_Q(b)! / prod_i mult_K(i)!`` times.  Both keys are
    sorted, so which neighbours are equal gives the multiplicities, and
    the count is worked out once for each such pair of patterns.
    """
    partition.check(tensor.size)
    block_of = partition.index_of()
    entries: dict[tuple[int, ...], int] = {}
    arrangements: dict[tuple, int] = {}  # (equal neighbours of K, equal neighbours of Q) -> count
    for key, value in tensor.entries.items():
        q = tuple(sorted(map(block_of.__getitem__, key)))
        pattern = tuple(map(operator.eq, key, key[1:])), tuple(map(operator.eq, q, q[1:]))
        ways = arrangements.get(pattern)
        if ways is None:
            ways = math.prod(math.factorial(q.count(b)) for b in dict.fromkeys(q))
            ways = arrangements[pattern] = ways // math.prod(math.factorial(key.count(i)) for i in dict.fromkeys(key))
        entries[q] = entries.get(q, 0) + value * ways
    # Block keys are sorted and lie in 1..len(partition); a sum that cancels is dropped here.
    return IntersectionTensor._trusted(tensor.dimension, len(partition), {q: v for q, v in entries.items() if v})


def diagonal(tensor: IntersectionTensor) -> list[int]:
    """Pure powers ``T(i, ..., i)`` for every component, in index order.

    Read off the stored keys whose first and last components agree, so no
    key is built and the cost is ``size`` plus the stored entries, whatever
    the dimension.
    """
    values = [0] * tensor.size
    for key, value in tensor.entries.items():
        if key[0] == key[-1]:
            values[key[0] - 1] = value
    return values
