"""Recovering a blow-up sequence from its intersection form.

The last blown-up point leaves a *final* component: one whose pure power
and mixed products with every neighbour satisfy the rigid sign pattern
``T(i^d) = (-1)^r T(i^s j^r)`` with ``T(i j^{d-1}) > 0``.  Blowing that
point back down transforms the form by substituting ``e_j + e_i`` for
``e_j`` at every neighbour ``j`` of the final component ``i`` and dropping
``i``.  Iterating numerical contraction recovers the whole sequence: the
degree of the contracted point is ``(-1)^{d-1} T(i^d)`` and its proximity
targets are exactly the components it intersected when it was contracted.

Neighbourhood is decided purely numerically: components ``i`` and ``j``
are disjoint iff every mixed product ``T(i^s j^r)`` with ``r, s >= 1``
vanishes.  Zero entries are never stored, so they meet iff a key made of
``i`` and ``j`` alone is stored.  One scan over the neighbours decides
finality; a vanishing pure power is never final.  Contraction walks the
stored entries, so its cost follows them, not ``size^d``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import NotContractibleError, SearchLimitError
from .forest import Point, ProximityForest
from .tensor import IntersectionTensor

__all__ = [
    "ContractionStep",
    "ContractionTrace",
    "empty_intersection",
    "is_final",
    "final_set",
    "contract",
    "recover_sequence",
    "recover_all_orders",
]

DEFAULT_ORDER_LIMIT = 1000


@dataclass(frozen=True)
class ContractionStep:
    """One numerical blow-down, in the index labels current at its stage.

    ``index_map[old - 1]`` is the renumbered index of a surviving
    component (``None`` at the contracted one); survivors keep their
    relative order.
    """

    contracted: int
    degree: int
    proximate_to_current: tuple[int, ...]
    index_map: tuple[int | None, ...]

    @classmethod
    def at(cls, contracted: int, stage: int, degree: int, proximities: Iterable[int]) -> "ContractionStep":
        """The step blowing down ``contracted`` at a stage of ``stage`` components."""
        index_map = tuple(None if a == contracted else a if a < contracted else a - 1 for a in range(1, stage + 1))
        return cls(contracted, degree, tuple(proximities), index_map)


@dataclass(frozen=True)
class ContractionTrace:
    """A full contraction history.

    ``index_maps[t]`` lists, after ``t + 1`` steps, the original indices
    of the surviving components in their current order; the last entry is
    empty.
    """

    steps: tuple[ContractionStep, ...]
    index_maps: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, steps: tuple[ContractionStep, ...]) -> "ContractionTrace":
        """The history of ``steps``, contracting all of ``len(steps)`` components."""
        alive = tuple(range(1, len(steps) + 1))
        maps = []
        for step in steps:
            alive = alive[: step.contracted - 1] + alive[step.contracted :]
            maps.append(alive)
        return cls(tuple(steps), tuple(maps))

    def original_order(self) -> tuple[int, ...]:
        """Original indices in the order they were contracted."""
        stages = (tuple(range(1, len(self.steps) + 1)),) + self.index_maps
        return tuple(alive[step.contracted - 1] for step, alive in zip(self.steps, stages))

    def creation_indices(self) -> dict[int, int]:
        """Map original tensor indices to creation order in the recovered forest."""
        order = self.original_order()
        m = len(order)
        return {orig: m - t for t, orig in enumerate(order)}


def _check_index(tensor: IntersectionTensor, i: int) -> None:
    if not 1 <= i <= tensor.size:
        raise ValueError(f"index {i} out of range 1..{tensor.size}")


def _mixed(tensor: IntersectionTensor, i: int, j: int) -> list[int]:
    """The mixed products ``T(i^{d-r} j^r)`` for ``r = 1 .. d-1``."""
    d, get = tensor.dimension, tensor.entries.get
    return [get((i,) * (d - r) + (j,) * r if i < j else (j,) * r + (i,) * (d - r), 0) for r in range(1, d)]


def empty_intersection(tensor: IntersectionTensor, i: int, j: int) -> bool:
    """Whether components ``i`` and ``j`` are disjoint: all mixed products vanish."""
    _check_index(tensor, i)
    _check_index(tensor, j)
    if i == j:
        raise ValueError("indices must differ")
    return not any(_mixed(tensor, i, j))


def _final_neighbours(tensor: IntersectionTensor, i: int) -> tuple[int, ...] | None:
    """The neighbours of ``i`` in ascending order if ``i`` is final, else ``None``."""
    _check_index(tensor, i)
    d = tensor.dimension
    diag = tensor.entries.get((i,) * d, 0)
    if not diag:
        return None
    neighbours = tensor._meets.get(i, ())
    for j in neighbours:
        mixed = _mixed(tensor, i, j)
        if mixed[-1] <= 0 or any(diag != (x if r % 2 == 0 else -x) for r, x in enumerate(mixed, 1)):
            return None
    return neighbours if neighbours or (diag if d % 2 else -diag) > 0 else None


def is_final(tensor: IntersectionTensor, i: int) -> bool:
    """Whether component ``i`` can be blown down at this stage.

    Against every neighbour ``j`` the mixed products must satisfy
    ``T(i^d) = (-1)^r T(i^s j^r)`` for all ``r, s >= 1`` with
    ``r + s = d``, with ``T(i j^{d-1}) > 0``.  A component with no
    neighbours is final iff its pure power has the sign of an isolated
    point, ``(-1)^{d-1} T(i^d) > 0``.  So a vanishing pure power is never
    final.  The one scan that decides this also lists the neighbours.
    """
    return _final_neighbours(tensor, i) is not None


def final_set(tensor: IntersectionTensor) -> frozenset[int]:
    return frozenset(i for i in range(1, tensor.size + 1) if is_final(tensor, i))


def contract(tensor: IntersectionTensor, i: int) -> tuple[IntersectionTensor, ContractionStep]:
    """Blow down the final component ``i`` and renumber the survivors.

    The contracted form is the pull-back along ``e_j -> e_j + e_i`` at
    every neighbour ``j`` of ``i``, computed from the stored entries.  A
    stored key ``K`` holding ``k`` copies of ``i`` and survivors ``R0``
    spreads its value over ``R0 + R`` for every multiset ``R`` of ``k``
    neighbours, weighted by ``prod_a C(mult_{R0+R}(a), mult_R(a))``, the
    number of slot choices of ``R0 + R`` that pull back to ``K``; a key
    without ``i`` keeps its value.  Sums that cancel are dropped.
    """
    proximities = _final_neighbours(tensor, i)
    if proximities is None:
        raise ValueError(f"component {i} is not final")
    d, m = tensor.dimension, tensor.size
    step = ContractionStep.at(i, m, (-1) ** (d - 1) * tensor.entries[(i,) * d], proximities)
    renumber = (None,) + step.index_map
    sums: dict[tuple[int, ...], int] = {}
    holding: list[tuple[tuple[int, ...], int]] = []
    for key, value in tensor.entries.items():
        if i in key:
            holding.append((key, value))
        else:  # renumbering is injective on survivors, so these keys stay distinct
            sums[key if key[-1] < i else tuple(map(renumber.__getitem__, key))] = value
    spreads: dict[int, list] = {}  # k -> each multiset of k neighbours with its multiplicities
    touched: set[tuple[int, ...]] = set()
    for key, value in holding:
        k = key.count(i)
        if k not in spreads:
            spreads[k] = [
                (spread, [(a, spread.count(a)) for a in set(spread)])
                for spread in itertools.combinations_with_replacement(proximities, k)
            ]
        start = key.index(i)
        rest = key[:start] + key[start + k :]
        for spread, counts in spreads[k]:
            weight = value
            for a, r in counts:
                weight *= math.comb(rest.count(a) + r, r)
            new = tuple(map(renumber.__getitem__, sorted(rest + spread)))
            sums[new] = sums.get(new, 0) + weight
            touched.add(new)
    for key in touched:
        if not sums[key]:
            del sums[key]
    return IntersectionTensor._trusted(d, m - 1, sums), step


def _orders(tensor: IntersectionTensor) -> Iterator[tuple[ProximityForest, ContractionTrace]]:
    """Every full contraction of ``tensor``, depth first by ascending final index.

    Yields in lexicographic order of the contracted index sequences.  Each
    stack entry is a stage key, the original indices still alive, the
    history that reached the stage and the final index to contract next;
    siblings are contracted only when popped, so the first result costs
    exactly the greedy walk.  The history holds, per step, the step, the
    original indices alive after it and the pair ``(original contracted,
    originals met)``.  A full history is the trace, and its forest follows:
    step ``t`` of ``m`` creates point ``m + 1 - t`` with the step's degree,
    proximate to the points created by the originals it met.

    A stage is the pull-back of ``tensor`` along the composite of its
    steps, which is fixed by the components contracted and the components
    each one met, in original labels.  Keyed by those pairs, each stage's
    tensor and finals and each contraction out of it are computed once.
    """
    root: frozenset[tuple[int, tuple[int, ...]]] = frozenset()
    tensors = {root: tensor}
    finals: dict[frozenset, list[int]] = {}  # descending, as the stack pops them
    edges: dict[tuple[frozenset, int], tuple[ContractionStep, tuple, frozenset]] = {}  # -> (step, pair, key reached)
    stack = [(root, tuple(range(1, tensor.size + 1)), (), None)]
    while stack:
        key, alive, history, chosen = stack.pop()
        if chosen is not None:
            edge = edges.get((key, chosen))
            if edge is None:
                child, step = contract(tensors[key], chosen)
                pair = alive[chosen - 1], tuple(alive[a - 1] for a in step.proximate_to_current)
                edge = edges[key, chosen] = step, pair, key | {pair}
                tensors.setdefault(edge[2], child)
            step, pair, key = edge
            alive = alive[: chosen - 1] + alive[chosen:]
            history += ((step, alive, pair),)
        if not alive:
            m = len(history)
            creation = {original: m - t for t, (_, _, (original, _)) in enumerate(history)}
            points = [Point(s.degree, frozenset(creation[j] for j in met)) for s, _, (_, met) in reversed(history)]
            trace = ContractionTrace(tuple(s for s, _, _ in history), tuple(a for _, a, _ in history))
            yield ProximityForest(tensor.dimension, tuple(points)), trace
            continue
        if key not in finals:
            finals[key] = sorted(final_set(tensors[key]), reverse=True)
        if not finals[key]:
            raise NotContractibleError(f"no final component at stage {len(history) + 1}")
        stack.extend((key, alive, history, k) for k in finals[key])


def recover_sequence(tensor: IntersectionTensor) -> tuple[ProximityForest, ContractionTrace]:
    """Recover the blow-up sequence of a tensor by iterated contraction.

    At every stage the smallest final index is contracted; the point
    contracted at step ``t`` of ``m`` receives creation index
    ``m + 1 - t``; the result is the first that :func:`recover_all_orders`
    lists.  Raises :class:`NotContractibleError` when a nonempty stage has
    no final component, i.e. the input is not the intersection form of any
    blow-up sequence.
    """
    return next(_orders(tensor))


def recover_all_orders(
    tensor: IntersectionTensor, limit: int = DEFAULT_ORDER_LIMIT
) -> list[tuple[ProximityForest, ContractionTrace]]:
    """Every contraction order of a tensor, depth first by ascending index.

    Results are in lexicographic order of the contracted index sequences.
    Raises :class:`SearchLimitError` if more than ``limit`` complete
    orders exist and :class:`NotContractibleError` if any branch reaches a
    nonempty stage with no final component.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    results = list(itertools.islice(_orders(tensor), limit + 1))
    if len(results) > limit:
        raise SearchLimitError(f"more than {limit} contraction orders")
    return results
