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
finality; a vanishing pure power is never final.  Contraction rewrites
only the stored keys that hold ``i``, so its cost follows the stored
entries, not ``size^d``.  Recovery keeps each stage in original labels,
derived from its parent: every rewritten key lies in ``near``, the
components sharing a stored key with ``i``, so only their keys, neighbours
and finality change, and only they are decided again.  Current labels
appear only in the steps.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

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
    """One numerical blow-down, in the labels current at its stage; survivor ``a`` becomes ``a - (a > contracted)``."""

    contracted: int
    degree: int
    proximate_to_current: tuple[int, ...]


@dataclass(frozen=True)
class ContractionTrace:
    """A full contraction history: its steps, which contract all ``len(steps)`` components and fix the rest."""

    steps: tuple[ContractionStep, ...]

    def _survivors(self) -> Iterator[tuple[int, ...]]:
        """After each step in turn, the survivors' original indices in current order, one map at a time."""
        alive = tuple(range(1, len(self.steps) + 1))
        for step in self.steps:
            alive = alive[: step.contracted - 1] + alive[step.contracted :]
            yield alive

    @cached_property
    def index_maps(self) -> tuple[tuple[int, ...], ...]:
        """``index_maps[t]`` lists, after ``t + 1`` steps, the survivors' original indices in current order."""
        return tuple(self._survivors())

    def original_order(self) -> tuple[int, ...]:
        """Original indices in the order they were contracted."""
        stages = itertools.chain([tuple(range(1, len(self.steps) + 1))], self._survivors())
        return tuple(alive[step.contracted - 1] for step, alive in zip(self.steps, stages))

    def creation_indices(self) -> dict[int, int]:
        """Map original tensor indices to creation order in the recovered forest."""
        order = self.original_order()
        m = len(order)
        return {orig: m - t for t, orig in enumerate(order)}


def _check_index(tensor: IntersectionTensor, i: int) -> None:
    if not 1 <= i <= tensor.size:
        raise ValueError(f"index {i} out of range 1..{tensor.size}")


def _mixed(d: int, entries: dict, i: int, j: int) -> list[int]:
    """The mixed products ``T(i^{d-r} j^r)`` for ``r = 1 .. d-1``."""
    return [entries.get((i,) * (d - r) + (j,) * r if i < j else (j,) * r + (i,) * (d - r), 0) for r in range(1, d)]


def empty_intersection(tensor: IntersectionTensor, i: int, j: int) -> bool:
    """Whether components ``i`` and ``j`` are disjoint: all mixed products vanish."""
    _check_index(tensor, i)
    _check_index(tensor, j)
    if i == j:
        raise ValueError("indices must differ")
    return not any(_mixed(tensor.dimension, tensor.entries, i, j))


def _final_neighbours(d: int, entries: dict, holding: dict, i: int) -> tuple[int, ...] | None:
    """The ascending neighbours of ``i`` if it is final, else ``None``; ``holding[i]`` are the keys holding ``i``.

    A component in no stored key has a zero pure power, so it is turned
    away before any key of length ``d`` is built.
    """
    keys = holding.get(i)  # a neighbour shares a key made of the two alone
    if not keys or not (diag := entries.get((i,) * d, 0)):
        return None
    neighbours = sorted({k[-1] if k[0] == i else k[0] for k in keys if k.count(k[0]) + k.count(k[-1]) == d})
    for j in neighbours:
        mixed = _mixed(d, entries, i, j)
        if mixed[-1] <= 0 or any(diag != (x if r % 2 == 0 else -x) for r, x in enumerate(mixed, 1)):
            return None
    return tuple(neighbours) if neighbours or (diag if d % 2 else -diag) > 0 else None


def is_final(tensor: IntersectionTensor, i: int) -> bool:
    """Whether component ``i`` can be blown down at this stage.

    Against every neighbour ``j`` the mixed products must satisfy
    ``T(i^d) = (-1)^r T(i^s j^r)`` for all ``r, s >= 1`` with
    ``r + s = d``, with ``T(i j^{d-1}) > 0``.  A component with no
    neighbours is final iff its pure power has the sign of an isolated
    point, ``(-1)^{d-1} T(i^d) > 0``.  So a vanishing pure power is never
    final.  The one scan that decides this also lists the neighbours.
    """
    _check_index(tensor, i)
    return _final_neighbours(tensor.dimension, tensor.entries, tensor._holding, i) is not None


def final_set(tensor: IntersectionTensor) -> frozenset[int]:
    """The components :func:`is_final` accepts, probing only those in a stored key.

    Any other component has a zero pure power, so it is never final, and
    the cost follows the stored entries, not ``size``.
    """
    return frozenset(i for i in tensor._holding if is_final(tensor, i))


def _spread(d: int, entries: dict, holding: dict, i: int, neighbours: tuple[int, ...]) -> tuple[dict, set]:
    """``entries`` blown down at the final ``i``, in the same labels, and the keys written.

    A stored key ``K`` holding ``k`` copies of ``i`` and others ``R0``
    spreads its value over ``R0 + R`` for every multiset ``R`` of ``k``
    neighbours, weighted by ``prod_a C(mult_{R0+R}(a), mult_R(a))``, the
    number of slot choices of ``R0 + R`` that pull back to ``K``; a key
    without ``i`` keeps its value.  Sums that cancel are dropped.
    """
    sums = dict(entries)
    spreads: dict[int, list] = {}  # k -> each multiset of k neighbours with its multiplicities
    touched: set[tuple[int, ...]] = set()
    for key in holding[i]:
        value = sums.pop(key)
        k = key.count(i)
        if k not in spreads:
            spreads[k] = [
                (spread, [(a, spread.count(a)) for a in set(spread)])
                for spread in itertools.combinations_with_replacement(neighbours, k)
            ]
        start = key.index(i)
        rest = key[:start] + key[start + k :]
        for spread, counts in spreads[k]:
            weight = value
            for a, r in counts:
                weight *= math.comb(rest.count(a) + r, r)
            new = tuple(sorted(rest + spread))
            sums[new] = sums.get(new, 0) + weight
            touched.add(new)
    for key in touched:
        if not sums[key]:
            del sums[key]
    return sums, touched


def contract(tensor: IntersectionTensor, i: int) -> tuple[IntersectionTensor, ContractionStep]:
    """Blow down the final component ``i`` and renumber the survivors.

    The contracted form is the pull-back along ``e_j -> e_j + e_i`` at
    every neighbour ``j`` of ``i``, computed by :func:`_spread` from the
    stored keys that hold ``i``.
    """
    _check_index(tensor, i)
    d, m, entries = tensor.dimension, tensor.size, tensor.entries
    proximities = _final_neighbours(d, entries, tensor._holding, i)
    if proximities is None:
        raise ValueError(f"component {i} is not final")
    step = ContractionStep(i, (-1) ** (d - 1) * entries[(i,) * d], proximities)
    sums, _ = _spread(d, entries, tensor._holding, i, proximities)
    # No key holds ``i`` any more, so renumbering keeps the keys distinct and sorted.
    entries = {key if key[-1] < i else tuple(a - (a > i) for a in key): value for key, value in sums.items()}
    return IntersectionTensor._trusted(d, m - 1, entries), step


def _blow_down(d: int, stage: tuple, i: int) -> tuple:
    """The stage after blowing down its final ``i``: entries, keys holding each component, finals with neighbours."""
    entries, holding, finals = stage
    near = {a for key in holding[i] for a in key} - {i}
    entries, touched = _spread(d, entries, holding, i, finals[i])
    # Every component of a written key is in ``near``; bucket the keys that survive once.
    written: dict[int, set] = {}
    for key in touched:
        if key in entries:
            for a in dict.fromkeys(key):
                written.setdefault(a, set()).add(key)
    holding, finals = dict(holding), dict(finals)
    del holding[i], finals[i]
    for a in near:
        holding[a] = {key for key in holding[a] if key in entries} | written.get(a, set())
        if (neighbours := _final_neighbours(d, entries, holding, a)) is None:
            finals.pop(a, None)
        else:
            finals[a] = neighbours
    return entries, holding, finals


def _orders(tensor: IntersectionTensor) -> Iterator[tuple[ProximityForest, ContractionTrace]]:
    """Every full contraction of ``tensor``, depth first by ascending final index.

    Yields in lexicographic order of the contracted index sequences.  Each
    stack entry is a stage key, the sorted originals contracted so far, the
    history that reached the stage and the final to contract next, as an
    original index; siblings are contracted only when popped, so the first
    result costs exactly the greedy walk.  The history holds, per step,
    the step and the pair ``(original contracted, originals met)``.  Its
    steps are the trace, and its forest follows from the pairs: step ``t``
    of ``m`` creates point ``m + 1 - t`` with the step's degree, proximate
    to the points created by the originals it met.  Only steps use current
    labels: renumbering keeps order, so original ``a`` has current label
    ``a`` less the number of contracted originals below it.

    A stage is the pull-back of ``tensor`` along the composite of its
    steps, which is fixed by the components contracted and the components
    each one met, in original labels.  Keyed by those pairs, each stage is
    derived once by :func:`_blow_down`, from its parent's record, and each
    step out of it is made once.
    """
    d, m = tensor.dimension, tensor.size
    root: frozenset[tuple[int, tuple[int, ...]]] = frozenset()
    entries, holding = tensor.entries, tensor._holding
    # A component in no stored key has a zero pure power, so it is never final.
    finals = {a: n for a in holding if (n := _final_neighbours(d, entries, holding, a)) is not None}
    stages = {root: (entries, holding, finals)}
    edges: dict[tuple[frozenset, int], tuple[ContractionStep, tuple, frozenset]] = {}  # -> (step, pair, key reached)
    stack = [(root, (), (), None)]
    while stack:
        key, contracted, history, chosen = stack.pop()
        if chosen is not None:
            edge = edges.get((key, chosen))
            if edge is None:
                entries, _, finals = stage = stages[key]
                c, *met = (a - bisect.bisect_left(contracted, a) for a in (chosen, *finals[chosen]))
                step = ContractionStep(c, (-1) ** (d - 1) * entries[(chosen,) * d], tuple(met))
                pair = chosen, finals[chosen]
                edge = edges[key, chosen] = step, pair, key | {pair}
                if edge[2] not in stages:
                    stages[edge[2]] = _blow_down(d, stage, chosen)
            step, pair, key = edge
            contracted = tuple(sorted((*contracted, chosen)))
            history += ((step, pair),)
        if len(history) == m:
            creation = {original: m - t for t, (_, (original, _)) in enumerate(history)}
            points = [Point(s.degree, frozenset(creation[j] for j in met)) for s, (_, met) in reversed(history)]
            yield ProximityForest(d, tuple(points)), ContractionTrace(tuple(s for s, _ in history))
            continue
        if not stages[key][2]:
            raise NotContractibleError(f"no final component at stage {len(history) + 1}")
        stack.extend((key, contracted, history, k) for k in sorted(stages[key][2], reverse=True))


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
