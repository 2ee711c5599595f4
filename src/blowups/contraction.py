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
``i`` and ``j`` alone is stored.  One pass over those keys decides
finality; a vanishing pure power is never final.  Contraction rewrites
only the stored keys that hold ``i``, so its cost follows the stored
entries, not ``size^d``.

A blow-up form is a sum of rank-one terms, one per point:
``(-1)^{d-1} deg(k) v_k^d`` with ``v_k`` the basis vector of ``k`` less
those of its targets.  Blowing down the last point only drops its own
term.  So the keys of a final ``i`` with ``n`` neighbours are the
``C(n + d - 1, d - 1)`` multisets over ``i`` and its neighbours that hold
``i``, each with the value of the sign pattern, and the blow-down removes
them and adds ``-(-1)^d T(i^d)`` at each of the ``C(n + d - 1, d)``
multisets of ``d`` neighbours.  Recovery blows down by this rank-one step
alone (:func:`_blow_down`), and the public :func:`contract` by the
pull-back, which is exact on any tensor.

Recovery refuses a tensor as soon as the rank-one step does not fit it.
:func:`_pop_premise` pops the multisets over ``i`` and its neighbours
that hold ``i`` and raises :class:`NotContractibleError` at one that is
missing or holds another value.  A stored key of ``i`` that is not among
them holds a component that is not a neighbour of ``i``.  No later
blow-down pops or writes a key that holds a contracted component, so such
a key survives to the end, and recovery refuses it there: a key left
beside the last pure power.  So a recovery that completes is certified:
each blow-down removed exactly its point's rank-one term and nothing is
left beside the last one, so the input is the form of the recovered
forest.  Conversely a blow-up form meets the premise at every stage of
every order: its finals are the points no point is proximate to, whose
basis vector enters no other point's term.  The tests check this on
every order of a census of forests.  A rank-one blow-down writes only
over the neighbours of its final, so a component in no narrow key (made
of at most two components) never gets one and is never final; recovery
refuses it before any blow-down.

The walk of :func:`recover_all_orders` holds one mutable stage, in
original labels: the entry dict; for each component its narrow keys; and
the finals with their neighbours, also listed in ascending order.  A
blow-down rewrites the stage in place, writing and filing each key it
adds in one pass, and returns an undo record: the final, its pure power,
its narrow keys and the finals it changed.  :func:`_restore` subtracts
the rank-one sums again and puts the popped premise values back, so the
walk backtracks as the trail of a backtracking machine does: each step
costs the keys it touches and no stage is copied.  Finality reads only
narrow keys, and every key a blow-down pops or writes is made of the
final and its neighbours, so finality is decided again only for the
neighbours.  Current labels appear only in the steps.
:func:`recover_sequence` follows the walk's first path through the same
blow-down, without the undo records, the memo and the lists by depth.

The walk lists every order, and consecutive orders share a prefix of
steps.  Beside its path it keeps, for each depth, the step, the creation
indices of the originals it met that are contracted so far and, once all
of them are, its point; and for each original the depths whose step met
it.  A step down writes them and a step back takes out what it added, so
an order costs only the steps it does not share with the one before it,
and all orders take their points from one table of the walk.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

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
    """The ascending neighbours of ``i`` if it is final, else ``None``.

    ``holding[i]`` holds the stored keys that hold ``i``, or at least
    its narrow ones: the pure power and the keys made of ``i`` and one
    other component.  A component with none has a zero pure power, so it
    is turned away before any key of length ``d`` is built.  Finality
    asks ``T(i j^{d-1}) = (-1)^{d-1} T(i^d) > 0``, which reads the pure
    power alone, and ``T(i^{d-r} j^r) = (-1)^r T(i^d)`` for ``0 < r < d``
    against every neighbour ``j``: one pass over the keys made of ``i``
    and one other component, each of which must hold that value, and
    ``d - 1`` of them for each neighbour, so that none is zero.
    """
    keys = holding.get(i)
    if not keys or not (diag := entries.get((i,) * d, 0)) or (diag if d % 2 else -diag) <= 0:
        return None
    met: dict[int, int] = {}  # neighbour -> its keys with i alone
    for k in keys:
        j = k[-1] if k[0] == i else k[0]
        if j != i and (r := k.count(j)) + k.count(i) == d:
            if entries[k] != (-diag if r % 2 else diag):
                return None
            met[j] = met.get(j, 0) + 1
    return tuple(sorted(met)) if all(n == d - 1 for n in met.values()) else None


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


def _premise(d: int, i: int, neighbours: tuple[int, ...], w: int) -> Iterator[tuple[tuple, int]]:
    """The keys of the final ``i`` on the rank-one premise: each multiset of ``d`` over ``i`` and its neighbours that holds ``c > 0`` copies of ``i``, with ``(-1)^(d-c) w``."""
    for key in itertools.combinations_with_replacement(sorted((i, *neighbours)), d):
        if c := key.count(i):
            yield key, -w if (d - c) % 2 else w


def _pop_premise(entries: dict, d: int, i: int, neighbours: tuple[int, ...], w: int) -> None:
    """Pop the keys :func:`_premise` names; raise :class:`NotContractibleError` at the first that is missing or holds another value."""
    for key, value in _premise(d, i, neighbours, w):
        if (held := entries.pop(key, 0)) != value:
            raise NotContractibleError(f"final component {i} is no blown-up point: key {list(key)} holds {held}, not {value}")


def _rank_one(d: int, neighbours: tuple[int, ...], w: int) -> Iterable:
    """The sums of a blow-down: ``-(-1)^d w`` at each multiset of ``d`` neighbours."""
    return zip(itertools.combinations_with_replacement(neighbours, d), itertools.repeat(w if d % 2 else -w))


def _spread_by_moves(removed: dict, i: int, neighbours: tuple[int, ...]) -> dict:
    """The sums the removed keys of the final ``i`` spread to under ``e_j -> e_j + e_i`` at each neighbour ``j``.

    A key ``K`` holding ``k`` copies of ``i`` and others ``R0`` spreads its
    value over ``R0 + R`` for every multiset ``R`` of ``k`` neighbours,
    weighted by ``prod_a C(mult_{R0+R}(a), mult_R(a))``, the number of slot
    choices of ``R0 + R`` that pull back to ``K``.  Each written key is
    sorted back into place.  Keys without ``i`` keep their values.
    """
    sums: dict = {}
    for key, value in removed.items():
        rest = tuple(a for a in key if a != i)
        for spread in itertools.combinations_with_replacement(neighbours, len(key) - len(rest)):
            new = tuple(sorted(rest + spread))
            weight = math.prod(math.comb(new.count(a), spread.count(a)) for a in set(spread))
            sums[new] = sums.get(new, 0) + value * weight
    return sums


def contract(tensor: IntersectionTensor, i: int) -> tuple[IntersectionTensor, ContractionStep]:
    """Blow down the final component ``i`` and renumber the survivors.

    The contracted form is the pull-back along ``e_j -> e_j + e_i`` at
    every neighbour ``j`` of ``i``, computed by :func:`_spread_by_moves`
    from the stored keys that hold ``i``.  It is the numerical blow-down
    on any tensor, a blow-up form or not; on a form it writes what the
    rank-one step of recovery writes.
    """
    _check_index(tensor, i)
    d, m, entries = tensor.dimension, tensor.size, dict(tensor.entries)
    proximities = _final_neighbours(d, entries, tensor._holding, i)
    if proximities is None:
        raise ValueError(f"component {i} is not final")
    step = ContractionStep(i, (-1) ** (d - 1) * entries[(i,) * d], proximities)
    removed = {key: entries.pop(key) for key in tensor._holding[i]}
    for key, added in _spread_by_moves(removed, i, proximities).items():
        if value := entries.get(key, 0) + added:
            entries[key] = value
        else:
            entries.pop(key, None)
    # No key holds ``i`` any more, so renumbering keeps the keys distinct and sorted.
    entries = {key if key[-1] < i else tuple(a - (a > i) for a in key): value for key, value in entries.items()}
    return IntersectionTensor._trusted(d, m - 1, entries), step


def _file(narrow: dict, key: tuple, stored: int) -> None:
    """If ``key`` is narrow, file it under its components when it is ``stored``, else take it out.

    A key is narrow when it is made of at most two components: keys are
    sorted, so its last component follows the copies of its first.
    """
    a, b = key[0], key[-1]
    if a == b or key[key.count(a)] == b:
        for c in {a, b}:
            if stored:
                narrow[c].add(key)
            else:
                narrow[c].discard(key)


def _blow_down(d: int, stage: tuple, i: int) -> tuple:
    """Blow the stage down at its final ``i`` in place by the rank-one step; return the undo record :func:`_restore` reads.

    :func:`_pop_premise` takes the keys of ``i`` out, or refuses the
    tensor.  Every narrow key of ``i`` but its pure power is made of ``i``
    and one neighbour, so one pass over them drops them from the
    neighbours' sets.  One pass over :func:`_rank_one`'s sums writes each
    key and files it when it came in or left.  Every key popped or written
    is made of ``i`` and its neighbours, so only the neighbours are decided
    again.  The undo record holds ``i``, its pure power, its narrow keys
    and the finals changed with their neighbours before.
    """
    entries, narrow, finals, ascending = stage
    neighbours, w = finals[i], entries[(i,) * d]
    _pop_premise(entries, d, i, neighbours, w)
    narrow_keys = narrow.pop(i)
    for key in narrow_keys:
        if key[0] != key[-1]:
            narrow[key[-1] if key[0] == i else key[0]].discard(key)
    for key, added in _rank_one(d, neighbours, w):
        before = entries.get(key, 0)
        if value := before + added:
            entries[key] = value
        else:
            del entries[key]
        if not (value and before):
            _file(narrow, key, value)
    finals_before = {i: neighbours}
    _set_final(finals, ascending, i, None)
    for a in neighbours:
        if (now := _final_neighbours(d, entries, narrow, a)) != (was := finals.get(a)):
            finals_before[a] = was
            _set_final(finals, ascending, a, now)
    return i, w, narrow_keys, finals_before


def _restore(d: int, stage: tuple, undo: tuple) -> None:
    """Undo one :func:`_blow_down`: subtract the rank-one sums, put the premise back, and restore the narrow keys and the finals."""
    entries, narrow, finals, ascending = stage
    i, w, narrow_keys, finals_before = undo
    neighbours = finals_before[i]
    for key, added in _rank_one(d, neighbours, w):
        after = entries.get(key, 0)
        if before := after - added:
            entries[key] = before
        else:
            del entries[key]
        if not (before and after):
            _file(narrow, key, before)
    entries.update(_premise(d, i, neighbours, w))
    for key in narrow_keys:
        if key[0] != key[-1]:
            narrow[key[-1] if key[0] == i else key[0]].add(key)
    narrow[i] = narrow_keys
    for a, was in finals_before.items():
        _set_final(finals, ascending, a, was)


def _last(entries: dict) -> None:
    """Refuse a last stage that stores a key beside the last pure power: such a key holds a contracted component."""
    if len(entries) > 1:
        key = min(key for key in entries if key[0] != key[-1])
        raise NotContractibleError(f"key {list(key)} is left over beside the last component's pure power")


def _set_final(finals: dict, ascending: list, a: int, neighbours: tuple[int, ...] | None) -> None:
    """Record ``a`` as final with ``neighbours``, or as not final for ``None``; ``ascending`` lists the finals."""
    if neighbours is not None:
        if a not in finals:
            bisect.insort(ascending, a)
        finals[a] = neighbours
    elif finals.pop(a, None) is not None:
        del ascending[bisect.bisect_left(ascending, a)]


class _Node:
    """A stage the walk has reached, named by its pairs ``(original contracted, originals met)``.

    The set is a chain of pairs to the parent that first reached the
    stage, and its hash the sum of the pairs' hashes, so naming a child
    costs one step; only stages with equal hashes compare their sets.
    ``edges`` maps each final contracted out of the stage, in ascending
    order, to the step, the pair and the stage reached.
    """

    __slots__ = ("parent", "pair", "hash", "edges")

    def __init__(self, parent: "_Node | None", pair: tuple | None):
        self.parent, self.pair, self.edges = parent, pair, {}
        self.hash = parent.hash + hash(pair) if parent else 0

    def __hash__(self) -> int:
        return self.hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Node) and self.hash == other.hash and self._pairs() == other._pairs()

    def _pairs(self) -> set:
        pairs, stage = set(), self
        while stage.parent:
            pairs.add(stage.pair)
            stage = stage.parent
        return pairs


def _stage(tensor: IntersectionTensor) -> tuple:
    """The root stage over ``tensor``: entries, narrow key sets, finals and the finals ascending.

    A component in no narrow key has no pure power and meets no other
    component, and a rank-one blow-down files no narrow key under it, so
    it is never final: the tensor is refused here, before any blow-down.
    The least such component is among the first ``len(narrow) + 1``.
    """
    d, m, entries = tensor.dimension, tensor.size, dict(tensor.entries)
    narrow: defaultdict[int, set] = defaultdict(set)
    for key in entries:  # files each narrow key as :func:`_file` does, inline on this pass over every key
        a, b = key[0], key[-1]
        if a == b or key[key.count(a)] == b:
            narrow[a].add(key)
            narrow[b].add(key)
    if len(narrow) < m:
        a = min(set(range(1, len(narrow) + 2)).difference(narrow))
        raise NotContractibleError(f"component {a} has no pure power and meets no other component, so it is never final")
    finals = {a: n for a in narrow if (n := _final_neighbours(d, entries, narrow, a)) is not None}
    return entries, narrow, finals, sorted(finals)


def _orders(tensor: IntersectionTensor) -> Iterator[tuple[ProximityForest, ContractionTrace]]:
    """Every full contraction of ``tensor``, depth first by ascending final index.

    Yields in lexicographic order of the contracted index sequences.  The
    walk holds one mutable stage (see the module docstring and
    :func:`_stage`) for the deepest stage derived on its path, and a path
    of frames: the :class:`_Node` reached, the last final tried there (or,
    below a stage reached before, an iterator over its edges) and the undo
    record of the blow-down that derived it.  Backtracking out of a frame
    restores from its undo record, so the mutable stage is its parent
    again, and the next final is the least one above the last tried.  The
    last step blows nothing down: its stage must hold the last pure power
    alone (:func:`_last`).  Only steps use current labels: renumbering
    keeps order, so original ``a`` has current label ``a`` less the number
    of contracted originals below it, counted in ``contracted``.

    A stage is the pull-back of ``tensor`` along the composite of its
    steps, which is fixed by its pairs.  Each stage is derived once by
    :func:`_blow_down`, and each edge out of it is made once.  A stage
    reached a second time was reached first earlier in depth-first
    order, so every edge below it is made already: the walk follows the
    memo below it and leaves the mutable stage alone.  The memo keeps
    only the stage nodes and their edges.

    Beside the path, lists indexed by depth hold what each step on it
    adds to an order, written when the walk steps down, so an order pays
    only for the steps it does not share with the one before it.  The
    step at depth ``t`` creates point ``m - t`` with the step's degree,
    proximate to the points created by the originals it met, which are
    contracted deeper.  So ``targets[t]`` gathers those creation indices
    as the originals are contracted, ``meeting[a]`` lists the depths whose
    step met original ``a``, and ``made[t]`` holds the step's point once
    every original it met is contracted.  A step back takes out what its
    step added to ``targets`` and ``meeting``.  It leaves ``made`` alone:
    ``made`` is read only at a leaf, where every point is complete, and
    each was made on the way to that leaf.  The last step meets nothing
    and completes the points of the steps that met its original; the
    forest is then ``made`` reversed.  Points come from ``points`` (see
    :func:`_point`), so every order shares the points it has in common
    with the others.  This memo, the undo records and the lists by depth
    serve only the orders after the first: :func:`recover_sequence`, which
    needs the first alone, descends without them.
    """
    d, m = tensor.dimension, tensor.size
    if not m:
        yield ProximityForest(d, ()), ContractionTrace(())
        return
    stage = entries, _, finals, ascending = _stage(tensor)
    root = _Node(None, None)
    stages = {root: root}
    contracted: list[int] = []  # originals contracted on the way to the mutable stage, ascending
    below = bisect.bisect_left
    path: list[list] = [[root, 0, None]]  # stage, last final tried or its edges, undo
    steps: list = [None] * m  # the step at each depth of the path
    pairs: list = [None] * m  # each step's pair (original contracted, originals met)
    targets: list[list[int]] = [[] for _ in range(m)]  # each step's creation targets so far, descending
    made: list = [None] * m  # each step's point, once every original it met is contracted
    meeting: defaultdict[int, list[int]] = defaultdict(list)  # original -> the depths whose step met it
    points: dict[tuple, Point] = {}
    while path:
        frame = path[-1]
        node, tried, undo = frame
        derived = None
        if not isinstance(tried, int):
            edge = next(tried, None)
        elif (at := bisect.bisect_right(ascending, tried)) < len(ascending):
            chosen = frame[1] = ascending[at]
            neighbours = finals[chosen]
            c, *met = (a - below(contracted, a) for a in (chosen, *neighbours))
            step = ContractionStep(c, (-1) ** (d - 1) * entries[(chosen,) * d], tuple(met))
            pair = chosen, neighbours
            child = _Node(node, pair)
            edge = node.edges[chosen] = step, pair, stages.setdefault(child, child)
            if len(path) == m:
                _last(entries)
            elif edge[2] is child:
                derived = _blow_down(d, stage, chosen)
                bisect.insort(contracted, chosen)
        elif not tried:
            raise NotContractibleError(f"no final component at stage {len(path)}")
        else:
            edge = None
        if edge is None:
            path.pop()
            if path:
                original, met = pairs[len(path) - 1]
                for t in meeting[original]:
                    targets[t].pop()
                for b in met:
                    meeting[b].pop()
                if undo is not None:
                    _restore(d, stage, undo)
                    del contracted[below(contracted, original)]
            continue
        step, pair, child = edge
        original, met = pair
        depth = len(path) - 1
        steps[depth] = step
        if depth + 1 == m:
            # The last step meets nothing, and completes the points of the steps that met its original.
            made[depth] = _point(points, step.degree, ())
            for t in meeting[original]:
                made[t] = _point(points, steps[t].degree, [*targets[t], 1])
            yield ProximityForest(d, made[::-1]), ContractionTrace(tuple(steps))
            continue
        pairs[depth] = pair
        if not met:
            made[depth] = _point(points, step.degree, ())
        for b in met:
            meeting[b].append(depth)
        for t in meeting[original]:
            got = targets[t]
            got.append(m - depth)
            if len(got) == len(pairs[t][1]):
                made[t] = _point(points, steps[t].degree, got)
        path.append([child, 0, derived] if derived is not None else [child, iter(child.edges.values()), None])


def _point(points: dict, degree: int, targets: Sequence[int]) -> Point:
    """The one point of the walk with this degree and these creation targets, listed descending, made the first time."""
    key = (degree, *targets)
    point = points.get(key)
    if point is None:
        point = points[key] = Point(degree, frozenset(targets))
    return point


def recover_sequence(tensor: IntersectionTensor) -> tuple[ProximityForest, ContractionTrace]:
    """Recover the blow-up sequence of a tensor by iterated contraction.

    At every stage the smallest final index is contracted; the point
    contracted at step ``t`` of ``m`` receives creation index
    ``m + 1 - t``; the result is the first that :func:`recover_all_orders`
    lists.  Raises :class:`NotContractibleError` when the input is not the
    intersection form of any blow-up sequence: a component is never final
    (:func:`_stage`), a nonempty stage has no final component, a blow-down
    does not fit the rank-one premise (:func:`_pop_premise`), or a key is
    left beside the last pure power (:func:`_last`).  A descent that
    completes certifies that the input is the recovered forest's form (see
    the module docstring).

    This is the walk's first path through one mutable stage, blown down at
    the least final by :func:`_blow_down`, with no undo record, memo or
    lists by depth.  It keeps each step and its pair ``(original
    contracted, originals met)``; at the end the original contracted at
    step ``t`` (from 0) has creation index ``m - t``, and each point's
    targets are the creation indices of the originals its step met.
    """
    d, m = tensor.dimension, tensor.size
    stage = entries, _, finals, ascending = _stage(tensor)
    contracted: list[int] = []  # originals contracted so far, ascending
    steps, pairs = [], []  # each step, and its pair (original contracted, originals met)
    for t in range(m):
        if not ascending:
            raise NotContractibleError(f"no final component at stage {t + 1}")
        chosen = ascending[0]
        neighbours = finals[chosen]
        c, *met = (a - bisect.bisect_left(contracted, a) for a in (chosen, *neighbours))
        steps.append(ContractionStep(c, (-1) ** (d - 1) * entries[(chosen,) * d], tuple(met)))
        pairs.append((chosen, neighbours))
        if t + 1 < m:
            _blow_down(d, stage, chosen)
            bisect.insort(contracted, chosen)
    _last(entries)
    created = {original: m - t for t, (original, _) in enumerate(pairs)}
    points: dict[tuple, Point] = {}
    made = [
        _point(points, step.degree, sorted(map(created.__getitem__, met), reverse=True))
        for step, (_, met) in zip(steps, pairs)
    ]
    return ProximityForest(d, made[::-1]), ContractionTrace(tuple(steps))


def recover_all_orders(
    tensor: IntersectionTensor, limit: int = DEFAULT_ORDER_LIMIT
) -> list[tuple[ProximityForest, ContractionTrace]]:
    """Every contraction order of a tensor, depth first by ascending index.

    Results are in lexicographic order of the contracted index sequences.
    Raises :class:`SearchLimitError` if more than ``limit`` complete
    orders exist, and :class:`NotContractibleError` at the first branch
    that shows the input is no blow-up form, in the ways
    :func:`recover_sequence` names.  Every order listed is certified: the
    input is the form of its forest.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    results = list(itertools.islice(_orders(tensor), limit + 1))
    if len(results) > limit:
        raise SearchLimitError(f"more than {limit} contraction orders")
    return results
