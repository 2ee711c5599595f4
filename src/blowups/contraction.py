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
term.  So when the keys of a final ``i`` with ``n`` neighbours are all
the multisets over ``i`` and its neighbours that hold ``i``, each with
the value of the sign pattern, the blow-down removes them and adds
``-(-1)^d T(i^d)`` at each of the ``C(n + d - 1, d)`` multisets of ``d``
neighbours; see :func:`_spread`.  Only a stage that fails this premise,
and so is no blow-up form, spreads its keys move by move.

:func:`recover_sequence` needs one order, and tries a *premise descent*
first: one mutable stage that files only narrow keys (made of at most two
components) and keeps no undo log.  Each blow-down of the least final
``i`` pops the ``C(n + d - 1, d - 1)`` multisets over ``i`` and its
neighbours that hold ``i``, each of which must hold its value in the sign
pattern, and writes the rank-one sums.  A stored key of ``i`` that is not
among them holds a component that is not a neighbour of ``i``.  No later
blow-down pops or writes a key that holds a contracted component, so such
a key survives to the end.  So the descent has left the premise exactly
when a popped key is missing or holds another value, when a key is left
beside the last pure power, or when a stage with no final still stores a
key that holds a contracted component; :func:`recover_sequence` then
answers with the first order of the walk below.  Otherwise every
blow-down met the premise of :func:`_spread` and wrote what the walk
writes, so the descent is the walk's first order, and a completed descent
certifies that the input is the form of the recovered forest: each
blow-down removed exactly its point's rank-one term, and nothing is left
beside the last one.

The walk of :func:`recover_all_orders` holds one mutable stage, in
original labels: the entry dict; for each component its narrow keys
(held exactly) and its *wide* keys (three or more components, of which
some may have left the entries); and the finals with their neighbours,
also listed in ascending order.  A blow-down rewrites the stage in place,
writing and filing each key it adds in one pass, and returns an undo log:
each removed or written key with its old value, the narrow keys that came
in or left, the contracted component's key sets and the finals it
changed.  Replaying the log restores the parent when the walk
backtracks, as the trail of a backtracking machine does, so each step
costs the keys it touches and no stage is copied.  Finality reads only
narrow keys, so it is decided again only for the components of a
changed narrow key.  Current labels appear only in the steps.

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


def _spread(entries: dict, keys: Iterable, i: int, neighbours: tuple[int, ...]) -> tuple[dict, Iterable]:
    """Take the stored keys ``keys`` of the final ``i`` out of ``entries``; return them and what its blow-down adds.

    On a blow-up form the part of the form at ``i`` is one rank-one term
    less another: ``w (v^d - u^d)`` with ``w = T(i^d)``, ``u = -sum e_j``
    over the ``n`` neighbours ``j`` and ``v = e_i + u``.  Under
    ``e_j -> e_j + e_i`` every survivor pairs to 0 with ``v`` and every
    neighbour to -1 with ``u``, so the blow-down drops the keys of ``i``
    and adds ``-(-1)^d w`` at each of the ``C(n + d - 1, d)`` multisets of
    ``d`` neighbours (:func:`_rank_one`); keys without ``i`` keep their
    values.  Its premise is read in one pass over the removed keys: every
    key of ``i`` is made of ``i`` and its neighbours, one with ``c`` copies
    of ``i`` holds ``(-1)^(d-c) w``, and there are ``C(n + d - 1, d - 1)``
    of them, so every such multiset is stored.

    A stage that fails the premise is no blow-up form, and its keys
    spread one by one: a key ``K`` holding ``k`` copies of ``i`` and
    others ``R0`` spreads its value over ``R0 + R`` for every multiset
    ``R`` of ``k`` neighbours, weighted by ``prod_a C(mult_{R0+R}(a),
    mult_R(a))``, the number of slot choices of ``R0 + R`` that pull back
    to ``K``.  Each written key is sorted back into place.

    Returns the removed keys with their values, and the sums to add as
    ``(key, sum)`` pairs.  The caller writes the sums; a key whose sum
    cancels to 0 keeps its value, and one whose new value is 0 is dropped.
    """
    old = {key: entries.pop(key) for key in keys}
    n, d = len(neighbours), len(next(iter(old)))
    w = old[(i,) * d]
    members = {i, *neighbours}
    if len(old) == math.comb(n + d - 1, d - 1):
        for key, value in old.items():
            if value != (-w if (d - key.count(i)) % 2 else w) or not members.issuperset(key):
                break
        else:
            return old, _rank_one(d, neighbours, w)
    return old, _spread_by_moves(old, i, neighbours).items()


def _pop_premise(entries: dict, d: int, i: int, neighbours: tuple[int, ...], w: int) -> bool:
    """Pop the multisets of ``d`` over ``i`` and its neighbours that hold ``i``; whether each held the premise's value.

    That value is ``(-1)^(d-c) w`` for ``c`` copies of ``i``, as in
    :func:`_spread`.  The pops stop at the first key that is missing or
    holds another value.
    """
    for key in itertools.combinations_with_replacement(sorted((i, *neighbours)), d):
        if (c := key.count(i)) and entries.pop(key, None) != (-w if (d - c) % 2 else w):
            return False
    return True


def _rank_one(d: int, neighbours: tuple[int, ...], w: int) -> Iterable:
    """The sums of an on-premise blow-down: ``-(-1)^d w`` at each multiset of ``d`` neighbours."""
    return zip(itertools.combinations_with_replacement(neighbours, d), itertools.repeat(w if d % 2 else -w))


def _spread_by_moves(removed: dict, i: int, neighbours: tuple[int, ...]) -> dict:
    """The sums each removed key of ``i`` spreads to, move by move, as :func:`_spread` describes off its premise."""
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
    every neighbour ``j`` of ``i``, computed by :func:`_spread` from the
    stored keys that hold ``i``.
    """
    _check_index(tensor, i)
    d, m, entries = tensor.dimension, tensor.size, dict(tensor.entries)
    proximities = _final_neighbours(d, entries, tensor._holding, i)
    if proximities is None:
        raise ValueError(f"component {i} is not final")
    step = ContractionStep(i, (-1) ** (d - 1) * entries[(i,) * d], proximities)
    for key, added in _spread(entries, tensor._holding[i], i, proximities)[1]:
        if value := entries.get(key, 0) + added:
            entries[key] = value
        else:
            entries.pop(key, None)
    # No key holds ``i`` any more, so renumbering keeps the keys distinct and sorted.
    entries = {key if key[-1] < i else tuple(a - (a > i) for a in key): value for key, value in entries.items()}
    return IntersectionTensor._trusted(d, m - 1, entries), step


def _blow_down(d: int, stage: tuple, i: int) -> tuple:
    """Blow the stage of the walk down at its final ``i`` in place; return the undo log that :func:`_restore` reads.

    :func:`_spread` takes every stored key of ``i`` out, found through its
    narrow and wide sets, and :func:`_rewrite` writes the sums.  A wide
    key that leaves the entries stays in its components' wide sets, which
    are read through the entries, so only a wide key that comes in is
    filed.
    """
    entries, narrow, wide, finals, _ = stage
    wide_keys = wide.pop(i, ())
    old, sums = _spread(entries, itertools.chain(narrow[i], filter(entries.__contains__, wide_keys)), i, finals[i])
    return (i, old, wide_keys, *_rewrite(d, stage, i, sums, old))


def _rewrite(d: int, stage: tuple, i: int, sums: Iterable, old: dict | None = None) -> tuple:
    """Finish a blow-down at the final ``i``, whose keys are out of the entries: write ``sums`` and decide finality again.

    Every narrow key of ``i`` but its pure power is made of ``i`` and one
    neighbour, so one pass over them drops them from the neighbours'
    sets.  One pass over the ``(key, sum)`` pairs writes each key and
    files it: it is narrow when its first and last components make up all
    its ``d`` slots.  Only a changed narrow key can change a finality, so
    only the neighbours and the components of a changed narrow key are
    decided again.  With ``old``, the walk's undo log, each written key's
    old value is logged there, and a stage with wide sets files each wide
    key that comes in; the descent of :func:`recover_sequence` has
    neither.  Returns the rest of the undo log: the narrow keys of ``i``,
    the narrow keys written that came in or left, and the finals changed
    with their neighbours before.
    """
    entries, narrow, wide, finals, ascending = stage
    neighbours, narrow_keys = finals[i], narrow.pop(i)
    for key in narrow_keys:
        if key[0] != key[-1]:
            narrow[key[-1] if key[0] == i else key[0]].discard(key)
    changed = set(neighbours)
    moved = []  # narrow keys written that came in or left
    for key, added in sums:
        if not added:
            continue  # a move-by-move sum that cancels leaves its key as it was
        before = entries.get(key, 0)
        if old is not None:
            old[key] = before
        if value := before + added:
            entries[key] = value
        else:
            del entries[key]
        a, b = key[0], key[-1]
        if a != b and key[key.count(a)] != b:
            if wide is not None and not before:
                for c in set(key):
                    wide[c].add(key)
            continue
        changed.add(a)
        changed.add(b)
        if not (value and before):
            moved.append(key)
            for c in {a, b}:
                if value:
                    narrow[c].add(key)
                else:
                    narrow[c].discard(key)
    finals_before = {i: neighbours}
    _set_final(finals, ascending, i, None)
    for a in changed:
        if (now := _final_neighbours(d, entries, narrow, a)) != (before := finals.get(a)):
            finals_before[a] = before
            _set_final(finals, ascending, a, now)
    return narrow_keys, moved, finals_before


def _restore(stage: tuple, undo: tuple) -> None:
    """Undo one :func:`_blow_down`: put back the old values, the narrow keys, the key sets of ``i`` and the finals."""
    entries, narrow, wide, finals, ascending = stage
    i, old, wide_keys, narrow_keys, moved, finals_before = undo
    for key in moved:
        came = key in entries
        for a in set(key):
            if came:
                narrow[a].discard(key)
            else:
                narrow[a].add(key)
    for key, value in old.items():
        if value:
            entries[key] = value
        else:
            entries.pop(key, None)
    for key in narrow_keys:
        if key[0] != key[-1]:
            narrow[key[-1] if key[0] == i else key[0]].add(key)
    narrow[i] = narrow_keys
    if wide_keys:
        wide[i] = wide_keys
    for a, neighbours in finals_before.items():
        _set_final(finals, ascending, a, neighbours)


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


def _stage(tensor: IntersectionTensor, wide: dict | None = None) -> tuple:
    """The root stage over ``tensor``: entries, narrow key sets, wide key sets, finals and the finals ascending.

    A key is narrow when its first and last components make up all its
    ``d`` slots.  The walk passes an empty ``defaultdict(set)`` for
    ``wide``, and each wide key is filed there under its components; the
    descent of :func:`recover_sequence` files none.
    """
    d, entries = tensor.dimension, dict(tensor.entries)
    narrow: defaultdict[int, set] = defaultdict(set)
    for key in entries:
        a, b = key[0], key[-1]
        if a == b:
            narrow[a].add(key)
        elif key[key.count(a)] == b:  # keys are sorted: made of a and b alone iff b follows the copies of a
            narrow[a].add(key)
            narrow[b].add(key)
        elif wide is not None:
            for c in set(key):
                wide[c].add(key)
    # A component in no narrow key has a zero pure power, so it is never final.
    finals = {a: n for a in narrow if (n := _final_neighbours(d, entries, narrow, a)) is not None}
    return entries, narrow, wide, finals, sorted(finals)


def _orders(tensor: IntersectionTensor) -> Iterator[tuple[ProximityForest, ContractionTrace]]:
    """Every full contraction of ``tensor``, depth first by ascending final index.

    Yields in lexicographic order of the contracted index sequences.  The
    walk holds one mutable stage (see the module docstring and
    :func:`_stage`) for the deepest stage derived on its path, and a path
    of frames: the :class:`_Node` reached, the last final tried there (or,
    below a stage reached before, an iterator over its edges) and the undo
    log of the blow-down that derived it.  Backtracking out of a frame replays
    its undo log, so the mutable stage is its parent again, and the next
    final is the least one above the last tried.  Only steps use current
    labels: renumbering keeps order, so original ``a`` has current label
    ``a`` less the number of contracted originals below it, counted in
    ``contracted``.

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
    with the others.  This memo, the undo logs and the lists by depth
    serve only the orders after the first: :func:`recover_sequence`, which
    needs the first alone, descends without them and calls the walk only
    when its descent leaves the rank-one premise.
    """
    d, m = tensor.dimension, tensor.size
    if not m:
        yield ProximityForest(d, ()), ContractionTrace(())
        return
    stage = entries, narrow, wide, finals, ascending = _stage(tensor, defaultdict(set))
    root = _Node(None, None)
    stages = {root: root}
    contracted: list[int] = []  # originals contracted on the way to the mutable stage, ascending
    below = bisect.bisect_left
    path: list[list] = [[root, 0, None]]  # stage, last final tried or its edges, undo
    # A blow-down writes keys over components of stored keys only, so the walk goes no deeper than there are of them.
    reach = len(narrow.keys() | wide.keys())
    steps: list = [None] * reach  # the step at each depth of the path
    pairs: list = [None] * reach  # each step's pair (original contracted, originals met)
    targets: list[list[int]] = [[] for _ in range(reach)]  # each step's creation targets so far, descending
    made: list = [None] * reach  # each step's point, once every original it met is contracted
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
            if edge[2] is child:
                derived = _blow_down(d, stage, chosen)
                if len(path) < m:
                    bisect.insort(contracted, chosen)
                else:
                    _restore(stage, derived)  # nothing is left to contract below the last step
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
                    _restore(stage, undo)
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
    lists.  Raises :class:`NotContractibleError` when a nonempty stage has
    no final component, i.e. the input is not the intersection form of any
    blow-up sequence.

    This is a premise descent through one mutable stage that files only
    narrow keys (see the module docstring).  Each blow-down of the least
    final ``i`` pops the multisets over ``i`` and its neighbours that hold
    ``i``, each of which must hold its premise value (:func:`_pop_premise`),
    and writes :func:`_rank_one`'s sums with :func:`_rewrite`; no undo log is
    kept and the blow-down after the last step is skipped.  A completed
    descent certifies that the input is the recovered forest's form: every
    blow-down removed exactly its point's rank-one term, and nothing is
    left beside the last pure power.  The descent leaves the premise when a
    popped key is missing or holds another value, when a key is left
    beside the last pure power, or when a stage with no final still stores
    a key that holds a contracted component; the answer is then the walk's
    first order, ``next(_orders(tensor))``, which at ``d >= 3`` can be a
    forest whose form is not the input.

    It keeps each step and its pair ``(original contracted, originals
    met)``; at the end the original contracted at step ``t`` (from 0) has
    creation index ``m - t``, and each point's targets are the creation
    indices of the originals its step met.
    """
    d, m = tensor.dimension, tensor.size
    stage = entries, _, _, finals, ascending = _stage(tensor)
    contracted: list[int] = []  # originals contracted so far, ascending
    steps, pairs = [], []  # each step, and its pair (original contracted, originals met)
    for t in range(m):
        if not ascending:
            done = set(contracted)
            if any(not done.isdisjoint(key) for key in entries):
                return next(_orders(tensor))
            raise NotContractibleError(f"no final component at stage {t + 1}")
        chosen = ascending[0]
        neighbours = finals[chosen]
        w = entries[(chosen,) * d]
        c, *met = (a - bisect.bisect_left(contracted, a) for a in (chosen, *neighbours))
        steps.append(ContractionStep(c, (-1) ** (d - 1) * w, tuple(met)))
        pairs.append((chosen, neighbours))
        if t + 1 == m:
            if len(entries) > 1:  # a key beside the last pure power holds a contracted component
                return next(_orders(tensor))
        elif _pop_premise(entries, d, chosen, neighbours, w):
            _rewrite(d, stage, chosen, _rank_one(d, neighbours, w))
            bisect.insort(contracted, chosen)
        else:
            return next(_orders(tensor))
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
    orders exist and :class:`NotContractibleError` if any branch reaches a
    nonempty stage with no final component.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    results = list(itertools.islice(_orders(tensor), limit + 1))
    if len(results) > limit:
        raise SearchLimitError(f"more than {limit} contraction orders")
    return results
