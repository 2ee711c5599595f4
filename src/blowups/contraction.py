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
:func:`_blow_down` walks the multisets of ``d`` over ``i`` and its
neighbours once: it pops each that holds ``i`` and raises
:class:`NotContractibleError` at one that is missing or holds another
value, and writes the sum at each of the others.  A stored key of ``i``
that is not among them holds a component that is not a neighbour of
``i``.  No later blow-down pops or writes a key that holds a contracted
component, so such a key survives to the end, and recovery refuses it
there: a key left beside the last pure power.  So a recovery that
completes is certified: each blow-down removed exactly its point's
rank-one term and nothing is left beside the last one, so the input is
the form of the recovered forest.  Conversely a blow-up form meets the
premise at every stage of every order: by the lemma below, its finals
are the points no point is proximate to, whose basis vector enters no
other point's term.  A rank-one blow-down writes only over the
neighbours of its final, so a component in no narrow key (made of at
most two components) never gets one and is never final; recovery refuses
it before any blow-down.

A point of a smooth ``d``-fold lies on at most ``d`` exceptional
divisors, so a point of a forest has at most ``d`` targets, and by the
lemma below a final of its form meets at most ``d`` components.
Recovery refuses a final that meets more before it pops or writes any
key, so each blow-down writes at most ``C(2d - 1, d)`` keys and every
forest it returns is one the package accepts.

Every order of a certified form can then be listed without the tensor.
Let ``T = (-1)^{d-1} sum_{p in R} g_p v_p^d`` with all ``g_p > 0``,
over a set ``R`` of points that holds the targets of its points.

*Lemma.* A component ``i`` of ``R`` is final iff no point of ``R`` is
proximate to it, and then its neighbours are its targets ``T(i)``.

*Proof.* If no point of ``R`` is proximate to ``i``, only ``i``'s own
term ``(-1)^{d-1} g_i v_i^d`` holds ``e_i``, and it has the sign pattern
with exactly the neighbours ``T(i)``.  Otherwise let ``p*`` be the
last-created point of ``R`` proximate to ``i``.  A point proximate to
``p*`` is created after it, so no point of ``R`` is proximate to both
``i`` and ``p*``, and ``T(i^{d-1} p*) = g_{p*}``.  With ``G`` the sum
of ``g_p`` over the points of ``R`` proximate to ``i``, ``T(i^d) =
(-1)^{d-1} (g_i + (-1)^d G)``.  Finality asks ``T(i^{d-1} p*) =
-T(i^d)``.  For even ``d`` that is ``g_{p*} = g_i + G``, so ``g_i <=
g_{p*} - G <= 0``.  For odd ``d`` it is ``T(i^d) = -g_{p*} < 0``,
against ``(-1)^{d-1} T(i^d) > 0``.  Either way ``i`` is not final.

This is the numerical side of the classical fact that a point can be
blown down last iff no point is proximate to it (Campillo,
Gonzalez-Sprinberg and Lejeune-Jalabert, "Clusters of infinitely near
points", Math. Ann. 1996).

A blow-down at a final removes exactly its point's term, and no point of
what is left has that point as a target.  So by induction every stage of
every order is such a sum over a set closed under targets, and the
lemma names its finals, their neighbours and their degrees ``g_i``.  A
descent that completes certifies the input as such a sum over every
point, with the degrees ``(-1)^{d-1} T(i^d)`` it read, which finality
makes positive, and with at most ``d`` targets a point.  Recovery
therefore runs the descent once and then lists every order from the
recovered proximities alone, and :func:`recover_sequence` answers the
first of them: at each stage the finals are the remaining points that
no remaining point met, and a step is named by current labels taken
from the sorted list of contracted originals.  The tests check this
against the public :func:`final_set` and :func:`contract` on every
order of a census of forests.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

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


def _blow_down(d: int, stage: tuple, i: int) -> None:
    """Blow the stage down at its final ``i`` in place by the rank-one step.

    Every narrow key of ``i`` but its pure power is made of ``i`` and one
    neighbour, so one pass over them drops them from the neighbours' sets.
    Then one pass over the multisets of ``d`` over ``i`` and its neighbours
    does the rest.  A multiset that holds ``c`` copies of ``i`` is a
    premise key: it is popped, and the tensor is refused with
    :class:`NotContractibleError` when it is missing or holds another value
    than ``(-1)^(d-c) T(i^d)``.  Every other multiset gets the sum
    ``-(-1)^d T(i^d)``, and is filed when it came in or left.  Every key
    popped or written is made of ``i`` and its neighbours, so only the
    neighbours are decided again.
    """
    entries, narrow, finals, ascending = stage
    neighbours, w = finals[i], entries[(i,) * d]
    for key in narrow.pop(i):
        if key[0] != key[-1]:
            narrow[key[-1] if key[0] == i else key[0]].discard(key)
    added = w if d % 2 else -w
    for key in itertools.combinations_with_replacement(sorted((i, *neighbours)), d):
        if c := key.count(i):
            if (held := entries.pop(key, 0)) != (premise := -w if (d - c) % 2 else w):
                raise NotContractibleError(f"final component {i} is no blown-up point: key {list(key)} holds {held}, not {premise}")
            continue
        before = entries.get(key, 0)
        if value := before + added:
            entries[key] = value
        else:
            del entries[key]
        if not (value and before):
            _file(narrow, key, value)
    _set_final(finals, ascending, i, None)
    for a in neighbours:
        _set_final(finals, ascending, a, _final_neighbours(d, entries, narrow, a))


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


def _descent(tensor: IntersectionTensor) -> list[tuple[int, int, tuple[int, ...]]]:
    """Blow ``tensor`` down at the least final of each stage; list each point contracted as ``(original, degree, originals met)``.

    Raises :class:`NotContractibleError` when the input is no blow-up
    form: a component is never final (:func:`_stage`), a nonempty stage
    has no final component, the chosen final meets more than ``d``
    components, a blow-down does not fit the rank-one premise
    (:func:`_blow_down`), or a key is left beside the last pure power
    (:func:`_last`).  The last step blows nothing down.  A descent that
    completes certifies the input as the form of the forest it lists (see
    the module docstring).
    """
    d, m = tensor.dimension, tensor.size
    stage = entries, _, finals, ascending = _stage(tensor)
    descent = []
    for t in range(m):
        if not ascending:
            raise NotContractibleError(f"no final component at stage {t + 1}")
        chosen = ascending[0]
        if len(finals[chosen]) > d:
            raise NotContractibleError(f"final component {chosen} meets {len(finals[chosen])} components, at most {d} allowed")
        descent.append((chosen, (-1) ** (d - 1) * entries[(chosen,) * d], finals[chosen]))
        if t + 1 < m:
            _blow_down(d, stage, chosen)
    _last(entries)
    return descent


def _orders(tensor: IntersectionTensor) -> Iterator[tuple[ProximityForest, ContractionTrace]]:
    """Every full contraction of ``tensor``, depth first by ascending final index.

    Yields in lexicographic order of the contracted index sequences.
    :func:`_descent` certifies the input first, or refuses it, and the
    walk then reads only the points it recovered: by the lemma of the
    module docstring, the finals of a stage are the remaining originals
    that no remaining original met, each with its own degree and with the
    originals it met as neighbours.  ``above[a]`` counts the remaining
    originals that met ``a``, and ``ascending`` lists the remaining
    originals with none.  The path holds the original tried last at each
    depth.  A step down takes its original out of ``ascending`` and puts
    in each original it met that no remaining original meets any more; a
    step back undoes that, so the next final is the least one above the
    last tried.  Steps use current labels: renumbering keeps order, so
    original ``a`` has current label ``a`` less the number of contracted
    originals below it, counted in ``contracted``.  Each distinct step is
    made once, keyed by its degree and current labels, since equal labels
    at different stages can name originals of different degree.

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
    with the others.
    """
    d, m = tensor.dimension, tensor.size
    descent = _descent(tensor)
    if not m:
        yield ProximityForest(d, ()), ContractionTrace(())
        return
    degree, meets, above = {}, {}, [0] * (m + 1)
    for original, g, met in descent:
        degree[original], meets[original] = g, met
        for b in met:
            above[b] += 1
    ascending = [a for a in range(1, m + 1) if not above[a]]
    contracted: list[int] = []  # originals contracted on the path, ascending
    below = bisect.bisect_left
    path = [0]  # the original tried last at each depth
    steps: list = [None] * m  # the step at each depth of the path
    distinct: dict[tuple, ContractionStep] = {}  # each step made, by degree and current labels
    targets: list[list[int]] = [[] for _ in range(m)]  # each step's creation targets so far, descending
    made: list = [None] * m  # each step's point, once every original it met is contracted
    meeting: list[list[int]] = [[] for _ in range(m + 1)]  # for each original, the depths whose step met it
    points: dict[tuple, Point] = {}
    while path:
        depth = len(path) - 1
        at = bisect.bisect_right(ascending, path[-1])
        if at == len(ascending):
            path.pop()
            if path:
                original = path[-1]
                for t in meeting[original]:
                    targets[t].pop()
                for b in meets[original]:
                    meeting[b].pop()
                    if not above[b]:
                        del ascending[below(ascending, b)]
                    above[b] += 1
                del contracted[below(contracted, original)]
                bisect.insort(ascending, original)
            continue
        original = path[-1] = ascending[at]
        met = meets[original]
        c = original - below(contracted, original)
        labels = [a - below(contracted, a) for a in met] if met else ()
        step = distinct.get(key := (degree[original], c, *labels))
        if step is None:
            step = distinct[key] = ContractionStep(c, degree[original], tuple(labels))
        steps[depth] = step
        if depth + 1 == m:
            # The last step meets nothing, and completes the points of the steps that met its original.
            made[depth] = _point(points, step.degree, ())
            for t in meeting[original]:
                made[t] = _point(points, steps[t].degree, [*targets[t], 1])
            yield ProximityForest(d, made[::-1]), ContractionTrace(tuple(steps))
            continue
        if not met:
            made[depth] = _point(points, step.degree, ())
        for t in meeting[original]:
            got = targets[t]
            got.append(m - depth)
            if len(got) == len(meets[path[t]]):
                made[t] = _point(points, steps[t].degree, got)
        del ascending[at]
        for b in met:
            meeting[b].append(depth)
            above[b] -= 1
            if not above[b]:
                bisect.insort(ascending, b)
        bisect.insort(contracted, original)
        path.append(0)


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
    ``m + 1 - t``.  The answer is the first order of the walk that
    :func:`recover_all_orders` lists, which builds its forest and trace.
    Raises :class:`NotContractibleError` when the input is not the
    intersection form of any blow-up sequence, in the ways
    :func:`_descent` names.  A descent that completes certifies that the
    input is the recovered forest's form (see the module docstring).
    """
    return next(_orders(tensor))


def recover_all_orders(
    tensor: IntersectionTensor, limit: int = DEFAULT_ORDER_LIMIT
) -> list[tuple[ProximityForest, ContractionTrace]]:
    """Every contraction order of a tensor, depth first by ascending index.

    Results are in lexicographic order of the contracted index sequences.
    Raises :class:`SearchLimitError` if more than ``limit`` complete
    orders exist, and :class:`NotContractibleError` when the input is no
    blow-up form, in the ways :func:`_descent` names.  Refusals come only
    from the descent of the first order, which certifies the input as the
    form of its forest; after it no branch can fail, and every order
    listed is certified too (see the lemma of the module docstring).
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    results = list(itertools.islice(_orders(tensor), limit + 1))
    if len(results) > limit:
        raise SearchLimitError(f"more than {limit} contraction orders")
    return results
