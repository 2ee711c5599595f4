"""Deciding combinatorial equivalence of forests, tensors, and markings.

Two sequences are combinatorially equivalent when some bijection of their
points preserves degrees and proximity; two intersection tensors are
equivalent when some index permutation carries one onto the other entry by
entry.  Every decision here is made the same way: canonically label both
objects, compose the two labellings, and check the composed map on the
inputs.  Both labellings are canonical, so that map carries one object onto
the other exactly when the two are equivalent, and the check decides.
For blow-up tensors the paper's bijection between sequences and their
forms gives a second route (recover both forests by contraction and match
those); the test suite keeps that route as a cross-check of
:func:`tensor_equivalent`.

The canonical labelling follows the individualise-and-refine pattern of
McKay & Piperno, "Practical graph isomorphism II" (2014): iterative colour
refinement (seeded with degrees, diagonal values, and for forests the
proximity depth) followed by lexicographically minimal relabelling, with
known automorphisms pruning symmetric branches.  Refinement is driven by
splits, as in Paige & Tarjan (SIAM J. Comput. 1987): a round fingerprints
only the neighbours of the vertices whose cells last split, leaving out
the largest group of each split as in Hopcroft (1971), plus one
representative of each cell's other members, where at the root every
vertex counts, so a search node fingerprints what its individualisation
touches rather than every vertex.  It reaches the ordered partition that
fingerprinting every vertex in every round reaches, so labellings and
hashes do not depend on it.  Before descending, the search seeds the
known automorphisms with twin transpositions: two vertices of one root
cell whose swap is an automorphism, chained along each class of such
twins.  One test, exact on every structure, finds them: a vertex
fingerprinted under the discrete labelling with the two exchanged must
read what its twin reads under the discrete labelling.  Members of a
cell with the same neighbours, or keys, and none in the cell are one
class, found in one pass: one fingerprint each and one more, or none
where no member of the cell is next to another, as in every cell of a
forest, since the members' own neighbours or keys then tell them.  This
is the "known automorphisms" pruning of McKay & Piperno and the cheap-symmetry
idea of Darga, Sakallah & Markov, saucy (DAC 2008); on a star the search
then walks one path.  A node tries a vertex exactly when it is the least
of its orbit under the known automorphisms fixing the path.  A target
cell that is one twin class is one such orbit, and since every
permutation of the class is an automorphism, individualising a member
splits no cell and leaves the rest of the class one cell.  The search
thus individualises all of the class but its greatest member in one
step, in ascending order and with no refinement, which puts on the path
what a node per member trying its least member alone would: a class of n
twins costs one step, not n nodes that each read their target cell.  A
leaf that repeats an earlier leaf's data backjumps, as in McKay (1981),
to where its path leaves the earlier one.
The search does not recurse: it is one loop over an explicit stack of
open nodes that share one ordered partition, held as cell arrays, refined
in place and undone from a trail, in which a vertex's colour is the last
position of its cell.  It is bounded by ``WORK_LIMIT``, a budget that
charges ``n`` colours for the root and for each vertex individualised,
not by Python's recursion limit.
Automorphisms are kept sparse, as the map of the points they move, so a
transposition costs two entries whatever the size.
The search's table of leaves is its outcome: the canonical labelling, its
data and every automorphism found are read off it.  It sees an object
through one of two structures, a vertex-coloured digraph (forests and
block-proximity graphs) or an index-coloured tensor.  A leaf's data is
its ``serialize``: the canonical JSON of the relabelled object's document,
written straight from the degrees and out-lists, or from the entries,
with no object, document or JSON encoder in between.  It is written only
when something reads it: a second leaf of the same search, which must be
compared with it, or :func:`canonical_form`, which hashes the canonical
leaf.  A search that reaches one leaf, as on a rigid object, writes none
for a decision or for its orbits.  A :class:`CanonicalForm` keeps the
canonical leaf's bytes, and ``relabel`` builds the relabelled object only
when ``relabeled`` is first read.
Canonical hashes are SHA-256 over those bytes; equivalent inputs produce
byte-identical hashes.
Permutations are plain tuples ``p`` with ``p[i-1]`` the image of index
``i``; every permutation returned by this module has been verified
exhaustively against its inputs.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from functools import cached_property

# Not used here: ``perfbench/tracer.py`` wraps ``blowups.equivalence.recover_sequence``
# by name, and every traced benchmark run fails with AttributeError without it.
from .contraction import recover_sequence  # noqa: F401
from .errors import SearchLimitError
from .forest import MarkedPartition, Point, ProximityForest, block_proximity
from .io import _tensor_json
from .tensor import IntersectionTensor, quotient_tensor

__all__ = [
    "CanonicalForm",
    "canonical_form",
    "forest_isomorphic",
    "tensor_equivalent",
    "marked_forest_equivalent",
    "marked_tensor_equivalent",
    "automorphism_orbits",
    "partition_compatible_morphism",
    "partition_compatible_sequence",
]

WORK_LIMIT = 10**7


@dataclass(frozen=True)
class CanonicalForm:
    """A canonical relabelling, the relabelled object, and its hash.

    ``relabeling[i-1]`` is the canonical label of input index ``i``;
    ``data`` is the canonical serialization of the relabelled object, the
    bytes of its document as canonical JSON, and ``hash`` is their
    lowercase hex SHA-256 digest.  ``relabeled`` is built from the input
    when it is first read.  Two forms are equal when their relabelling and
    data are, which is when their relabelled objects are.
    """

    relabeling: tuple[int, ...]
    hash: str
    data: bytes = field(repr=False)
    _struct: object = field(repr=False, compare=False)

    @cached_property
    def relabeled(self) -> "ProximityForest | IntersectionTensor":
        return self._struct.relabel(list(self.relabeling))


class _DigraphStructure:
    """Vertex-coloured digraph: a forest's proximity DAG or a block-proximity graph.

    ``out[v]`` lists the vertices ``v`` is proximate to; block graphs may
    have loops and 2-cycles.  Forest colours carry the proximity depth
    first, so every refinement stays compatible with creation order and the
    canonical relabelling is itself a valid forest.  Block colours are the
    block degree and whether the block is proximate to itself.  The one
    twin test, through ``fingerprint``, is exact here as on a tensor, for
    twins with loops or edges between them too.  ``relabel`` gives a forest
    with this ``dimension``, ``None`` for a block graph.  ``serialize``
    writes a forest in its file format and a block graph as
    ``{"degrees": ..., "edges": ...}``, both as canonical JSON.
    """

    def __init__(
        self, degrees: list[int], out: list[list[int]], colors: list, dimension: int | None = None,
        forest: ProximityForest | None = None,
    ):
        self.degrees = degrees
        self.out = out
        self.colors = colors
        self.dimension = dimension
        self.forest = forest  # the forest viewed, if the structure was built from one
        self.n = len(degrees)
        self.inn: list[list[int]] = [[] for _ in range(self.n)]
        for a, targets in enumerate(out):
            for b in targets:
                self.inn[b].append(a)
        # The vertices whose colours ``fingerprint(v, ...)`` reads; ``_refine`` drops repeats.
        self.adjacent = [targets + sources for targets, sources in zip(out, self.inn)]

    @classmethod
    def of_forest(cls, forest: ProximityForest) -> "_DigraphStructure":
        degrees = [p.degree for p in forest.points]
        out = [[j - 1 for j in p.proximate_to] for p in forest.points]
        depth: list[int] = []
        for targets in out:
            depth.append(1 + max(map(depth.__getitem__, targets), default=-1))
        return cls(degrees, out, list(zip(depth, degrees)), forest.dimension, forest)

    @classmethod
    def of_blocks(cls, forest: ProximityForest, partition: MarkedPartition) -> "_DigraphStructure":
        out: list[list[int]] = [[] for _ in partition.blocks]
        for a, b in block_proximity(forest, partition):
            out[a - 1].append(b - 1)
        degrees = [sum(forest.degree(i) for i in block) for block in partition.blocks]
        return cls(degrees, out, [(g, int(v in out[v])) for v, g in enumerate(degrees)])

    def fingerprint(self, v: int, colors: list[int]):
        return tuple(sorted(map(colors.__getitem__, self.out[v]))), tuple(sorted(map(colors.__getitem__, self.inn[v])))

    def twin_keys(self, members: list[int]) -> list[frozenset[int]] | None:
        """For a forest, each member's neighbours, equal exactly for twins; ``None`` for a block graph.

        A forest's colours start with the depth, and an edge joins two
        depths, so no cell holds an edge and the two ends of one are told apart.
        """
        return None if self.forest is None else list(map(frozenset, map(self.adjacent.__getitem__, members)))

    def relabel(self, labels: list[int]) -> ProximityForest:
        inverse = [0] * self.n
        for v, label in enumerate(labels):
            inverse[label - 1] = v
        points = tuple(Point(self.degrees[old], frozenset(map(labels.__getitem__, self.out[old]))) for old in inverse)
        return ProximityForest(self.dimension, points)

    def original(self) -> ProximityForest:
        """The structure as ``relabel`` gives it under the identity labelling: the forest viewed, if there is one."""
        return self.relabel(list(range(1, self.n + 1))) if self.forest is None else self.forest

    def serialize(self, labels: list[int]) -> bytes:
        """The canonical JSON of ``relabel(labels)``'s document, built from the degrees and out-lists."""
        inverse = [0] * self.n
        for v, label in enumerate(labels):
            inverse[label - 1] = v
        targets = [sorted(map(labels.__getitem__, self.out[v])) for v in inverse]
        if self.dimension is None:
            edges = [[i, j] for i, ends in enumerate(targets, 1) for j in ends]
            text = '{"degrees":%s,"edges":%s}' % ([self.degrees[v] for v in inverse], edges)
        else:
            points = ",".join([
                '{"degree":%s,"id":%d,"proximate_to":%s}' % (self.degrees[v], i, ends)
                for i, (v, ends) in enumerate(zip(inverse, targets), 1)
            ])
            text = '{"dimension":%s,"points":[%s]}' % (self.dimension, points)
        return text.replace(" ", "").encode()  # a list prints as ``[1, 2]``; JSON needs ``[1,2]``


class _TensorStructure:
    """Index-coloured view of a tensor for the canonical search; the initial colours are the diagonal.

    One pass over the entries files each stored key under its components.
    A pure power is its component's colour.  A key of two components,
    ``v`` of multiplicity ``mult`` and ``u`` of ``c``, goes to ``pairs[v]``
    as ``(mult, value, u, c)``; a wider key goes to ``wide[v]`` with the
    ``(u, c)`` of each other component.  Wherever a key is filed,
    ``fingerprint`` reads it as ``(mult, value, others)``, with ``others``
    the sorted ``(colour, c)`` of its other components, so the filing
    changes no split; a key in ``pairs`` needs no sort.
    """

    def __init__(self, tensor: IntersectionTensor):
        self.tensor = tensor
        self.n = n = tensor.size
        d = tensor.dimension
        self.colors = colors = [0] * n
        self.pairs: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n)]
        self.wide: dict[int, list[tuple[int, int, tuple[tuple[int, int], ...]]]] = {}
        # The vertices whose colours ``fingerprint(v, ...)`` reads.
        self.adjacent: list[set[int]] = [set() for _ in range(n)]
        pairs, wide, adjacent = self.pairs, self.wide, self.adjacent
        for key, value in tensor.entries.items():
            a, b = key[0] - 1, key[-1] - 1
            if a == b:
                colors[a] = value
            elif (ma := key.count(a + 1)) + (mb := key.count(b + 1)) == d:
                pairs[a].append((ma, value, b, mb))
                pairs[b].append((mb, value, a, ma))
                adjacent[a].add(b)
                adjacent[b].add(a)
            else:
                # A key is sorted, so its distinct components come out ascending.
                counts = [(j - 1, key.count(j)) for j in dict.fromkeys(key)]
                components = [j for j, _ in counts]
                for k, (i, mult) in enumerate(counts):
                    wide.setdefault(i, []).append((mult, value, (*counts[:k], *counts[k + 1:])))
                    adjacent[i].update(components)
        for i in wide:  # a wide key made each of its components its own neighbour
            adjacent[i].discard(i)

    def fingerprint(self, v: int, colors: list[int]):
        items = [(mult, value, ((colors[u], c),)) for mult, value, u, c in self.pairs[v]]
        for mult, value, others in self.wide.get(v, ()):
            items.append((mult, value, tuple(sorted([(colors[u], c) for u, c in others]))))
        if self.colors[v]:
            items.append((self.tensor.dimension, self.colors[v], ()))
        items.sort()
        return tuple(items)

    def twin_keys(self, members: list[int]) -> list[frozenset] | None:
        """Each member's stored keys but pure powers, equal exactly for twins, or ``None`` if a key holds two members.

        Members of one cell share their pure powers, as colours.
        """
        cell = set(members)
        if all(map(cell.isdisjoint, map(self.adjacent.__getitem__, members))):
            return [frozenset((*self.pairs[v], *self.wide.get(v, ()))) for v in members]
        return None

    def relabel(self, labels: list[int]) -> IntersectionTensor:
        # A permutation keeps keys distinct and in range, and values stay nonzero.
        at = [0, *labels].__getitem__  # keys hold 1-based components
        entries = {tuple(sorted(map(at, key))): value for key, value in self.tensor.entries.items()}
        return IntersectionTensor._trusted(self.tensor.dimension, self.n, entries)

    def original(self) -> IntersectionTensor:
        """The tensor viewed, which ``relabel`` gives under the identity labelling."""
        return self.tensor

    def serialize(self, labels: list[int]) -> bytes:
        """The canonical JSON of ``relabel(labels)``'s document, built from the entries."""
        at = [0, *labels].__getitem__
        rows = [(*sorted(map(at, key)), value) for key, value in self.tensor.entries.items()]
        return _tensor_json(self.tensor.dimension, self.n, rows).encode()


@dataclass
class _SearchOutcome:
    """A search's canonical labelling, its automorphisms, and the canonical leaf's data, written when first read.

    A search that compared leaves wrote the data already and passes it in.
    """

    labels: tuple[int, ...]
    automorphisms: list[dict[int, int]]
    _struct: object = field(repr=False)
    _data: bytes | None = field(default=None, repr=False)

    @property
    def data(self) -> bytes:
        if self._data is None:
            self._data = self._struct.serialize(list(self.labels))
        return self._data


def _join(parent: dict[int, int], perms) -> None:
    """Join the orbits of permutations, each given sparsely as a map from each point it moves to its image.

    ``parent`` is a union-find over the points joined so far, each mapped
    to its parent; a point not in it, or mapped to itself, is a root.  The
    root of a set is its least member, so a parent is always less than
    its child, and only points that were joined are stored: it costs what
    the permutations move.
    """
    for perm in perms:
        for v, w in perm.items():
            while (p := parent.get(v, v)) != v:
                parent[v] = v = parent.get(p, p)  # path halving
            while (p := parent.get(w, w)) != w:
                parent[w] = w = parent.get(p, p)
            if v < w:
                parent[w] = v
            elif w < v:
                parent[v] = w


def _orbit_ids(n: int, perms) -> list[int]:
    """For each vertex, the least member of its orbit under the group generated by ``perms``, given sparsely."""
    parent: dict[int, int] = {}
    _join(parent, perms)
    ids = list(range(n))
    for v in sorted(parent):  # a parent is less than its child, so its root is read first
        ids[v] = ids[parent[v]]
    return ids


class _Partition:
    """An ordered partition of the vertices, refined in place and undone from a trail.

    ``elements`` lists the vertices in position order and ``position[v]``
    is the position of ``v``; a cell is a run of positions, its members
    in no particular order.  A vertex's colour, ``colors[v]``, is the last
    position of its cell, and ``start[c]`` is the first position of the
    cell whose colour is ``c`` (entries for any other ``c`` are stale).
    ``trail`` records every change: ``(v, old colour)`` for a vertex and
    ``(~c, old start)`` for the cell ``c``.  Undoing back to a mark
    restores both; a cell's members only ever move inside its run of
    positions, so ``elements`` and ``position`` need no undoing.  A
    refinement that is never undone, as at the root, runs with ``trail``
    set to ``None`` and records nothing.
    """

    def __init__(self, colors: list[int]):
        n = len(colors)
        self.colors = colors
        self.elements = sorted(range(n), key=colors.__getitem__)
        self.position = [0] * n
        self.start = [0] * n
        self.trail: list[tuple[int, int]] | None = []
        for p in range(n - 1, -1, -1):
            v = self.elements[p]
            self.position[v] = p
            self.start[colors[v]] = p  # the last write is the cell's first position

    def individualise(self, *members: int) -> None:
        """Split each member in turn off as a cell of its own at the first position of its cell, which keeps its colour."""
        colors, elements, position, start, trail = self.colors, self.elements, self.position, self.start, self.trail
        for v in members:
            c = colors[v]
            s = start[c]
            w, p = elements[s], position[v]
            elements[s], elements[p] = v, w
            position[v], position[w] = s, p
            trail += ((~c, s), (v, c))
            start[c], start[s], colors[v] = s + 1, s, s

    def undo(self, mark: int) -> None:
        """Restore the colours and cell starts to what they were when ``trail`` held ``mark`` changes."""
        trail, colors, start = self.trail, self.colors, self.start
        while len(trail) > mark:
            u, c = trail.pop()
            if u < 0:
                start[~u] = c
            else:
                colors[u] = c


def _refine(struct, part: _Partition, touched) -> None:
    """Split cells by their fingerprints, in place, until no cell splits.

    ``touched`` holds vertices whose neighbours' fingerprints may have
    changed since ``part`` was last stable, when the members of each cell
    had equal fingerprints; at the root every vertex counts as touched.
    A round fingerprints, in each cell that holds a neighbour
    (``struct.adjacent``) of a touched vertex, those neighbours and one
    representative of the cell's other members, and groups the cell by
    fingerprint.  The other members read what they read before, so they
    share the representative's fingerprint; any cell with no such
    neighbour, or at the root one whose members have no neighbours (their
    initial colour fixes their fingerprints), cannot split.  The groups of
    a cell that splits take its positions in ascending fingerprint order,
    so the last group keeps the cell's colour and each other group takes
    the last position it ends at; each change is pushed on the trail, if
    there is one.
    The next round's ``touched`` holds the members of every group but
    the largest one of each split cell, as in Hopcroft (1971).  A vertex
    next to the largest group alone reads it under a new colour or the
    old one; the change renames one colour for all of the cell's members
    that read no other group, so their fingerprints stay equal.  Each
    round thus splits as a round that fingerprints every vertex would,
    into the same ordered partition, so labellings and hashes do not
    depend on which vertices are touched.  The loop ends when a round
    splits no cell.
    """
    colors, elements, position, start, trail = part.colors, part.elements, part.position, part.start, part.trail
    adjacent, fingerprint = struct.adjacent, struct.fingerprint
    while touched:
        near: dict[int, dict] = {}
        for u in {u for t in touched for u in adjacent[t]}:
            c = colors[u]
            if start[c] != c:  # a cell of one cannot split
                near.setdefault(c, {})[u] = None
        splits = []
        for c, keyed in near.items():
            s = start[c]
            items = [(fingerprint(u, colors), u) for u in keyed]
            rest = c - s + 1 - len(items)
            if rest:
                p = s
                while elements[p] in keyed:
                    p += 1
                items.append((fingerprint(elements[p], colors), -1))  # stands for every member not in ``keyed``
            items.sort()
            if items[0][0] != items[-1][0]:
                splits.append((c, s, rest, items))
        touched = []
        for c, s, rest, items in splits:
            groups, last = [], None  # each [size, members fingerprinted, whether it holds the rest], in key order
            for key, u in items:
                if key != last:
                    groups.append([0, [], False])
                    last = key
                group = groups[-1]
                if u < 0:
                    group[0] += rest
                    group[2] = True
                else:
                    group[0] += 1
                    group[1].append(u)
            k = next(i for i, g in enumerate(groups) if g[2]) if rest else len(groups) - 1
            stay = groups[k]
            lo = s + sum(g[0] for g in groups[:k])
            hi = lo + stay[0] - 1
            # The members of every other group take the positions outside [lo, hi], in group order;
            # members of ``stay`` found there first trade places with movers found inside [lo, hi].
            movers = [u for g in groups if g is not stay for u in g[1]]
            slots = [*range(s, lo), *range(hi + 1, c + 1)]
            vacated = [position[u] for u in movers if lo <= position[u] <= hi]
            if vacated:
                moving = set(movers)
                displaced = [x for x in map(elements.__getitem__, slots) if x not in moving]
                for p, x in zip(vacated, displaced):
                    elements[p], position[x] = x, p
            for p, u in zip(slots, movers):
                elements[p], position[u] = u, p
            if trail is not None:
                trail.append((~c, s))
            largest = max(groups, key=lambda g: (g[0], g is stay))
            end = s - 1
            for group in groups:
                end += group[0]
                start[end] = first = end - group[0] + 1
                if end != c or group is not largest:
                    members = elements[first : end + 1]
                    if end != c:
                        if trail is not None:
                            trail += [(u, c) for u in members]
                        for u in members:
                            colors[u] = end
                    if group is not largest:
                        touched += members


def _twin_chains(struct, colors: list[int]) -> list[dict[int, int]]:
    """Transpositions ``(c[k] c[k+1])`` along each class ``c`` of twins in a cell of ``colors``.

    ``colors`` refines ``struct.colors``, so ``u`` and ``v`` of one cell
    are twins, and ``(u v)`` an automorphism, exactly when ``v``
    fingerprinted under the discrete labelling with ``u`` and ``v``
    exchanged reads what ``u`` reads under the discrete labelling.  For a
    digraph, which has no multi-edges, that says the swap carries the out-
    and in-neighbours of ``v`` onto those of ``u``, loops and edges
    between the two included; for a tensor, that it carries the entries
    holding ``v`` onto those holding ``u``.  Twins form classes, since two
    transpositions that are automorphisms conjugate into a third.  A
    chain, unlike the star of transpositions ``(c[0] c[k])``, still joins
    ``c[1:]`` into one orbit after the search individualises ``c[0]``.
    Each class lists its members in ascending order, and the classes of a
    cell come in the order of their least members.
    Twins read alike under a labelling that gives their whole cell one
    label and every other vertex its own, since their swap fixes that
    labelling, so a cell's members are first bucketed by that fingerprint
    and only members of one bucket are tested against each other: a cell
    of k vertices with no twins costs k fingerprints, not k(k+1)/2.  A
    bucket whose fingerprint reads no member of the cell is one class
    found in one pass: its members have the same neighbours, or keys, and
    none in the cell, so no edge or key holds two of them and a swap
    carries each one's onto the other's.  Fingerprinting one member once
    more, with the cell relabelled, tells such a bucket, so k twins cost
    k + 1 fingerprints, and only the other buckets are tested pair by pair.
    Where no member of the cell is next to another, ``struct.twin_keys``
    gives each member's neighbours, or keys, as they are: they are equal
    exactly for twins, so every bucket of them is a class and no
    fingerprint is taken.  That holds in every cell of a forest, and a
    tensor's cell is checked against its members' neighbours.
    """
    if len(set(colors)) == struct.n:  # a discrete colouring, as for most rigid objects, holds no two twins
        return []
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    labels, fingerprint = list(range(struct.n)), struct.fingerprint
    chains = []
    for members in cells.values():
        if len(members) < 2:
            continue
        keys = struct.twin_keys(members)
        marked = members if keys is None else ()
        for v in marked:
            labels[v] = -1
        buckets: dict[object, list[int]] = {}
        for v, key in zip(members, keys or map(fingerprint, members, itertools.repeat(labels))):
            buckets.setdefault(key, []).append(v)
        for v in marked:
            labels[v] = -2  # a fingerprint that reads no member of the cell reads the same
        twin_classes, mixed = [], []  # ``mixed``: the buckets whose fingerprint reads a member of the cell
        for key, bucket in buckets.items():
            if len(bucket) > 1:
                (twin_classes if not marked or fingerprint(bucket[0], labels) == key else mixed).append(bucket)
        for v in marked:
            labels[v] = v
        for bucket in mixed:
            classes: list[tuple[tuple, list[int]]] = []
            for v in bucket:
                for key, twins in classes:
                    u = twins[0]
                    labels[u], labels[v] = v, u
                    twin = fingerprint(v, labels) == key
                    labels[u], labels[v] = u, v
                    if twin:
                        twins.append(v)
                        break
                else:
                    classes.append((fingerprint(v, labels), [v]))
            twin_classes += [twins for _, twins in classes if len(twins) > 1]
        for twins in sorted(twin_classes):  # in the order of their least members
            chains += [{a: b, b: a} for a, b in zip(twins, twins[1:])]
    return chains


def _search(struct) -> _SearchOutcome:
    """Canonical-labelling backtracking over colour refinements.

    Returns the relabelling that gives the lexicographically minimal
    serialization over all discrete refinements of the initial colouring,
    that serialization, and the automorphisms known along the way: the
    twin transpositions of the refined root colouring, then one per leaf
    that repeats earlier data.  A leaf keeps only its labelling and path.
    The first leaf is not written: a search that reaches no other leaf
    returns its labelling, and the outcome writes its data when that is
    first read.  A second leaf writes the first's data and its own, and
    from then on ``leaves`` maps each leaf's data,
    ``struct.serialize(labels)``, to the first labelling in depth-first
    order that reached it and that labelling's path, so the canonical
    labelling is read off ``leaves[min(leaves)]`` and its data is passed
    on, written once.  The data depend only on the structure pushed
    forward along the labelling, so a later labelling ``L2`` with the data
    of ``L1`` is the automorphism ``L1^-1 L2`` without a check.
    A node tries a member of its target cell exactly when it is the least
    of its orbit under the known automorphisms fixing the path.  Their
    orbits lie inside the node's cells and only grow while it runs, so
    that is exactly when no tried member shares its orbit.  A pruned
    branch is the image of a tried one, so the first minimal leaf in
    depth-first order is always reached and the labelling and data do not
    depend on which automorphisms are known.  A repeated leaf also
    backjumps, as in McKay, "Practical graph isomorphism" (1981): its
    automorphism carries the earlier leaf's path onto its own, since a
    labelling determines its path, so it fixes the two paths' common
    prefix and maps the subtree where the new path leaves it onto a
    subtree searched before.  The search returns to that depth and goes
    on with the next sibling there.
    A node's orbits follow its path.  The unindividualised members of a
    twin class share one cell, since their swaps fix the path, and only
    the least of them is ever individualised next, so the members on the
    path are a prefix of the class's chain and the rest of the chain fixes
    the path: in the target cell, the members of one class are one orbit.
    A target cell that is one whole class is individualised in one step.
    Every permutation of the class is an automorphism, so individualising
    its least member splits no other cell and leaves the rest one class: a
    refinement would change nothing.  The step individualises all members
    but the greatest in ascending order, with no refinement between them,
    and pushes one entry per member with nothing left to try, so the path,
    its depths and backjumps are those of one node per member that tries
    its least member alone.  Any other node, once it reaches its second
    member, tests each leaf automorphism once, as it first reads it, and
    keeps those that move no vertex of its path.  One found while the node
    is open passes: a repeated leaf whose earlier leaf lies outside the
    node backjumps above it.  A union-find over its cell's classes and the
    kept automorphisms grows as they arrive and names the orbit of each
    member it reads.
    The search holds one ordered partition, ``part``, refined in place and
    undone from its trail, in which a vertex's colour is the last position
    of its cell, and one ``path``, as in Junttila & Kaski, "Engineering an
    efficient canonical labeling tool for large and sparse graphs" (ALENEX
    2007).  Its target cell is the non-singleton cell that ends first,
    found from the parent's target cell onward, since every cell before
    that is a singleton in the parent and stays one.  Individualising
    ``v`` gives it the first position of its cell, as a cell of its own,
    so ``v`` is the one touched vertex.  The loop runs over an explicit
    stack with one entry per open node, in depth order: its target cell's
    first position and a generator over the members it tries, which
    undoes the trail back to the node's partition before it yields its
    next member.  The loop takes the next member from the deepest entry
    that still has one, popping those that are done; backjumping to depth
    ``k`` is ``del stack[k + 1:]``.  A node reads its target cell and
    what its refinement touches, not every colour, but the budget still
    charges ``n`` colours scanned for the root and for each vertex
    individualised, a class step's members one by one: past
    ``WORK_LIMIT`` of them :class:`SearchLimitError` names the budget and
    the depth, inside a class the depth where a node per member would
    have stopped, and nothing in the class is individualised.
    """
    n = struct.n
    first_leaf: tuple[list[int], tuple[int, ...]] | None = None  # the first leaf's labelling and path
    leaves: dict[bytes, tuple[list[int], tuple[int, ...]]] = {}
    last = {c: p for p, c in enumerate(sorted(struct.colors))}  # each colour's last position in sorted order
    part = _Partition([last[c] for c in struct.colors])
    colors, elements = part.colors, part.elements
    part.trail = None  # the root partition is never undone
    _refine(struct, part, range(n))
    part.trail = trail = []
    chains = _twin_chains(struct, colors)
    twin = list(range(n))  # the least member of each vertex's twin class
    for a, b in chains:  # a chain's two keys, in the order of its class
        twin[b] = twin[a]
    found: list[dict[int, int]] = []  # the automorphisms of repeated leaves

    def tries(depth: int, members: list[int]):
        """The members of the target cell least of their orbit under the known automorphisms fixing the path."""
        mark = len(trail)
        yield members[0]
        parent: dict[int, int] = {}  # the orbits, kept by ``_join``
        joined, least = 0, {}  # ``least``: the first member of each twin class in the cell
        for v in members if chains else ():  # the members of one twin class in the cell are one orbit
            parent[v] = least.setdefault(twin[v], v)  # members ascend, so each class's first is its root
        fixed = set(path[:depth])
        for v in members[1:]:
            part.undo(mark)  # back to this node's partition
            _join(parent, (s for s in found[joined:] if fixed.isdisjoint(s)))
            joined = len(found)
            if parent.get(v, v) == v:
                yield v

    # One entry per open node, ``stack[k]`` at depth ``k``: [target cell's first position, tries].
    stack: list[list] = []
    path: list[int] = []
    work = 0
    while True:
        if (work := work + n) > WORK_LIMIT:
            raise SearchLimitError(f"canonical search exceeded {WORK_LIMIT} colours scanned at depth {len(path)}")
        p = stack[-1][0] if stack else 0
        while p < n and colors[elements[p]] == p:
            p += 1
        if p < n:
            cell = elements[p : colors[elements[p]] + 1]
            if len(set(map(twin.__getitem__, cell))) == 1:  # one twin class: one step, with nothing to refine
                members = sorted(cell)[:-1]
                # The first member is charged as this node; each other one as the node it would have been.
                if work + (len(members) - 1) * n > WORK_LIMIT:
                    depth = len(path) + (WORK_LIMIT - work) // n + 1
                    raise SearchLimitError(f"canonical search exceeded {WORK_LIMIT} colours scanned at depth {depth}")
                work += (len(members) - 1) * n
                path[len(stack) :] = members
                stack += [[q, iter(())] for q in range(p, p + len(members))]  # each a node with nothing left to try
                part.individualise(*members)
                continue
            stack.append([p, tries(len(stack), sorted(cell))])
        else:
            labels = [c + 1 for c in colors]
            if first_leaf is None:
                first_leaf = (labels, tuple(path))
            else:
                if not leaves:  # a second leaf: write the first too, so that the two can be compared
                    leaves[struct.serialize(first_leaf[0])] = first_leaf
                first, first_path = leaves.setdefault(struct.serialize(labels), (labels, tuple(path)))
                if first is not labels:
                    found.append({v: p - 1 for v, p in enumerate(_compose(labels, first)) if p - 1 != v})
                    del stack[next(k for k, (v, w) in enumerate(zip(path, first_path)) if v != w) + 1 :]
        while stack and (v := next(stack[-1][1], None)) is None:
            stack.pop()
        if not stack:
            break
        path[len(stack) - 1 :] = [v]
        part.individualise(v)
        _refine(struct, part, [v])
    if not leaves:
        return _SearchOutcome(tuple(first_leaf[0]), chains, struct)
    data = min(leaves)
    return _SearchOutcome(tuple(leaves[data][0]), chains + found, struct, data)


def _structure_for(obj):
    if isinstance(obj, ProximityForest):
        return _DigraphStructure.of_forest(obj)
    if isinstance(obj, IntersectionTensor):
        return _TensorStructure(obj)
    raise TypeError(f"expected a forest or a tensor, got {type(obj).__name__}")


def canonical_form(obj: "ProximityForest | IntersectionTensor") -> CanonicalForm:
    """Canonical relabelling and hash; equal hashes characterize equivalence."""
    struct = _structure_for(obj)
    outcome = _search(struct)
    return CanonicalForm(outcome.labels, hashlib.sha256(outcome.data).hexdigest(), outcome.data, struct)


def automorphism_orbits(obj: "ProximityForest | IntersectionTensor") -> tuple[tuple[int, ...], ...]:
    """Orbits of the automorphism group on indices, as a sorted partition."""
    return _orbits(_structure_for(obj))


def _orbits(struct) -> tuple[tuple[int, ...], ...]:
    groups: dict[int, list[int]] = {}
    for v, least in enumerate(_orbit_ids(struct.n, _search(struct).automorphisms)):
        groups.setdefault(least, []).append(v + 1)
    return tuple(tuple(g) for g in groups.values())


def _compose(labels1: tuple[int, ...], labels2: tuple[int, ...]) -> tuple[int, ...]:
    """The map sending index ``i`` of object 1 to the index of object 2 with the same canonical label."""
    inverse2 = [0] * len(labels2)
    for v, label in enumerate(labels2):
        inverse2[label - 1] = v + 1
    return tuple(inverse2[labels1[i] - 1] for i in range(len(labels1)))


def _match(s1, s2) -> tuple[int, ...] | None:
    """The map carrying structure ``s1`` onto ``s2`` if the composed canonical labellings do, or ``None``.

    Both labellings are canonical, so the composed map carries ``s1`` onto
    ``s2`` exactly when the two are equivalent: checking it on the inputs
    decides the question, and no leaf's data is written.
    """
    o1, o2 = _search(s1), _search(s2)
    if len(o1.labels) != len(o2.labels):
        return None
    perm = _compose(o1.labels, o2.labels)
    return perm if s1.relabel(list(perm)) == s2.original() else None


def forest_isomorphic(f1: ProximityForest, f2: ProximityForest) -> tuple[int, ...] | None:
    """A degree- and proximity-preserving bijection of points, or ``None``."""
    if f1.dimension != f2.dimension:
        raise ValueError(f"dimension mismatch: {f1.dimension} vs {f2.dimension}")
    return _match(_DigraphStructure.of_forest(f1), _DigraphStructure.of_forest(f2))


def tensor_equivalent(t1: IntersectionTensor, t2: IntersectionTensor) -> tuple[int, ...] | None:
    """An index permutation carrying ``t1`` onto ``t2``, or ``None``.

    Decided by canonical search on the tensors themselves; the composed
    canonical labellings are verified on every stored entry.  This works
    for any symmetric form, whether or not it comes from a blow-up
    sequence.
    """
    if t1.dimension != t2.dimension:
        raise ValueError(f"dimension mismatch: {t1.dimension} vs {t2.dimension}")
    return _match(_TensorStructure(t1), _TensorStructure(t2))


# Not public: ``perfbench/tracer.py`` wraps ``blowups.equivalence.tensor_equivalent_direct``
# by name, and every traced benchmark run fails with AttributeError without it.
tensor_equivalent_direct = tensor_equivalent


def marked_forest_equivalent(
    f1: ProximityForest,
    p1: MarkedPartition,
    f2: ProximityForest,
    p2: MarkedPartition,
) -> tuple[int, ...] | None:
    """A block bijection preserving block degrees and block proximity, or ``None``."""
    if f1.dimension != f2.dimension:
        raise ValueError(f"dimension mismatch: {f1.dimension} vs {f2.dimension}")
    g1 = _DigraphStructure.of_blocks(f1, p1)
    g2 = _DigraphStructure.of_blocks(f2, p2)
    if len(p1) != len(p2):
        raise ValueError(f"block count mismatch: {len(p1)} vs {len(p2)}")
    return _match(g1, g2)


def marked_tensor_equivalent(
    t1: IntersectionTensor,
    p1: MarkedPartition,
    t2: IntersectionTensor,
    p2: MarkedPartition,
) -> tuple[int, ...] | None:
    """Equivalence of the forms induced on blocks, as a block permutation."""
    if t1.dimension != t2.dimension:
        raise ValueError(f"dimension mismatch: {t1.dimension} vs {t2.dimension}")
    q1, q2 = quotient_tensor(t1, p1), quotient_tensor(t2, p2)
    if len(p1) != len(p2):
        raise ValueError(f"block count mismatch: {len(p1)} vs {len(p2)}")
    return tensor_equivalent(q1, q2)


def partition_compatible_morphism(tensor: IntersectionTensor, partition: MarkedPartition) -> bool:
    """Whether every block lies inside one orbit of the tensor's automorphism group."""
    partition.check(tensor.size)
    return _blocks_inside_orbits(partition, _TensorStructure(tensor))


def partition_compatible_sequence(forest: ProximityForest, partition: MarkedPartition) -> bool:
    """Whether every block lies inside one orbit of the forest's automorphism group."""
    partition.check(len(forest))
    return _blocks_inside_orbits(partition, _DigraphStructure.of_forest(forest))


def _blocks_inside_orbits(partition: MarkedPartition, struct) -> bool:
    least = _orbit_ids(struct.n, _search(struct).automorphisms)
    return all(len({least[i - 1] for i in block}) == 1 for block in partition.blocks)
