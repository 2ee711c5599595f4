"""Independent reference implementations used only by the tests.

Everything here is deliberately naive: brute-force sums over all index
tuples, all-permutations searches, and direct surface intersection counts.
None of it shares code with the package beyond the public data types, so
agreement is meaningful.  The exceptions are ``oracle_refine``, which
reads a canonical-search structure's ``fingerprint`` and nothing else, and
``oracle_leaf_data``, which reads its ``relabel`` and nothing else.
``oracle_orders_document`` encodes ``recover-all``'s results as a dict
passed to ``json.dumps``, as the command line did before it wrote that
document as text.
``oracle_tensor_from_dict`` and ``oracle_forest_from_dict`` are the
tensor and forest readers before their bulk checks: every entry or point
read and checked in turn, naming the first defect.
"""

from __future__ import annotations

import itertools
import json
import random
from typing import Any

from blowups import IntersectionTensor, MarkedPartition, Point, ProximityForest, SchemaError, Violation

INT64_MAX = 2**63 - 1


def oracle_tensor(forest: ProximityForest) -> IntersectionTensor:
    """Entry-by-entry expansion into total transforms, m^d tuples per entry."""
    d, m = forest.dimension, len(forest)
    # coeff[i][k] of the k-th total transform in the i-th strict transform
    coeff = [[0] * (m + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        coeff[i][i] = 1
    for k in range(1, m + 1):
        for i in forest.targets(k):
            coeff[i][k] = -1
    sign = (-1) ** (d - 1)
    entries = {}
    for key in itertools.combinations_with_replacement(range(1, m + 1), d):
        total = 0
        for ks in itertools.product(range(1, m + 1), repeat=d):
            if len(set(ks)) != 1:
                continue
            term = sign * forest.degree(ks[0])
            for slot, i in enumerate(key):
                term *= coeff[i][ks[slot]]
            total += term
        if total:
            entries[key] = total
    return IntersectionTensor(d, m, entries)


def oracle_evaluate(tensor: IntersectionTensor, vectors) -> int:
    """The multilinear form on ``dimension`` vectors, by its definition: a sum over the product of their supports."""
    supports = [tuple((i, x) for i, x in enumerate(v, 1) if x) for v in vectors]
    total = 0
    for combo in itertools.product(*supports):
        value = tensor.entries.get(tuple(sorted(i for i, _ in combo)), 0)
        for _, x in combo:
            value *= x
        total += value
    return total


def oracle_surface_intersection(forest: ProximityForest, i: int, j: int) -> int:
    """Intersection number of strict transforms on a surface, from proximities alone.

    For a < b this is deg(b) when b is proximate to a (else 0), minus the
    degrees of all points proximate to both.
    """
    a, b = min(i, j), max(i, j)
    direct = forest.degree(b) if a in forest.targets(b) else 0
    shared = sum(
        forest.degree(k) for k in range(1, len(forest) + 1) if {a, b} <= forest.targets(k)
    )
    return direct - shared


def apply_permutation(tensor: IntersectionTensor, perm: tuple[int, ...]) -> IntersectionTensor:
    entries = {
        tuple(sorted(perm[i - 1] for i in key)): value for key, value in tensor.entries.items()
    }
    return IntersectionTensor(tensor.dimension, tensor.size, entries)


def oracle_disjoint(tensor: IntersectionTensor, i: int, j: int) -> bool:
    """Whether every mixed product ``T(i^{d-r} j^r)``, ``0 < r < d``, vanishes."""
    d = tensor.dimension
    return all(tensor.entries.get(tuple(sorted((i,) * (d - r) + (j,) * r)), 0) == 0 for r in range(1, d))


def oracle_final(tensor: IntersectionTensor, i: int) -> tuple[int, ...] | None:
    """The neighbours of ``i`` if it is final, else ``None``, read off the definition.

    Against every neighbour ``j``: ``T(i j^{d-1}) > 0`` and
    ``T(i^d) = (-1)^r T(i^{d-r} j^r)`` for ``0 < r < d``.  With no
    neighbour: ``(-1)^{d-1} T(i^d) > 0``.
    """
    d, m = tensor.dimension, tensor.size

    def t(index) -> int:
        return tensor.entries.get(tuple(sorted(index)), 0)

    pure = t((i,) * d)
    neighbours = tuple(j for j in range(1, m + 1) if j != i and not oracle_disjoint(tensor, i, j))
    if not neighbours:
        return () if (-1) ** (d - 1) * pure > 0 else None
    for j in neighbours:
        if t((i,) + (j,) * (d - 1)) <= 0:
            return None
        if any(pure != (-1) ** r * t((i,) * (d - r) + (j,) * r) for r in range(1, d)):
            return None
    return neighbours


def oracle_contract(tensor: IntersectionTensor, i: int):
    """Dense blow-down of component ``i``: entries, degree, proximities and index map.

    The neighbours of ``i`` are the components with a nonzero mixed
    product with it.  Each multiset of survivors sums ``T`` over every
    choice of ``a`` or ``i`` in each slot holding a neighbour ``a``, and is
    renumbered by the survivors' positions.
    """
    d, m = tensor.dimension, tensor.size

    def t(index) -> int:
        return tensor.entries.get(tuple(sorted(index)), 0)

    neighbours = [j for j in range(1, m + 1) if j != i and not oracle_disjoint(tensor, i, j)]
    survivors = [a for a in range(1, m + 1) if a != i]
    index_map = tuple(None if a == i else survivors.index(a) + 1 for a in range(1, m + 1))
    entries = {}
    for key in itertools.combinations_with_replacement(survivors, d):
        slots = [(a, i) if a in neighbours else (a,) for a in key]
        value = sum(t(combo) for combo in itertools.product(*slots))
        if value:
            entries[tuple(index_map[a - 1] for a in key)] = value
    pure = t((i,) * d)
    return entries, (-1) ** (d - 1) * pure, tuple(neighbours), index_map


def oracle_forest(dimension: int, trace) -> ProximityForest:
    """The forest a full contraction history defines, read off its steps and index maps.

    Before step ``t`` of ``m`` the components alive are, in current order,
    the original indices ``index_maps[t - 2]`` (``1..m`` before the first
    step).  Step ``t`` creates point ``m + 1 - t`` with the step's degree,
    proximate to the points created by the components it met.
    """
    m = len(trace.steps)
    before = [tuple(range(1, m + 1))] + list(trace.index_maps[:-1])
    created = {alive[step.contracted - 1]: m + 1 - t for t, (step, alive) in enumerate(zip(trace.steps, before), 1)}
    points = [None] * m
    for t, (step, alive) in enumerate(zip(trace.steps, before), 1):
        points[m - t] = Point(step.degree, frozenset(created[alive[j - 1]] for j in step.proximate_to_current))
    return ProximityForest(dimension, tuple(points))


def brute_force_tensor_equivalent(t1: IntersectionTensor, t2: IntersectionTensor) -> tuple[int, ...] | None:
    """All m! permutations, first match wins."""
    if t1.size != t2.size:
        return None
    for perm in itertools.permutations(range(1, t1.size + 1)):
        if apply_permutation(t1, perm).entries == t2.entries:
            return perm
    return None


def brute_force_forest_isomorphic(f1: ProximityForest, f2: ProximityForest) -> tuple[int, ...] | None:
    if len(f1) != len(f2):
        return None
    m = len(f1)
    for perm in itertools.permutations(range(1, m + 1)):
        if all(
            f2.degree(perm[i - 1]) == f1.degree(i)
            and {perm[j - 1] for j in f1.targets(i)} == f2.targets(perm[i - 1])
            for i in range(1, m + 1)
        ):
            return perm
    return None


def brute_force_orbits(automorphism_test, size: int) -> tuple[tuple[int, ...], ...]:
    """Orbits under all permutations passing ``automorphism_test``."""
    parent = list(range(size + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in itertools.permutations(range(1, size + 1)):
        if automorphism_test(perm):
            for i in range(1, size + 1):
                a, b = find(i), find(perm[i - 1])
                if a != b:
                    parent[a] = b
    groups: dict[int, list[int]] = {}
    for i in range(1, size + 1):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=min))


def brute_force_tensor_orbits(tensor: IntersectionTensor) -> tuple[tuple[int, ...], ...]:
    return brute_force_orbits(
        lambda perm: apply_permutation(tensor, perm).entries == tensor.entries, tensor.size
    )


def brute_force_forest_orbits(forest: ProximityForest) -> tuple[tuple[int, ...], ...]:
    def is_automorphism(perm: tuple[int, ...]) -> bool:
        return all(
            forest.degree(perm[i - 1]) == forest.degree(i)
            and {perm[j - 1] for j in forest.targets(i)} == forest.targets(perm[i - 1])
            for i in range(1, len(forest) + 1)
        )

    return brute_force_orbits(is_automorphism, len(forest))


def brute_force_block_orbits(forest: ProximityForest, partition: MarkedPartition) -> tuple[tuple[int, ...], ...]:
    """Orbits of the block permutations preserving block degrees and the edges between blocks."""
    block_of = {i: b for b, block in enumerate(partition.blocks, 1) for i in block}
    degrees = [sum(forest.degree(i) for i in block) for block in partition.blocks]
    edges = {(block_of[i], block_of[j]) for i in range(1, len(forest) + 1) for j in forest.targets(i)}

    def is_automorphism(perm: tuple[int, ...]) -> bool:
        return all(degrees[perm[b] - 1] == degrees[b] for b in range(len(perm))) and {
            (perm[a - 1], perm[b - 1]) for a, b in edges
        } == edges

    return brute_force_orbits(is_automorphism, len(partition))


def random_relabel(forest: ProximityForest, rng: random.Random) -> tuple[ProximityForest, tuple[int, ...]]:
    """Relabel along a random linear extension of the proximity order.

    Returns the relabelled forest and the permutation sending old indices
    to new ones; the result is a valid forest isomorphic to the input.
    """
    m = len(forest)
    placed: dict[int, int] = {}
    ready = [i for i in range(1, m + 1) if not forest.targets(i)]
    while ready:
        pick = ready.pop(rng.randrange(len(ready)))
        placed[pick] = len(placed) + 1
        for i in range(1, m + 1):
            if i not in placed and i not in ready and forest.targets(i) <= placed.keys():
                ready.append(i)
    points = [None] * m
    for old, new in placed.items():
        points[new - 1] = Point(forest.degree(old), frozenset(placed[j] for j in forest.targets(old)))
    perm = tuple(placed[i] for i in range(1, m + 1))
    return ProximityForest(forest.dimension, tuple(points)), perm


def random_partition(size: int, rng: random.Random) -> MarkedPartition:
    """A uniform-ish random partition of 1..size."""
    blocks: list[set[int]] = []
    for i in range(1, size + 1):
        if blocks and rng.random() < 0.6:
            rng.choice(blocks).add(i)
        else:
            blocks.append({i})
    rng.shuffle(blocks)
    return MarkedPartition(tuple(frozenset(b) for b in blocks))


def random_partition_inside(orbits: tuple[tuple[int, ...], ...], rng: random.Random) -> MarkedPartition:
    """A random partition refining the given orbit partition."""
    blocks: list[frozenset[int]] = []
    for orbit in orbits:
        members = list(orbit)
        rng.shuffle(members)
        while members:
            cut = rng.randint(1, len(members))
            blocks.append(frozenset(members[:cut]))
            members = members[cut:]
    rng.shuffle(blocks)
    return MarkedPartition(tuple(blocks))


def enumerate_forests(dimension: int, size: int, max_degree: int):
    """Every valid forest with exactly ``size`` points and degrees up to ``max_degree``."""
    target_choices = []
    for i in range(1, size + 1):
        earlier = range(1, i)
        choices = [
            frozenset(c)
            for t in range(0, min(dimension, i - 1) + 1)
            for c in itertools.combinations(earlier, t)
        ]
        target_choices.append(choices)
    degree_choices = itertools.product(range(1, max_degree + 1), repeat=size)
    all_targets = list(itertools.product(*target_choices)) if size else [()]
    for degrees in degree_choices:
        for targets in all_targets:
            yield ProximityForest(
                dimension, tuple(Point(d, t) for d, t in zip(degrees, targets))
            )


def perturb(tensor: IntersectionTensor, how: str, rng: random.Random) -> IntersectionTensor:
    """A tensor near a blow-up form that usually is not one.

    ``"entry"`` and ``"diagonal"`` pick an index, so a size-0 tensor comes back unchanged.
    """
    d, m = tensor.dimension, tensor.size
    entries = dict(tensor.entries)
    if m == 0 and how in ("entry", "diagonal"):
        return tensor
    if how == "entry":
        stored = sorted(entries)
        key = rng.choice(stored) if stored and rng.random() < 0.5 else tuple(rng.randint(1, m) for _ in range(d))
        entries[tuple(sorted(key))] = rng.randint(-3, 3)
    elif how == "negate":
        entries = {key: -value for key, value in entries.items()}
    elif how == "isolated":
        m += 1
        entries[(m,) * d] = rng.choice((-2, -1, 1, 2))
    else:
        entries.pop((rng.randint(1, m),) * d, None)
    return IntersectionTensor(d, m, entries)


TENSOR_DEFECTS = (
    "unsorted", "length", "range", "zero", "duplicate", "bool index", "bool value", "not an object",
    "missing field", "unknown field", "index not an array", "float element", "string element",
    "big element", "big value", "edge value",
)


def spoil_tensor_entry(doc: dict, pos: int, defect: str, choose) -> None:
    """Spoil entry ``pos`` of a tensor document in place with one of ``TENSOR_DEFECTS``.

    ``choose`` picks one item of a sequence.  An entry whose shape an
    earlier defect spoilt already is left as it is.  ``"edge value"`` is
    no defect: it sets the value to exactly ``±(2**63 - 1)``.
    """
    entries = doc["entries"]
    entry = entries[pos]
    if not isinstance(entry, dict) or not isinstance(entry.get("index"), list) or "value" not in entry:
        return
    index, sign = entry["index"], choose([-1, 1])
    if defect == "unsorted":
        index.reverse()
    elif defect == "length":
        index.append(index[-1])
    elif defect == "range":
        index[-1] = doc["size"] + 1
    elif defect == "zero":
        entry["value"] = 0
    elif defect == "duplicate":
        others = [e["index"] for e in entries if e is not entry and isinstance(e, dict) and isinstance(e.get("index"), list)]
        entry["index"] = list(choose(others)) if others else index
    elif defect == "bool index":
        index[0] = True
    elif defect == "bool value":
        entry["value"] = True
    elif defect == "not an object":
        entries[pos] = choose([[index, entry["value"]], None, entry["value"]])
    elif defect == "missing field":
        del entry[choose(["index", "value"])]
    elif defect == "unknown field":
        entry["weight"] = entry["value"]
    elif defect == "index not an array":
        entry["index"] = choose([tuple(index), index[0], {"0": index[0]}])
    elif defect == "float element":
        index[-1] = float(index[-1])
    elif defect == "string element":
        index[-1] = str(index[-1])
    elif defect == "big element":
        index[choose(range(len(index)))] = sign * 2**63
    elif defect == "big value":
        entry["value"] = sign * 2**63
    elif defect == "edge value":
        entry["value"] = sign * (2**63 - 1)
    else:
        raise ValueError(f"unknown defect {defect!r}")


def oracle_refine(struct, colors: list[int]) -> list[int]:
    """Colour refinement that fingerprints every vertex in every round, as dense ranks.

    ``struct`` is a canonical-search structure; only ``struct.fingerprint``
    is read.  Each round ranks ``(colour, fingerprint)`` pairs, so ranks sort
    by the old colour first, and the loop ends when no class splits.
    """
    while True:
        keys = [(c, struct.fingerprint(v, colors)) for v, c in enumerate(colors)]
        order = {key: rank for rank, key in enumerate(sorted(set(keys)))}
        refined = [order[key] for key in keys]
        if len(order) == len(set(colors)):
            return refined
        colors = refined


def oracle_leaf_data(struct, labels: list[int]) -> bytes:
    """A search leaf's data: the canonical JSON of the document of ``struct.relabel(labels)``.

    ``struct`` is a canonical-search structure.  A forest and a tensor read
    as their file formats; a block-proximity graph, which ``relabel`` gives
    as a forest with ``dimension`` ``None``, as its degrees and its edges.
    Keys sorted, separators ``","`` and ``":"``, as ``canonical_json``.
    """
    relabeled = struct.relabel(labels)
    if isinstance(relabeled, IntersectionTensor):
        doc = {
            "dimension": relabeled.dimension,
            "size": relabeled.size,
            "entries": [{"index": list(key), "value": value} for key, value in sorted(relabeled.entries.items())],
        }
    elif relabeled.dimension is None:
        doc = {"degrees": [p.degree for p in relabeled.points], "edges": sorted(map(list, relabeled.edges()))}
    else:
        doc = {
            "dimension": relabeled.dimension,
            "points": [
                {"id": i, "degree": p.degree, "proximate_to": sorted(p.proximate_to)}
                for i, p in enumerate(relabeled.points, 1)
            ],
        }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def oracle_trace_dict(trace) -> dict:
    """A trace's document as ``recover --trace`` writes it, its index maps derived from the steps one list at a time."""
    alive, maps = list(range(1, len(trace.steps) + 1)), []
    for step in trace.steps:
        del alive[step.contracted - 1]
        maps.append(list(alive))
    steps = [
        {"contracted": s.contracted, "degree": s.degree, "proximate_to_current": list(s.proximate_to_current)}
        for s in trace.steps
    ]
    return {"steps": steps, "index_maps": maps}


def oracle_orders_document(results) -> str:
    """``recover-all``'s output line, less its newline: the canonical JSON of the whole document, built as a dict."""
    doc = {
        "count": len(results),
        "results": [
            {
                "forest": {
                    "dimension": forest.dimension,
                    "points": [
                        {"id": i, "degree": p.degree, "proximate_to": sorted(p.proximate_to)}
                        for i, p in enumerate(forest.points, 1)
                    ],
                },
                "trace": oracle_trace_dict(trace),
            }
            for forest, trace in results
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def oracle_separation(forest: ProximityForest) -> list[Violation]:
    """The surface rules of strict validation, rescanning every earlier point for each pair of targets.

    A point ``k`` proximate to exactly two earlier points ``i < j`` needs
    ``j`` proximate to ``i`` and ``deg(j)`` above the total degree of the
    earlier points proximate to both.
    """
    found = []
    for k, p in enumerate(forest.points, 1):
        pair = sorted(j for j in p.proximate_to if 1 <= j < k)
        if len(pair) != 2:
            continue
        i, j = pair
        if i not in forest.targets(j):
            message = f"point {k} proximate to both {i} and {j}, but {j} is not proximate to {i}"
            found.append(Violation("targets-not-proximate", (k, i, j), message))
            continue
        remaining = forest.degree(j) - sum(forest.degree(k2) for k2 in range(1, k) if {i, j} <= forest.targets(k2))
        if remaining <= 0:
            message = (
                f"point {k}'s targets {{{i},{j}}} are already separated (remaining intersection degree {remaining})"
            )
            found.append(Violation("targets-separated", (k, i, j), message))
    return found


def _require_object(obj: Any, keys: set[str], what: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be a JSON object")
    unknown = set(obj) - keys
    if unknown:
        raise SchemaError(f"{what} has unknown fields: {sorted(unknown)}")
    missing = keys - set(obj)
    if missing:
        raise SchemaError(f"{what} is missing fields: {sorted(missing)}")
    return obj


def _require_int(value: Any, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{what} must be an integer")
    if not -INT64_MAX <= value <= INT64_MAX:
        raise SchemaError(f"{what} outside 64-bit range")
    return value


def _require_list(value: Any, what: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be an array")
    return value


def oracle_tensor_from_dict(obj: Any) -> IntersectionTensor:
    """A tensor document read entry by entry, each entry checked in turn."""
    _require_object(obj, {"dimension", "size", "entries"}, "tensor")
    dimension = _require_int(obj["dimension"], "dimension")
    if dimension < 2:
        raise SchemaError(f"tensor dimension must be >= 2, got {dimension}")
    size = _require_int(obj["size"], "size")
    if size < 0:
        raise SchemaError(f"tensor size must be >= 0, got {size}")
    entries: dict[tuple[int, ...], int] = {}
    for pos, raw in enumerate(_require_list(obj["entries"], "entries"), 1):
        _require_object(raw, {"index", "value"}, f"entry {pos}")
        index = tuple(_require_int(i, f"entry {pos} index") for i in _require_list(raw["index"], f"entry {pos} index"))
        if len(index) != dimension:
            raise SchemaError(f"entry {pos} index must have length {dimension}")
        if any(not 1 <= i <= size for i in index):
            raise SchemaError(f"entry {pos} index out of range 1..{size}")
        if any(a > b for a, b in zip(index, index[1:])):
            raise SchemaError(f"entry {pos} index must be sorted nondecreasing")
        if index in entries:
            raise SchemaError(f"entry {pos} duplicates index {list(index)}")
        value = _require_int(raw["value"], f"entry {pos} value")
        if value == 0:
            raise SchemaError(f"entry {pos} has value 0; zero entries must be omitted")
        entries[index] = value
    return IntersectionTensor(dimension, size, entries)


def oracle_forest_from_dict(obj: Any) -> ProximityForest:
    """A forest document read point by point, each point checked in turn."""
    _require_object(obj, {"dimension", "points"}, "forest")
    dimension = _require_int(obj["dimension"], "dimension")
    points = []
    for pos, raw in enumerate(_require_list(obj["points"], "points"), 1):
        _require_object(raw, {"id", "degree", "proximate_to"}, f"point {pos}")
        if _require_int(raw["id"], f"point {pos} id") != pos:
            raise SchemaError(f"point ids must be 1..m in order, got {raw['id']} at position {pos}")
        degree = _require_int(raw["degree"], f"point {pos} degree")
        targets = []
        for j in _require_list(raw["proximate_to"], f"point {pos} proximate_to"):
            j = _require_int(j, f"point {pos} proximity target")
            if not 1 <= j < pos:
                raise SchemaError(f"point {pos} proximate to {j}, targets must lie in 1..{pos - 1}")
            targets.append(j)
        if len(set(targets)) != len(targets):
            raise SchemaError(f"point {pos} has duplicate proximity targets")
        points.append(Point(degree, frozenset(targets)))
    return ProximityForest(dimension, tuple(points))
