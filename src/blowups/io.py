"""JSON file formats and canonical serialization.

All documents are plain JSON with exact integers and no floats.  Parsing
is strict: unknown fields, wrong types (including booleans where integers
are expected), out-of-order ids, unsorted or duplicate tensor indices,
explicit zero entries, and integers outside the signed 64-bit range are
all rejected with :class:`SchemaError`.  The 64-bit bound exists purely to
catch corrupted files; in-memory arithmetic is arbitrary precision.

Tensor and forest documents are checked in bulk: a few passes over the
whole entry or point list, each made by builtins, so loading costs a
small constant per stored entry or point.  Only a document that fails
one of them is read again item by item, which names its first defect.

``canonical_json`` fixes the byte-level encoding used everywhere output
must be deterministic: UTF-8, keys sorted, separators ``","`` and ``":"``,
no whitespace.  A trace, ``recover-all``'s list of every order, the
forest ``recover`` prints and a tensor document are written as that text
directly, byte for byte what ``canonical_json`` makes of
:func:`trace_to_dict`, :func:`forest_to_dict` and :func:`tensor_to_dict`.
An order shares most of its steps with the one before it: only the rest
are encoded, and their index maps start from the survivors at the shared
prefix.  A point is encoded once at each
position it takes in the recovered forests.  A tensor's entries
are each written from one template for its dimension; the ``tensor``,
``contract`` and ``quotient`` commands and each written leaf of the
canonical search share that writer.
"""

from __future__ import annotations

import itertools
import json
import operator
import sys
from typing import Any, Iterable

from .contraction import ContractionStep, ContractionTrace
from .errors import SchemaError
from .forest import MarkedPartition, Point, ProximityForest, ValidationReport
from .tensor import IntersectionTensor

__all__ = [
    "canonical_json",
    "load_document",
    "forest_to_dict",
    "forest_from_dict",
    "partition_to_dict",
    "partition_from_dict",
    "tensor_to_dict",
    "tensor_from_dict",
    "trace_to_dict",
    "trace_from_dict",
    "report_to_dict",
    "witness_to_dict",
]

INT64_MAX = 2**63 - 1


def canonical_json(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def load_document(path: str) -> Any:
    """Parse a JSON document from a file path, or stdin for ``-``.

    Any document that does not decode is a :class:`SchemaError`: bytes that
    are not UTF-8, text that is not JSON, nesting deeper than the recursion
    limit, and an integer with more digits than Python converts.  The last
    is worded here, since Python's own wording differs between versions.
    A file is read as bytes, which costs half as much as a text-mode file.
    That gives the same document, since text mode only rewrites line ends,
    which JSON reads as whitespace; but it moves the positions a decoder's
    message names, so a file that fails is read again in text mode.
    """
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "rb", buffering=0) as handle:
            data = handle.read()
        try:
            return json.loads(data.decode("utf-8"))
        except ValueError:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
    except (ValueError, RecursionError) as exc:
        # The decoder's own errors, and those of a bad byte, are subclasses; a plain ValueError is ``int``'s refusal.
        reason = f"an integer has more than {sys.get_int_max_str_digits()} digits" if type(exc) is ValueError else exc
        raise SchemaError(f"{path}: malformed JSON: {reason}") from exc


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


def forest_to_dict(forest: ProximityForest) -> dict:
    return {
        "dimension": forest.dimension,
        "points": [
            {"id": i, "degree": p.degree, "proximate_to": sorted(p.proximate_to)}
            for i, p in enumerate(forest.points, 1)
        ],
    }


def forest_from_dict(obj: Any) -> ProximityForest:
    _require_object(obj, {"dimension", "points"}, "forest")
    dimension = _require_int(obj["dimension"], "dimension")
    items = _require_list(obj["points"], "points")
    points = _checked_points(items)
    if points is None:
        points = _read_points(items)
    return ProximityForest(dimension, tuple(points))


def _checked_points(items: list) -> list[Point] | None:
    """The points of a well-formed point list, or ``None`` if a check fails.

    As for tensor entries, each check is one pass over the whole list by
    builtins, and only exact ``dict``, ``list`` and ``int`` types pass.
    A list's targets are distinct when its set is as long, and lie in
    ``1..pos-1`` when the least is at least 1 and the greatest below
    ``pos``, so they lie in the 64-bit range too.
    """
    if not items:
        return []
    if set(map(type, items)) != {dict} or set(map(len, items)) != {3}:
        return None
    try:
        ids, degrees, targets = (list(map(operator.itemgetter(f), items)) for f in ("id", "degree", "proximate_to"))
    except KeyError:
        return None
    if set(map(type, ids + degrees)) != {int} or ids != list(range(1, len(items) + 1)):
        return None
    if min(degrees) < -INT64_MAX or max(degrees) > INT64_MAX or set(map(type, targets)) != {list}:
        return None
    flat = list(itertools.chain.from_iterable(targets))
    if not set(map(type, flat)) <= {int} or min(flat, default=1) < 1:
        return None
    if not all(map(operator.lt, map(max, filter(None, targets)), itertools.compress(ids, targets))):
        return None
    sets = list(map(frozenset, targets))
    return list(map(Point, degrees, sets)) if sum(map(len, sets)) == len(flat) else None


def _read_points(items: list) -> list[Point]:
    """The points read one by one: a :class:`SchemaError` naming the first defect, if there is one."""
    points = []
    for pos, raw in enumerate(items, 1):
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
    return points


def partition_to_dict(partition: MarkedPartition) -> dict:
    return {"blocks": [sorted(block) for block in partition.blocks]}


def partition_from_dict(obj: Any) -> MarkedPartition:
    _require_object(obj, {"blocks"}, "partition")
    blocks = []
    seen: set[int] = set()
    for pos, raw in enumerate(_require_list(obj["blocks"], "blocks"), 1):
        block = []
        for i in _require_list(raw, f"block {pos}"):
            i = _require_int(i, f"block {pos} member")
            if i < 1:
                raise SchemaError(f"block {pos} member {i} must be >= 1")
            block.append(i)
        if not block:
            raise SchemaError(f"block {pos} is empty")
        if len(set(block)) != len(block):
            raise SchemaError(f"block {pos} has duplicate members")
        if seen & set(block):
            raise SchemaError(f"block {pos} overlaps an earlier block")
        seen |= set(block)
        blocks.append(frozenset(block))
    return MarkedPartition(tuple(blocks))


def tensor_to_dict(tensor: IntersectionTensor) -> dict:
    return {
        "dimension": tensor.dimension,
        "size": tensor.size,
        "entries": [
            {"index": list(key), "value": value}
            for key, value in sorted(tensor.entries.items())
        ],
    }


def _tensor_json(dimension: int, size: int, rows: Iterable[tuple[int, ...]]) -> str:
    """The canonical JSON of a tensor document with these entries, each a row ``(*index, value)``, in any order.

    Byte for byte what :func:`canonical_json` makes of :func:`tensor_to_dict`.
    The indices must be distinct, as both callers' are: the keys of an
    entry dict, or those keys under a permutation.  So the rows sort by
    index alone.  Each row is written from one template for the
    dimension, made only when there are entries, so a huge ``dimension``
    with none costs nothing.
    """
    rows = sorted(rows)
    text = ""
    if rows:
        template = '{"index":[%s],"value":%%d}' % ",".join(["%d"] * dimension)
        text = ",".join([template % row for row in rows])
    return '{"dimension":%d,"entries":[%s],"size":%d}' % (dimension, text, size)


def tensor_from_dict(obj: Any) -> IntersectionTensor:
    _require_object(obj, {"dimension", "size", "entries"}, "tensor")
    dimension = _require_int(obj["dimension"], "dimension")
    if dimension < 2:
        raise SchemaError(f"tensor dimension must be >= 2, got {dimension}")
    size = _require_int(obj["size"], "size")
    if size < 0:
        raise SchemaError(f"tensor size must be >= 0, got {size}")
    items = _require_list(obj["entries"], "entries")
    entries = _checked_entries(items, dimension, size)
    if entries is None:
        entries = _read_entries(items, dimension, size)
    # Either check covers everything the checking constructor does.
    return IntersectionTensor._trusted(dimension, size, entries)


def _checked_entries(items: list, dimension: int, size: int) -> dict[tuple[int, ...], int] | None:
    """The entries of a well-formed entry list, in document order, or ``None`` if a check fails.

    Each check is one pass over the whole list.  Only exact ``dict``,
    ``list`` and ``int`` types pass, so a subclass, which the per-entry
    reading accepts, falls through to it.  Indices in ``1..size`` lie in
    the 64-bit range, since ``size`` does.
    """
    if not items:  # also keeps a huge ``dimension`` from sizing the columns below
        return {}
    if set(map(type, items)) != {dict} or set(map(len, items)) != {2}:
        return None
    try:
        indices = list(map(operator.itemgetter("index"), items))
        values = list(map(operator.itemgetter("value"), items))
    except KeyError:
        return None
    if set(map(type, indices)) != {list} or set(map(len, indices)) != {dimension}:
        return None
    flat = list(itertools.chain.from_iterable(indices))
    if set(map(type, flat)) != {int} or set(map(type, values)) != {int}:
        return None
    if min(flat) < 1 or max(flat) > size or not all(values):
        return None
    if min(values) < -INT64_MAX or max(values) > INT64_MAX:
        return None
    columns = [flat[c::dimension] for c in range(dimension)]
    if not all(all(map(operator.le, low, high)) for low, high in zip(columns, columns[1:])):
        return None
    entries = dict(zip(map(tuple, indices), values))
    return entries if len(entries) == len(items) else None


def _read_entries(items: list, dimension: int, size: int) -> dict[tuple[int, ...], int]:
    """The entries read one by one: a :class:`SchemaError` naming the first defect, if there is one."""
    entries: dict[tuple[int, ...], int] = {}
    for pos, raw in enumerate(items, 1):
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
    return entries


def trace_to_dict(trace: ContractionTrace) -> dict:
    return {
        "steps": [
            {
                "contracted": step.contracted,
                "degree": step.degree,
                "proximate_to_current": list(step.proximate_to_current),
            }
            for step in trace.steps
        ],
        "index_maps": [list(alive) for alive in trace.index_maps],
    }


_STEP_JSON = '{"contracted":%d,"degree":%d,"proximate_to_current":[%s]}'
_POINT_JSON = '{"degree":%d,"id":%d,"proximate_to":[%s]}'


def _forest_json(forest: ProximityForest) -> str:
    """``canonical_json(forest_to_dict(forest))``, each point written from ``_POINT_JSON`` as ``recover-all`` writes it."""
    points = [_POINT_JSON % (p.degree, i, ",".join(map(str, sorted(p.proximate_to)))) for i, p in enumerate(forest.points, 1)]
    return '{"dimension":%d,"points":[%s]}' % (forest.dimension, ",".join(points))


_ORDER_JSON = '{"forest":{"dimension":%d,"points":[%s]},"trace":%s}'


class _TraceWriter:
    """Writes traces as the canonical JSON of :func:`trace_to_dict`, each past the steps it shares with the last.

    Steps are compared by identity, and only between traces of one
    length: the orders of one walk share the step objects of their common
    prefix, and an equal step made apart is just encoded again.  Each
    distinct step is encoded once.  For the last trace written,
    ``texts[t]`` and ``maps[t]`` hold the encodings of its step ``t`` and
    of ``index_maps[t]``, the survivors after step ``t``.  A new trace
    keeps those of the shared prefix, reads the survivors at its end back
    from the last map kept, and from there each step removes one survivor
    and writes the map.
    """

    def __init__(self):
        self.steps: tuple[ContractionStep, ...] = ()
        self.encoded: dict[int, str] = {}  # id(step) -> its JSON; the caller keeps every step alive
        self.texts: list[str] = []
        self.maps: list[str] = []

    def write(self, trace: ContractionTrace) -> str:
        steps, texts, maps = trace.steps, self.texts, self.maps
        shared = 0
        if len(steps) == len(self.steps):
            for new, old in zip(steps, self.steps):
                if new is not old:
                    break
                shared += 1
        self.steps = steps
        del texts[shared:], maps[shared:]
        if shared < len(steps):
            # A map before the last step names at least one survivor, so its text splits back into them.
            alive = maps[-1][1:-1].split(",") if shared else list(map(str, range(1, len(steps) + 1)))
            encoded = self.encoded
            for step in steps[shared:]:
                text = encoded.get(id(step))
                if text is None:
                    proximities = ",".join(map(str, step.proximate_to_current))
                    text = encoded[id(step)] = _STEP_JSON % (step.contracted, step.degree, proximities)
                texts.append(text)
                del alive[step.contracted - 1]
                maps.append("[%s]" % ",".join(alive))
        return '{"index_maps":[%s],"steps":[%s]}' % (",".join(maps), ",".join(texts))


def _trace_json(trace: ContractionTrace) -> str:
    """``canonical_json(trace_to_dict(trace))``, written by :class:`_TraceWriter`."""
    return _TraceWriter().write(trace)


def _orders_json(results: list[tuple[ProximityForest, ContractionTrace]]) -> str:
    """The canonical JSON of ``recover-all``'s document for ``results``, as :func:`canonical_json` writes it.

    That document is ``{"count", "results": [{"forest", "trace"}]}``, with
    each forest as :func:`forest_to_dict` and each trace as
    :func:`trace_to_dict` give it.  Consecutive orders share a prefix of
    steps, past which :class:`_TraceWriter` derives each trace.  The
    recovered forests share their points, and a point is encoded once at
    each position it takes: ``encoded[i]`` maps the id of a point at
    position ``i + 1`` to its JSON there, so a forest is one lookup per
    position and one join.
    """
    traces = _TraceWriter()
    # Results keep every point alive, so an id names one point for the whole call.
    encoded: list[dict[int, str]] = [{} for _ in range(max((len(forest) for forest, _ in results), default=0))]
    parts = []
    for forest, trace in results:
        points = forest.points
        texts = list(map(dict.get, encoded, map(id, points)))
        if not all(texts):
            for i, point in enumerate(points):
                if texts[i] is None:
                    proximities = ",".join(map(str, sorted(point.proximate_to)))
                    texts[i] = encoded[i][id(point)] = _POINT_JSON % (point.degree, i + 1, proximities)
        parts.append(_ORDER_JSON % (forest.dimension, ",".join(texts), traces.write(trace)))
    return '{"count":%d,"results":[%s]}' % (len(results), ",".join(parts))


def trace_from_dict(obj: Any) -> ContractionTrace:
    _require_object(obj, {"steps", "index_maps"}, "trace")
    raw_steps = _require_list(obj["steps"], "steps")
    raw_maps = _require_list(obj["index_maps"], "index_maps")
    if len(raw_steps) != len(raw_maps):
        raise SchemaError("steps and index_maps must have equal length")
    steps = []
    size = len(raw_steps)
    for pos, raw in enumerate(raw_steps, 1):
        _require_object(raw, {"contracted", "degree", "proximate_to_current"}, f"step {pos}")
        stage = size - pos + 1
        contracted = _require_int(raw["contracted"], f"step {pos} contracted")
        if not 1 <= contracted <= stage:
            raise SchemaError(f"step {pos} contracts index {contracted}, stage has 1..{stage}")
        proximities = tuple(
            _require_int(j, f"step {pos} proximity") for j in _require_list(raw["proximate_to_current"], f"step {pos}")
        )
        if any(not 1 <= j <= stage or j == contracted for j in proximities):
            raise SchemaError(f"step {pos} proximities must lie in 1..{stage}, apart from {contracted}")
        if any(a >= b for a, b in zip(proximities, proximities[1:])):
            raise SchemaError(f"step {pos} proximities must be strictly increasing")
        degree = _require_int(raw["degree"], f"step {pos} degree")
        if degree < 1:
            raise SchemaError(f"step {pos} degree must be >= 1, got {degree}")
        steps.append(ContractionStep(contracted, degree, proximities))
    trace = ContractionTrace(tuple(steps))
    # One map at a time, so a wrong early map is turned away before the later ones are built.
    for pos, (alive, expected) in enumerate(zip(raw_maps, trace._survivors()), 1):
        survivors = tuple(_require_int(i, f"index map {pos}") for i in _require_list(alive, f"index map {pos}"))
        if survivors != expected:
            raise SchemaError(f"index map {pos} must be {list(expected)}, as the steps imply")
    return trace


def report_to_dict(report: ValidationReport) -> dict:
    return {
        "ok": report.ok,
        "violations": [
            {"rule": v.rule, "indices": list(v.indices), "message": v.message}
            for v in report.violations
        ],
    }


def witness_to_dict(permutation: tuple[int, ...] | None) -> dict:
    if permutation is None:
        return {"equivalent": False}
    return {"equivalent": True, "permutation": list(permutation)}
