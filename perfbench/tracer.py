"""Spans and counters recorded around the library's layers, from outside it.

``instrument`` replaces each public function under the name its caller
looks it up by (``blowups.cli.contract`` and ``blowups.contraction.contract``
are separate names for one function) with a wrapper that records a span
or bumps a counter; ``Tracer.uninstall`` puts the originals back.  No
library source changes.

A span records its name, start, end, parent span and op id.  Spans are
kept in memory in flat arrays and written out once, at the end of a run.
A span's self time is its duration minus its child spans' durations.
The hot inner calls ``is_final``, ``empty_intersection`` and ``evaluate``
are counted, not spanned.
"""

from __future__ import annotations

import gzip
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

SEARCHES = ("equivalence.canonical", "equivalence.orbits")


class CountingEntries(dict):
    """A tensor's entry dict that counts reads, swapped in for one ``contract`` call."""

    def __init__(self, data):
        super().__init__(data)
        self.reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return dict.get(self, key, default)

    def __getitem__(self, key):
        self.reads += 1
        return dict.__getitem__(self, key)

    def __contains__(self, key):
        self.reads += 1
        return dict.__contains__(self, key)

    def items(self):
        self.reads += len(self)
        return dict.items(self)

    def keys(self):
        self.reads += len(self)
        return dict.keys(self)

    def values(self):
        self.reads += len(self)
        return dict.values(self)

    def __iter__(self):
        self.reads += len(self)
        return dict.__iter__(self)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.stack: list[list] = []  # [name, start, child seconds, span index]
        self.active: Counter = Counter()  # open spans by name
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.counts: Counter = Counter()  # counters of the current op
        self.totals: Counter = Counter()  # counters of every finished op
        self.op = -1
        self._patches: list[tuple] = []

    def enter(self, name: str) -> None:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1][3] if self.stack else -1)
        self.span_op.append(self.op)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.active[name] += 1
        self.counts[name + ".calls"] += 1
        frame = [name, 0.0, 0.0, index]
        self.stack.append(frame)
        frame[1] = perf_counter()

    def exit(self) -> None:
        end = perf_counter()
        name, start, child, index = self.stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        if self.stack:
            self.stack[-1][2] += duration
        self.span_start[index] = start
        self.span_end[index] = end
        self.active[name] -= 1

    def in_search(self) -> bool:
        return any(self.active[name] for name in SEARCHES)

    def begin_op(self, op: int) -> None:
        self.op = op
        self.counts = Counter()

    def end_op(self) -> Counter:
        self.totals.update(self.counts)
        return self.counts

    # ---- installation ----------------------------------------------------

    def patch(self, module, attr: str, make) -> None:
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, make(original))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        """All spans as CSV: name, start and end in microseconds, parent span, op id."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("span,name,start_us,end_us,parent,op\n")
            t0 = self.span_start[0] if self.span_start else 0.0
            for i in range(len(self.span_name)):
                handle.write(
                    f"{i},{self.names[self.span_name[i]]},{(self.span_start[i] - t0) * 1e6:.1f},"
                    f"{(self.span_end[i] - t0) * 1e6:.1f},{self.span_parent[i]},{self.span_op[i]}\n"
                )


def instrument(tracer: Tracer, lib) -> None:
    """Wrap the public functions of ``lib.cli``, ``lib.contraction``, ``lib.equivalence``, ``lib.tensor`` and ``lib.io``."""
    cli, contraction, equivalence, tensor, io = lib.cli, lib.contraction, lib.equivalence, lib.tensor, lib.io
    counts = lambda: tracer.counts  # noqa: E731 - the op's counter changes at every op

    def span(name):
        def make(fn):
            def wrapper(*args, **kwargs):
                tracer.enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.exit()

            return wrapper

        return make

    def counted(name, under=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                c = counts()
                c[name] += 1
                if under and tracer.active[under]:
                    c[name + "_under_" + under] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def contract(fn):
        def wrapper(tensor_, i):
            entries = tensor_.entries
            reading = CountingEntries(entries)
            object.__setattr__(tensor_, "entries", reading)
            tracer.enter("contraction.contract")
            try:
                result = fn(tensor_, i)
            finally:
                tracer.exit()
                object.__setattr__(tensor_, "entries", entries)
            c = counts()
            c["entries_read"] += reading.reads
            c["entries_written"] += len(result[0].entries)
            if tracer.active["contraction.recover_all"]:
                c["recover_all_contracts"] += 1
            return result

        return wrapper

    def recover_all(fn):
        inner = span("contraction.recover_all")(fn)

        def wrapper(*args, **kwargs):
            results = inner(*args, **kwargs)
            counts()["orders"] += len(results)
            return results

        return wrapper

    def with_nnz(name):
        def make(fn):
            inner = span(name)(fn)

            def wrapper(*args, **kwargs):
                result = inner(*args, **kwargs)
                counts()["nnz"] += len(result.entries)
                return result

            return wrapper

        return make

    def load_document(fn):
        inner = span("io.load")(fn)

        def wrapper(path):
            result = inner(path)
            # Under the benchmark, stdin is always an in-memory document.
            counts()["bytes_in"] += len(sys.stdin.getvalue()) if path == "-" else os.path.getsize(path)
            return result

        return wrapper

    def dump(fn):
        """Serialisation outside a search is ``io.dump``; inside one it belongs to the search."""
        inner = span("io.dump")(fn)
        is_json = fn.__name__ == "canonical_json"

        def wrapper(*args, **kwargs):
            if tracer.in_search():
                if is_json:
                    counts()["leaves"] += 1
                return fn(*args, **kwargs)
            return inner(*args, **kwargs)

        return wrapper

    plan = [
        (cli, "main", span("cli.main")),
        (cli, "contract", contract),
        (contraction, "contract", contract),
        (cli, "final_set", span("contraction.final_set")),
        (contraction, "final_set", span("contraction.final_set")),
        (contraction, "is_final", counted("is_final", under="contraction.final_set")),
        (contraction, "empty_intersection", counted("empty_intersection")),
        (cli, "recover_sequence", span("contraction.recover")),
        (equivalence, "recover_sequence", span("contraction.recover")),
        (cli, "recover_all_orders", recover_all),
        (cli, "canonical_form", span("equivalence.canonical")),
        (equivalence, "canonical_form", span("equivalence.canonical")),
        (cli, "automorphism_orbits", span("equivalence.orbits")),
        (equivalence, "automorphism_orbits", span("equivalence.orbits")),
        (cli, "tensor_equivalent", span("equivalence.tensor_equivalent")),
        (equivalence, "tensor_equivalent", span("equivalence.tensor_equivalent")),
        (cli, "forest_isomorphic", span("equivalence.forest_isomorphic")),
        (equivalence, "forest_isomorphic", span("equivalence.forest_isomorphic")),
        (equivalence, "tensor_equivalent_direct", span("equivalence.direct")),
        (cli, "marked_tensor_equivalent", span("equivalence.marked")),
        (cli, "tensor_from_forest", with_nnz("tensor.from_forest")),
        (cli, "quotient_tensor", span("tensor.quotient")),
        (equivalence, "quotient_tensor", span("tensor.quotient")),
        (tensor, "evaluate", counted("evaluate")),
        (cli, "validate_forest", span("forest.validate")),
        (io, "load_document", load_document),
        (io, "forest_from_dict", span("io.load")),
        (io, "tensor_from_dict", with_nnz("io.load")),
        (io, "partition_from_dict", span("io.load")),
        (io, "canonical_json", dump),
        (io, "forest_to_dict", dump),
        (io, "tensor_to_dict", dump),
        (io, "trace_to_dict", dump),
        (io, "witness_to_dict", dump),
    ]
    for module, attr, make in plan:
        tracer.patch(module, attr, make)


# Per-layer metrics: name -> unit.  Each is per op, over whole passes.
LAYER_METRICS = {
    "contraction.self_ms": "ms",
    "contraction.contract_ms": "ms",
    "contraction.contract_calls": "count",
    "contraction.entries_read": "count",
    "contraction.entries_written": "count",
    "contraction.final_set_ms": "ms",
    "contraction.final_set_calls": "count",
    "contraction.is_final_calls": "count",
    "contraction.empty_intersection_calls": "count",
    "contraction.probes_per_stage": "count",
    "contraction.recover_ms": "ms",
    "contraction.recover_all_ms": "ms",
    "contraction.orders": "count",
    "contraction.contracts_per_order": "count",
    "equivalence.self_ms": "ms",
    "equivalence.canonical_ms": "ms",
    "equivalence.orbits_ms": "ms",
    "equivalence.canonical_calls": "count",
    "equivalence.leaves": "count",
    "equivalence.leaves_per_search": "count",
    "equivalence.tensor_equivalent_self_ms": "ms",
    "equivalence.forest_isomorphic_self_ms": "ms",
    "equivalence.direct_ms": "ms",
    "equivalence.marked_self_ms": "ms",
    "tensor.self_ms": "ms",
    "tensor.from_forest_ms": "ms",
    "tensor.quotient_ms": "ms",
    "tensor.evaluate_calls": "count",
    "tensor.nnz": "count",
    "cli.self_ms": "ms",
    "io.self_ms": "ms",
    "io.load_ms": "ms",
    "io.dump_ms": "ms",
    "io.bytes_in": "bytes",
    "io.bytes_out": "bytes",
    "forest.validate_ms": "ms",
}


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """The ``LAYER_METRICS`` values, per op, from a tracer's spans and counters."""
    c = tracer.totals
    per = lambda x: x / ops  # noqa: E731
    self_ms = lambda name: per(tracer.self_s[name] * 1000)  # noqa: E731
    total_ms = lambda name: per(tracer.total_s[name] * 1000)  # noqa: E731
    layer_ms = lambda layer: per(  # noqa: E731
        1000 * sum(s for name, s in tracer.self_s.items() if name.split(".")[0] == layer)
    )
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    searches = c["equivalence.canonical.calls"] + c["equivalence.orbits.calls"]
    values = {
        "contraction.self_ms": layer_ms("contraction"),
        "contraction.contract_ms": self_ms("contraction.contract"),
        "contraction.contract_calls": per(c["contraction.contract.calls"]),
        "contraction.entries_read": per(c["entries_read"]),
        "contraction.entries_written": per(c["entries_written"]),
        "contraction.final_set_ms": self_ms("contraction.final_set"),
        "contraction.final_set_calls": per(c["contraction.final_set.calls"]),
        "contraction.is_final_calls": per(c["is_final"]),
        "contraction.empty_intersection_calls": per(c["empty_intersection"]),
        "contraction.probes_per_stage": ratio(
            c["is_final_under_contraction.final_set"], c["contraction.final_set.calls"]
        ),
        "contraction.recover_ms": total_ms("contraction.recover"),
        "contraction.recover_all_ms": total_ms("contraction.recover_all"),
        "contraction.orders": per(c["orders"]),
        "contraction.contracts_per_order": ratio(c["recover_all_contracts"], c["orders"]),
        "equivalence.self_ms": layer_ms("equivalence"),
        "equivalence.canonical_ms": total_ms("equivalence.canonical"),
        "equivalence.orbits_ms": total_ms("equivalence.orbits"),
        "equivalence.canonical_calls": per(c["equivalence.canonical.calls"]),
        "equivalence.leaves": per(c["leaves"]),
        "equivalence.leaves_per_search": ratio(c["leaves"], searches),
        "equivalence.tensor_equivalent_self_ms": self_ms("equivalence.tensor_equivalent"),
        "equivalence.forest_isomorphic_self_ms": self_ms("equivalence.forest_isomorphic"),
        "equivalence.direct_ms": total_ms("equivalence.direct"),
        "equivalence.marked_self_ms": self_ms("equivalence.marked"),
        "tensor.self_ms": layer_ms("tensor"),
        "tensor.from_forest_ms": total_ms("tensor.from_forest"),
        "tensor.quotient_ms": total_ms("tensor.quotient"),
        "tensor.evaluate_calls": per(c["evaluate"]),
        "tensor.nnz": per(c["nnz"]),
        "cli.self_ms": self_ms("cli.main"),
        "io.self_ms": layer_ms("io"),
        "io.load_ms": self_ms("io.load"),
        "io.dump_ms": self_ms("io.dump"),
        "io.bytes_in": per(c["bytes_in"]),
        "io.bytes_out": per(c["bytes_out"]),
        "forest.validate_ms": self_ms("forest.validate"),
    }
    return values
