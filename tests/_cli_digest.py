"""One SHA-256 over the command line's output bytes on a fixed corpus.

Run it from the root of a checkout:

    PYTHONPATH=src python tests/_cli_digest.py

It prints the digest, the number of calls and a histogram of their exit
codes, above it one digest and call count per subcommand, and above those
the same lines for the deep twin corpus, each prefixed ``twins``, and for
the recovery corpus, each prefixed ``recovery``.  Two
checkouts that print the same lines wrote the same bytes on every call,
and a changed subcommand line names the subcommand whose bytes changed,
so a change meant to keep outputs can be checked by running this script
before and after it.  Each call runs ``blowups.cli.main`` in
this process, inside a temporary directory, so file names in messages do
not depend on where the checkout lives.  The digest covers each call's
arguments, exit code and stdout, and the trace file that ``recover
--trace`` writes.  The corpus:

- random forests, d 2-4 and m 0-8, with their tensors, relabelled copies,
  ``perturb``ed tensors and random partitions, through ``canon``,
  ``orbits``, ``equiv`` (plain, marked and ``--exit-status``),
  ``recover --trace``, ``recover-all --limit 200``, ``finals`` and
  ``contract``;
- k disjoint 2-chains, k 1-8, through the same search commands;
- tensor documents spoilt by one or two of ``TENSOR_DEFECTS``, through
  ``finals`` and ``canon``, so that error messages are pinned too;
- short documents that ask for more than their bytes: a dimension or a
  ``size`` of 2**62 with no entries, forests whose tensor is over the
  output bound, bytes that are not UTF-8 and a 5,000-digit integer.

The deep twin corpus is digested apart, so the last line covers the
corpus above alone: n disjoint points and n-leaf stars, n 16, 64 and 200,
as forests and as tensors, through ``canon``, ``orbits``, ``equiv``
against a relabelled copy, and ``compat`` with a partition that pairs
twins and one that joins indices 1 and 2, which on a star mixes orbits.

The orders corpus is digested apart and printed first, as one line
prefixed ``orders``: ``recover-all`` at its default limit on small
forests with 240 to 720 contraction orders (disjoint points, and points
beside a 2-chain or a point with two children) at d 2-4, with a
relabelled copy of each.  Consecutive orders share long prefixes there.

The recovery corpus is digested apart too: random forests at d 2-4 and
m 100, 200 and 400, with their tensors and ``perturb``ed copies, through
``recover --trace`` and ``recover-all --limit 200``.  These forests are
too large for the search commands; they reach the walk's backtracking
far from the root and the blow-downs of stages with many components.

No call may exit 1 without printing a ``false`` decision.

``tests/test_digests.py`` pins the ``orders``, ``recovery`` and ``twins``
lines; the main corpus takes several seconds and stays a manual run.

The file name starts with an underscore, so pytest does not collect it.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _oracles import TENSOR_DEFECTS, perturb, random_partition, random_relabel, spoil_tensor_entry  # noqa: E402

from blowups import (  # noqa: E402
    MarkedPartition,
    ProximityForest,
    canonical_json,
    final_set,
    forest_to_dict,
    partition_to_dict,
    random_forest,
    tensor_from_forest,
    tensor_to_dict,
)
from blowups.cli import main  # noqa: E402

FORESTS_PER_SHAPE = 25
SPOILT_DOCUMENTS = 1000


class Digest:
    def __init__(self):
        self.sha = hashlib.sha256()
        self.codes: collections.Counter[int] = collections.Counter()
        self.shas: dict[str, "hashlib._Hash"] = {}
        self.calls: collections.Counter[str] = collections.Counter()

    def run(self, *argv: str) -> None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        trace = ""
        if "--trace" in argv and os.path.exists("trace.json"):
            with open("trace.json", encoding="utf-8") as handle:
                trace = handle.read()
            os.remove("trace.json")
        assert code != 1 or any(f'"{field}":false' in out.getvalue() for field in ("equivalent", "compatible", "ok")), argv
        line = (canonical_json([list(argv), code, out.getvalue(), trace]) + "\n").encode()
        self.sha.update(line)
        self.codes[code] += 1
        self.shas.setdefault(argv[0], hashlib.sha256()).update(line)
        self.calls[argv[0]] += 1

    def lines(self) -> list[str]:
        """One line per subcommand, in name order, then the digest line."""
        histogram = {str(code): count for code, count in sorted(self.codes.items())}
        return [f"{name} {sha.hexdigest()} {self.calls[name]}" for name, sha in sorted(self.shas.items())] + [
            f"{self.sha.hexdigest()} {sum(self.codes.values())} {canonical_json(histogram)}"
        ]


def write(name: str, doc) -> str:
    with open(name, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(doc))
    return name


def relabel_partition(partition: MarkedPartition, perm: tuple[int, ...]) -> MarkedPartition:
    return MarkedPartition(tuple(frozenset(perm[i - 1] for i in block) for block in partition.blocks))


def search_commands(digest: Digest, forest: ProximityForest, rng: random.Random) -> None:
    """The search commands on a forest, its tensor and a relabelled copy of each, plain and marked."""
    relabeled, perm = random_relabel(forest, rng)
    partition = random_partition(len(forest), rng)
    write("f.json", forest_to_dict(forest))
    write("g.json", forest_to_dict(relabeled))
    write("t.json", tensor_to_dict(tensor_from_forest(forest)))
    write("u.json", tensor_to_dict(tensor_from_forest(relabeled)))
    write("p.json", partition_to_dict(partition))
    write("q.json", partition_to_dict(relabel_partition(partition, perm)))
    digest.run("canon", "--kind", "forest", "f.json")
    digest.run("canon", "--kind", "tensor", "u.json")
    digest.run("orbits", "--kind", "forest", "g.json")
    digest.run("orbits", "--kind", "tensor", "t.json")
    digest.run("equiv", "--kind", "forest", "f.json", "g.json")
    digest.run("equiv", "--kind", "tensor", "t.json", "u.json")
    digest.run("equiv", "--kind", "forest", "f.json", "g.json", "p.json", "q.json")
    digest.run("equiv", "--kind", "tensor", "t.json", "u.json", "p.json", "q.json", "--exit-status")
    digest.run("equiv", "--kind", "tensor", "t.json", "u.json", "p.json", "p.json", "--exit-status")


def contraction_commands(digest: Digest, forest: ProximityForest, rng: random.Random) -> None:
    """Recovery and contraction on a forest's tensor and on a ``perturb``ed copy, which usually is no blow-up form."""
    tensor = tensor_from_forest(forest)
    perturbed = perturb(tensor, rng.choice(["entry", "negate", "isolated", "diagonal"]), rng)
    write("t.json", tensor_to_dict(tensor))
    write("v.json", tensor_to_dict(perturbed))
    digest.run("equiv", "--kind", "tensor", "t.json", "v.json", "--exit-status")
    digest.run("canon", "--kind", "tensor", "v.json")
    for name, stage in (("t.json", tensor), ("v.json", perturbed)):
        digest.run("recover", name, "--trace", "trace.json")
        digest.run("recover-all", name, "--limit", "200")
        digest.run("finals", name)
        digest.run("contract", name, str(min(final_set(stage), default=1)))


def spoilt_documents(digest: Digest, rng: random.Random) -> None:
    for n in range(SPOILT_DOCUMENTS):
        forest = random_forest(n, rng.randint(2, 3), rng.randint(1, 5), 3)
        doc = tensor_to_dict(tensor_from_forest(forest))
        for defect in rng.sample(TENSOR_DEFECTS, rng.randint(1, 2)):
            spoil_tensor_entry(doc, rng.randrange(len(doc["entries"])), defect, rng.choice)
        write("x.json", doc)
        digest.run("finals", "x.json")
        digest.run("canon", "--kind", "tensor", "x.json")


HUGE = 2**62
SHORT_DOCUMENTS = {
    "pure.json": {"dimension": HUGE, "size": 1, "entries": []},
    "huge-size.json": {"dimension": 2, "size": HUGE, "entries": []},
    "one-block.json": {"blocks": [[1]]},
    "deep-forest.json": {"dimension": HUGE, "points": [{"id": 1, "degree": 1, "proximate_to": []}]},
    "wide-forest.json": {
        "dimension": 30,
        "points": [{"id": k, "degree": 1, "proximate_to": list(range(1, k))} for k in range(1, 32)],
    },
}
UNDECODABLE = {
    "not-utf8.json": b"\xff\xfe{}",
    "long-integer.json": b'{"dimension":2,"entries":[{"index":[1,1],"value":' + b"9" * 5000 + b'}],"size":1}',
}


def short_documents(digest: Digest) -> None:
    for name, doc in SHORT_DOCUMENTS.items():
        write(name, doc)
    for name, data in UNDECODABLE.items():
        with open(name, "wb") as handle:
            handle.write(data)
    for tensor in ("pure.json", "huge-size.json"):
        digest.run("diag", tensor)
        digest.run("canon", "--kind", "tensor", tensor)
        digest.run("orbits", tensor)
        digest.run("equiv", "--kind", "tensor", tensor, tensor, "--exit-status")
        digest.run("compat", "--kind", "tensor", tensor, "one-block.json", "--exit-status")
        digest.run("quotient", tensor, "one-block.json")
    digest.run("contract", "pure.json", "1")
    for forest in ("deep-forest.json", "wide-forest.json"):
        digest.run("tensor", forest)
    for name in UNDECODABLE:
        digest.run("diag", name)
        digest.run("finals", name)


def build(digest: Digest) -> None:
    rng = random.Random(20261019)
    for d in (2, 3, 4):
        for m in range(9):
            for n in range(FORESTS_PER_SHAPE):
                forest = random_forest(1000 * d + 100 * m + n, d, m, 3)
                search_commands(digest, forest, rng)
                contraction_commands(digest, forest, rng)
    for k in range(1, 9):
        chains = ProximityForest.make(2, *[point for c in range(k) for point in ((1, []), (1, [2 * c + 1]))])
        search_commands(digest, chains, rng)
    spoilt_documents(digest, rng)
    short_documents(digest)


TWIN_CLASS_SIZES = (16, 64, 200)


def twin_commands(digest: Digest) -> None:
    """Searches over one class of n twins: n disjoint points, and the leaves of an n-leaf star."""
    rng = random.Random(20261020)
    for n in TWIN_CLASS_SIZES:
        points = ProximityForest.make(2, *[(1, [])] * n)
        star = ProximityForest.make(2, (1, []), *[(1, [1])] * n)
        for forest, twins in ((points, list(range(1, n + 1))), (star, list(range(2, n + 2)))):
            relabeled, _ = random_relabel(forest, rng)
            size = len(forest)
            pairs = [twins[k : k + 2] for k in range(0, n, 2)]
            write("p.json", {"blocks": [[i] for i in range(1, size + 1) if i not in twins] + pairs})
            write("q.json", {"blocks": [[1, 2]] + [[i] for i in range(3, size + 1)]})
            write("f.json", forest_to_dict(forest))
            write("g.json", forest_to_dict(relabeled))
            write("t.json", tensor_to_dict(tensor_from_forest(forest)))
            write("u.json", tensor_to_dict(tensor_from_forest(relabeled)))
            for kind, first, second in (("forest", "f.json", "g.json"), ("tensor", "t.json", "u.json")):
                digest.run("canon", "--kind", kind, first)
                digest.run("canon", "--kind", kind, second)
                digest.run("orbits", "--kind", kind, second)
                digest.run("equiv", "--kind", kind, first, second, "--exit-status")
                digest.run("compat", "--kind", kind, first, "p.json", "--exit-status")
                digest.run("compat", "--kind", kind, first, "q.json")


RECOVERY_SIZES = (100, 200, 400)
RECOVERY_FORESTS_PER_SHAPE = 2


def recovery_commands(digest: Digest) -> None:
    """Recovery of large forests' tensors and of ``perturb``ed copies, which usually stop part way."""
    rng = random.Random(20261021)
    for d in (2, 3, 4):
        for m in RECOVERY_SIZES:
            for n in range(RECOVERY_FORESTS_PER_SHAPE):
                tensor = tensor_from_forest(random_forest(100_000 * d + 1000 * m + n, d, m, 3))
                perturbed = perturb(tensor, rng.choice(["entry", "negate", "isolated", "diagonal"]), rng)
                for name, stage in (("t.json", tensor), ("v.json", perturbed)):
                    write(name, tensor_to_dict(stage))
                    digest.run("recover", name, "--trace", "trace.json")
                    digest.run("recover-all", name, "--limit", "200")


ORDERS_SHAPES = (
    [(1, []), (2, []), (3, []), (1, []), (2, []), (3, [])],  # 720 orders
    [(1, []), (1, [1]), (2, []), (1, []), (3, []), (1, [])],  # 360
    [(2, []), (1, [1]), (1, [1]), (1, []), (2, []), (1, [])],  # 240
)


def orders_commands(digest: Digest) -> None:
    """``recover-all`` at its default limit on tensors with 240-720 orders, as built and relabelled."""
    rng = random.Random(20261022)
    for d in (2, 3, 4):
        for shape in ORDERS_SHAPES:
            forest = ProximityForest.make(d, *shape)
            for copy in (forest, random_relabel(forest, rng)[0]):
                write("t.json", tensor_to_dict(tensor_from_forest(copy)))
                digest.run("recover-all", "t.json")


def run() -> None:
    digest, twins, recovery, orders = Digest(), Digest(), Digest(), Digest()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            build(digest)
            twin_commands(twins)
            recovery_commands(recovery)
            orders_commands(orders)
        finally:
            os.chdir(here)
    print("orders", orders.lines()[-1])
    for line in recovery.lines():
        print("recovery", line)
    for line in twins.lines():
        print("twins", line)
    for line in digest.lines():
        print(line)


if __name__ == "__main__":
    run()
