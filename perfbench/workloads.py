"""The four workloads: their seeded inputs, the ops run on them, and the checks.

An op is what a user waits for: one CLI call, or for ``recover`` the
pipeline ``tensor FOREST | recover - --trace PATH``.  A group is the ops
that share one input and one check.  ``build`` writes every input
document and returns the groups of one pass; a run repeats whole passes.

Each check compares the ops' outputs with answers computed in
``inputs`` (never by ``blowups``) and returns one error message, or
``None``, per op.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

from inputs import (
    broom_points,
    canonical_bytes,
    depths,
    digest,
    disjoint_union,
    forest_doc,
    is_permutation,
    linear_extensions,
    permute_entries,
    points_from_doc,
    quotient_entries,
    random_linear_extension,
    random_permutation,
    random_points,
    relabel_points,
    star_points,
    tensor_doc,
    tensor_entries,
)

# recover: size ladder (d, m, inputs); each op stays under about 1 s on the seed
# code.  The top cell holds a fifth of the inputs so that the 90th percentile
# falls inside it: with 4 of 36 inputs it fell between the two top cells and
# moved with every seed (quartile spread 0.28 over ten seeds).  50 inputs make
# 100 ops in two passes.
RECOVER_CELLS = [(2, 30, 5), (2, 50, 5), (3, 20, 5), (3, 30, 5), (3, 40, 5), (4, 12, 5), (4, 20, 5), (4, 28, 5), (4, 32, 10)]
# orders: m <= 6 keeps every input below the CLI's 1000-order limit.
ORDERS_CELLS = [(d, m) for d in (2, 3, 4) for m in (4, 5, 6)]
ORDERS_PER_CELL = 100
# canon: symmetric shapes (stars, brooms) for automorphism pruning, and random
# forests for refinement.  Random forests take degrees 1..9, which makes them
# mostly rigid; with degrees 1..3 they hold small stars by chance, and their
# search costs get tails heavy enough to swamp a run (CV over 1.5 at m=70).
# A random forest's cost still varies by seed, and it moves every percentile
# whose rank falls between two size classes.  So seven groups of stars and
# brooms with 11 leaves (equal cost) hold the median op, and two groups of
# stars with 14 leaves hold the 90th percentile.
CANON_STARS = (8, 10, 11, 11, 11, 12, 14, 14)
CANON_BROOMS = (9, 11, 11, 11, 11, 13, 15)
CANON_BROOM_HANDLE = 3
CANON_RANDOM = [(2, 40), (2, 55), (2, 70), (3, 35)]
CANON_RANDOM_MAX_DEGREE = 9
# equiv: equivalent relabellings, inequivalent three-point-family pairs, marked pairs.
EQUIV_SAME = [(2, 30), (3, 20), (4, 14)]
EQUIV_FAMILY = [(2, 30), (4, 14)]
EQUIV_MARKED = [(2, 24, 3), (3, 18, 2)]
EQUIV_REPEATS = 12
# The README's three-point family: equal diagonal multisets at d = 2 and d = 4.
CHAIN = [(1, []), (1, [1]), (3, [2])]
OTHER = [(1, []), (2, [1]), (2, [2])]


@dataclass
class Call:
    argv: list[str]
    stdin: str | None = None  # a document fed on stdin, for an argument "-"
    pipe_in: bool = False  # stdin is the previous call's stdout
    expect_code: int = 0


@dataclass
class Op:
    calls: list[Call]
    files: tuple[str, ...] = ()  # files the op writes, read back for the check


@dataclass
class OpResult:
    codes: list[int | None] = field(default_factory=list)
    stdout: list[str] = field(default_factory=list)
    files: dict[str, bytes] = field(default_factory=dict)
    error: str | None = None  # the op raised


@dataclass
class Group:
    key: str
    ops: list[Op]
    check: Callable[[list[OpResult]], list[str | None]]


class Documents:
    """Writes input documents into one directory and hashes their bytes in order."""

    def __init__(self, root: str):
        self.root = root
        self.sha = hashlib.sha256()
        self.count = 0

    def path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def text(self, name: str, doc) -> str:
        """The document's bytes, hashed but kept in memory (for stdin)."""
        data = canonical_bytes(doc) + b"\n"
        self.sha.update(name.encode() + b"\0" + data)
        self.count += 1
        return data.decode()

    def write(self, name: str, doc) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.text(name, doc))
        return path


def creation_permutation(trace: dict, m: int) -> list[int]:
    """Original index -> creation index in the recovered forest, from a trace document."""
    alive = list(range(1, m + 1))
    perm = [0] * m
    for t, (step, survivors) in enumerate(zip(trace["steps"], trace["index_maps"])):
        perm[alive[step["contracted"] - 1] - 1] = m - t
        alive = survivors
    return perm


def _valid_forest(points, d: int) -> bool:
    return all(len(ts) <= d and all(1 <= t < i for t in ts) for i, (_, ts) in enumerate(points, 1))


# ---- recover -------------------------------------------------------------


def _check_recover(d, points, trace_path, results):
    result = results[0]
    m = len(points)
    expected = tensor_entries(d, points)
    if result.stdout[0].encode() != canonical_bytes(tensor_doc(d, m, expected)) + b"\n":
        return ["tensor output differs from the reference tensor"]
    recovered = points_from_doc(json.loads(result.stdout[1]))
    if len(recovered) != m or not _valid_forest(recovered, d):
        return ["recovered forest is not a valid forest of the input's size"]
    perm = creation_permutation(json.loads(result.files[trace_path]), m)
    if not is_permutation(perm, m):
        return ["trace does not contract every component once"]
    if permute_entries(expected, perm) != tensor_entries(d, recovered):
        return ["tensor of the recovered forest, permuted by the trace, differs from the input"]
    return [None]


def _build_recover(rng: random.Random, docs: Documents) -> list[Group]:
    jobs = [(d, m) for d, m, count in RECOVER_CELLS for _ in range(count)]
    rng.shuffle(jobs)
    groups = []
    for n, (d, m) in enumerate(jobs):
        points = random_points(rng, d, m)
        forest = docs.write(f"recover-{n}-forest.json", forest_doc(d, points))
        trace = docs.path(f"recover-{n}-trace.json")
        op = Op([Call(["tensor", forest]), Call(["recover", "-", "--trace", trace], pipe_in=True)], (trace,))
        groups.append(Group(f"recover-{n}", [op], lambda r, d=d, p=points, t=trace: _check_recover(d, p, t, r)))
    return groups


# ---- orders --------------------------------------------------------------


def _check_orders(d, points, results):
    doc = json.loads(results[0].stdout[0])
    m = len(points)
    expected = linear_extensions(points)
    if doc["count"] != expected or len(doc["results"]) != expected:
        return [f"{doc['count']} orders, expected {expected} linear extensions"]
    seen = set()
    for item in doc["results"]:
        perm = creation_permutation(item["trace"], m)
        if not is_permutation(perm, m):
            return ["a trace does not contract every component once"]
        # The recovered forest must be the input forest under the trace's relabelling,
        # so every recovered forest has the input's canonical hash.
        if points_from_doc(item["forest"]) != relabel_points(points, perm):
            return ["a recovered forest is not the input forest relabelled by its trace"]
        seen.add(tuple(perm))
    if len(seen) != expected:
        return ["an order is listed twice"]
    return [None]


def _build_orders(rng: random.Random, docs: Documents) -> list[Group]:
    jobs = [cell for cell in ORDERS_CELLS for _ in range(ORDERS_PER_CELL)]
    rng.shuffle(jobs)
    groups = []
    for n, (d, m) in enumerate(jobs):
        points = random_points(rng, d, m)
        # Fed on stdin: 900 small files would make set-up time a measure of the file system.
        doc = docs.text(f"orders-{n}-tensor.json", tensor_doc(d, m, tensor_entries(d, points)))
        op = Op([Call(["recover-all", "-"], stdin=doc)])
        groups.append(Group(f"orders-{n}", [op], lambda r, d=d, p=points: _check_orders(d, p, r)))
    return groups


# ---- canon ---------------------------------------------------------------


def _check_canonical(doc: dict, kind: str, expected_canonical) -> str | None:
    if doc.get("kind") != kind:
        return "wrong kind"
    if doc["canonical"] != expected_canonical:
        return "canonical object is not the input relabelled by the permutation"
    if doc["hash"] != digest(doc["canonical"]):
        return "hash is not the SHA-256 of the canonical JSON"
    return None


def _check_canon(shape, results):
    d, points, fperm, copy, entries, copy_entries, orbits = shape
    m = len(points)
    out = [json.loads(r.stdout[0]) for r in results]
    errors: list[str | None] = [None] * 6

    for slot, pts in ((0, points), (1, copy)):
        p = out[slot].get("permutation")
        if not is_permutation(p, m):
            errors[slot] = "permutation is not a bijection"
            continue
        relabelled = relabel_points(pts, p)
        if not _valid_forest(relabelled, d):
            errors[slot] = "canonical forest puts a target after its source"
            continue
        errors[slot] = _check_canonical(out[slot], "forest", forest_doc(d, relabelled))
    for slot, ents in ((2, entries), (3, copy_entries)):
        p = out[slot].get("permutation")
        if not is_permutation(p, m):
            errors[slot] = "permutation is not a bijection"
            continue
        errors[slot] = _check_canonical(out[slot], "tensor", tensor_doc(d, m, permute_entries(ents, p)))
    for a in (0, 2):
        if errors[a] is None and errors[a + 1] is None:
            if (out[a]["hash"], out[a]["canonical"]) != (out[a + 1]["hash"], out[a + 1]["canonical"]):
                errors[a + 1] = "canonical form changed under relabelling"

    found = out[4]["orbits"]
    if sorted(i for orbit in found for i in orbit) != list(range(1, m + 1)) or found != sorted(
        (sorted(o) for o in found), key=min
    ):
        errors[4] = "orbits are not a sorted partition of the indices"
    elif orbits is not None and found != orbits:
        errors[4] = f"orbits {found}, expected {orbits}"
    else:
        depth = depths(points)
        children = [0] * m
        for _, ts in points:
            for t in ts:
                children[t - 1] += 1
        invariant = [(g, depth[v], len(ts), children[v]) for v, (g, ts) in enumerate(points)]
        if any(len({invariant[v - 1] for v in orbit}) != 1 for orbit in found):
            errors[4] = "an orbit mixes points with different degree, depth or proximity counts"
    image = sorted((sorted(fperm[v - 1] for v in orbit) for orbit in found), key=min)
    if out[5]["orbits"] != image:
        errors[5] = "orbits changed under relabelling"
    return errors


def _build_canon(rng: random.Random, docs: Documents) -> list[Group]:
    shapes = []
    for k, n in enumerate(CANON_STARS):
        leaf = rng.randint(1, 3)
        shapes.append((f"star{k}-n{n}", 2, star_points(n, rng.randint(1, 3), leaf), [[1], list(range(2, n + 2))]))
    for k, n in enumerate(CANON_BROOMS):
        h = CANON_BROOM_HANDLE
        pts = broom_points(h, n, rng.randint(1, 3), rng.randint(1, 3))
        shapes.append((f"broom{k}-n{n}", 2, pts, [[i] for i in range(1, h + 1)] + [list(range(h + 1, h + n + 1))]))
    for n, (d, m) in enumerate(CANON_RANDOM):
        shapes.append((f"random{n}-d{d}-m{m}", d, random_points(rng, d, m, CANON_RANDOM_MAX_DEGREE), None))
    rng.shuffle(shapes)
    groups = []
    for name, d, points, orbits in shapes:
        m = len(points)
        fperm = random_linear_extension(rng, points)
        copy = relabel_points(points, fperm)
        entries = tensor_entries(d, points)
        copy_entries = permute_entries(entries, random_permutation(rng, m))
        f_in = docs.write(f"canon-{name}-forest.json", forest_doc(d, points))
        f_copy = docs.write(f"canon-{name}-forest-copy.json", forest_doc(d, copy))
        t_in = docs.write(f"canon-{name}-tensor.json", tensor_doc(d, m, entries))
        t_copy = docs.write(f"canon-{name}-tensor-copy.json", tensor_doc(d, m, copy_entries))
        ops = [
            Op([Call(["canon", "--kind", "forest", f_in])]),
            Op([Call(["canon", "--kind", "forest", f_copy])]),
            Op([Call(["canon", "--kind", "tensor", t_in])]),
            Op([Call(["canon", "--kind", "tensor", t_copy])]),
            Op([Call(["orbits", "--kind", "forest", f_in])]),
            Op([Call(["orbits", "--kind", "forest", f_copy])]),
        ]
        shape = (d, points, fperm, copy, entries, copy_entries, orbits)
        groups.append(Group(f"canon-{name}", ops, lambda r, s=shape: _check_canon(s, r)))
    return groups


# ---- equiv ---------------------------------------------------------------


def _check_equiv(kind, m, a, b, blocks_a, blocks_b, results):
    doc = json.loads(results[0].stdout[0])
    if kind == "different":
        return [None if doc == {"equivalent": False} else "inequivalent pair reported equivalent"]
    if doc.get("equivalent") is not True:
        return ["equivalent pair reported inequivalent"]
    witness = doc["permutation"]
    if kind == "marked":
        a, b, m = quotient_entries(a, blocks_a), quotient_entries(b, blocks_b), len(blocks_a)
    if not is_permutation(witness, m):
        return ["witness is not a bijection"]
    if permute_entries(a, witness) != b:
        return ["witness does not carry A onto B entry by entry"]
    return [None]


def _marked_points(rng: random.Random, d: int, m: int, twins: int):
    """A random forest ending in ``twins`` pairs of conjugate points (same degree and targets)."""
    points = random_points(rng, d, m - 2 * twins)
    blocks = [[i] for i in range(1, len(points) + 1)]
    for _ in range(twins):
        base = len(points)
        targets = sorted(rng.sample(range(1, base + 1), rng.randint(1, min(d, base))))
        degree = rng.randint(1, 3)
        points += [(degree, targets), (degree, targets)]
        blocks.append([base + 1, base + 2])
    return points, blocks


def _equiv_pair(rng: random.Random, kind: str, d: int, m: int, twins: int):
    """Tensors A and B of one pair, and the block lists of a marked pair."""
    if kind == "different":
        rest = random_points(rng, d, m - 3)
        a = tensor_entries(d, disjoint_union(rest, CHAIN))
        b = tensor_entries(d, disjoint_union(relabel_points(rest, random_linear_extension(rng, rest)), OTHER))
        return permute_entries(a, random_permutation(rng, m)), permute_entries(b, random_permutation(rng, m)), None, None
    if kind == "same":
        a = tensor_entries(d, random_points(rng, d, m))
        return a, permute_entries(a, random_permutation(rng, m)), None, None
    points, blocks_a = _marked_points(rng, d, m, twins)
    a = tensor_entries(d, points)
    perm = random_permutation(rng, m)
    rng.shuffle(blocks_a)
    blocks_b = [sorted(perm[i - 1] for i in block) for block in blocks_a]
    rng.shuffle(blocks_b)
    return a, permute_entries(a, perm), blocks_a, blocks_b


def _build_equiv(rng: random.Random, docs: Documents) -> list[Group]:
    pairs = [("same", d, m, 0) for d, m in EQUIV_SAME]
    pairs += [("different", d, m, 0) for d, m in EQUIV_FAMILY]
    pairs += [("marked", d, m, twins) for d, m, twins in EQUIV_MARKED]
    pairs *= EQUIV_REPEATS
    rng.shuffle(pairs)
    groups = []
    for n, (kind, d, m, twins) in enumerate(pairs):
        a, b, blocks_a, blocks_b = _equiv_pair(rng, kind, d, m, twins)
        files = [docs.write(f"equiv-{n}-a.json", tensor_doc(d, m, a)), docs.write(f"equiv-{n}-b.json", tensor_doc(d, m, b))]
        if kind == "marked":
            files.append(docs.write(f"equiv-{n}-pa.json", {"blocks": blocks_a}))
            files.append(docs.write(f"equiv-{n}-pb.json", {"blocks": blocks_b}))
        code = 1 if kind == "different" else 0
        op = Op([Call(["equiv", "--kind", "tensor", *files, "--exit-status"], expect_code=code)])
        check = lambda r, k=kind, m=m, a=a, b=b, pa=blocks_a, pb=blocks_b: _check_equiv(k, m, a, b, pa, pb, r)
        groups.append(Group(f"equiv-{n}", [op], check))
    return groups


BUILDERS = {
    "recover": _build_recover,
    "orders": _build_orders,
    "canon": _build_canon,
    "equiv": _build_equiv,
}

# How many groups from the start of a pass the traced run's self-test repeats.
SELFTEST_GROUPS = {"recover": 6, "orders": 60, "canon": 4, "equiv": 12}


def build(workload: str, seed: int, root: str) -> tuple[list[Group], Documents]:
    docs = Documents(root)
    groups = BUILDERS[workload](random.Random(f"{workload}:{seed}"), docs)
    return groups, docs
