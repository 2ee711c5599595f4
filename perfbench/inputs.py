"""Seeded input documents and the reference answers the checks compare against.

Nothing here imports ``blowups``: the forests are drawn with this module's
own generator and every tensor, relabelling and quotient is computed from
its definition, so a check never trusts the code path it is checking.

A forest is held as a list of ``(degree, targets)`` pairs in creation
order (point ``i`` is ``points[i - 1]``).  A tensor is a dict from sorted
index tuples to nonzero integers.  A permutation ``p`` is a list with
``p[i - 1]`` the image of index ``i``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from collections import Counter

Points = list[tuple[int, list[int]]]
Entries = dict[tuple[int, ...], int]


def canonical_bytes(doc) -> bytes:
    """UTF-8, sorted keys, no whitespace: the encoding the CLI promises."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def digest(doc) -> str:
    return hashlib.sha256(canonical_bytes(doc)).hexdigest()


# ---- forests -------------------------------------------------------------


def random_points(rng: random.Random, d: int, m: int, max_degree: int = 3) -> Points:
    """Degree uniform on 1..max_degree; a uniform number (at most d) of earlier targets."""
    points = []
    for i in range(1, m + 1):
        degree = rng.randint(1, max_degree)
        count = rng.randint(0, min(d, i - 1))
        points.append((degree, sorted(rng.sample(range(1, i), count))))
    return points


def star_points(n: int, centre_degree: int, leaf_degree: int) -> Points:
    """One point with ``n`` leaves proximate to it."""
    return [(centre_degree, [])] + [(leaf_degree, [1])] * n


def broom_points(handle: int, n: int, degree: int, leaf_degree: int) -> Points:
    """A chain of ``handle`` points, each proximate to the one before, with ``n`` leaves on its tip."""
    chain = [(degree, [])] + [(degree, [i]) for i in range(1, handle)]
    return chain + [(leaf_degree, [handle])] * n


def disjoint_union(a: Points, b: Points) -> Points:
    shift = len(a)
    return a + [(g, [t + shift for t in ts]) for g, ts in b]


def forest_doc(d: int, points: Points) -> dict:
    return {
        "dimension": d,
        "points": [
            {"id": i, "degree": g, "proximate_to": sorted(ts)} for i, (g, ts) in enumerate(points, 1)
        ],
    }


def points_from_doc(doc: dict) -> Points:
    return [(p["degree"], list(p["proximate_to"])) for p in doc["points"]]


def random_linear_extension(rng: random.Random, points: Points) -> list[int]:
    """A random relabelling that keeps every target before its source."""
    m = len(points)
    placed: set[int] = set()
    perm = [0] * m
    for position in range(1, m + 1):
        ready = [v for v in range(1, m + 1) if v not in placed and set(points[v - 1][1]) <= placed]
        v = rng.choice(ready)
        placed.add(v)
        perm[v - 1] = position
    return perm


def relabel_points(points: Points, perm: list[int]) -> Points:
    """The forest with point ``v`` renamed ``perm[v - 1]``; ``perm`` must keep targets first."""
    out: list = [None] * len(points)
    for v, (g, ts) in enumerate(points, 1):
        out[perm[v - 1] - 1] = (g, sorted(perm[t - 1] for t in ts))
    return out


def linear_extensions(points: Points) -> int:
    """Creation orders compatible with proximity, counted by a DP over subsets."""
    m = len(points)
    need = [sum(1 << (t - 1) for t in ts) for _, ts in points]
    ways = [0] * (1 << m)
    ways[0] = 1
    for mask in range(1 << m):
        if not ways[mask]:
            continue
        for v in range(m):
            bit = 1 << v
            if not mask & bit and need[v] & mask == need[v]:
                ways[mask | bit] += ways[mask]
    return ways[-1]


def depths(points: Points) -> list[int]:
    out: list[int] = []
    for _, ts in points:
        out.append(1 + max((out[t - 1] for t in ts), default=-1))
    return out


# ---- tensors -------------------------------------------------------------


def tensor_entries(d: int, points: Points) -> Entries:
    """The intersection form from its definition.

    ``T(i_1..i_d) = (-1)^(d-1) * sum_k deg(k) * C[i_1][k] ... C[i_d][k]``
    where column ``k`` of the strict-to-total matrix ``C`` is 1 at ``k``
    and -1 at each target of ``k``.
    """
    sign = 1 if d % 2 else -1
    acc: Counter = Counter()
    for k, (g, ts) in enumerate(points, 1):
        column = {k: 1, **{t: -1 for t in ts}}
        for key in itertools.combinations_with_replacement(sorted(column), d):
            acc[key] += sign * g * math.prod(column[i] for i in key)
    return {key: value for key, value in acc.items() if value}


def tensor_doc(d: int, size: int, entries: Entries) -> dict:
    return {
        "dimension": d,
        "size": size,
        "entries": [{"index": list(key), "value": v} for key, v in sorted(entries.items())],
    }


def permute_entries(entries: Entries, perm: list[int]) -> Entries:
    return {tuple(sorted(perm[i - 1] for i in key)): v for key, v in entries.items()}


def random_permutation(rng: random.Random, m: int) -> list[int]:
    perm = list(range(1, m + 1))
    rng.shuffle(perm)
    return perm


def is_permutation(perm, m: int) -> bool:
    return isinstance(perm, list) and sorted(perm) == list(range(1, m + 1))


def quotient_entries(entries: Entries, blocks: list[list[int]]) -> Entries:
    """The form on block sums ``D_b = sum(e_i for i in b)``, from the stored entries.

    A stored multiset ``K`` over components contributes to the block
    multiset ``Q`` it maps onto, once per arrangement of ``K`` over the
    slots of ``Q``: ``prod_b mult_Q(b)! / prod_i mult_K(i)!`` times.
    """
    block_of = {i: b for b, block in enumerate(blocks, 1) for i in block}
    acc: Counter = Counter()
    for key, value in entries.items():
        q = tuple(sorted(block_of[i] for i in key))
        ways = math.prod(math.factorial(c) for c in Counter(q).values())
        ways //= math.prod(math.factorial(c) for c in Counter(key).values())
        acc[q] += value * ways
    return {key: value for key, value in acc.items() if value}
