"""End-to-end acceptance checks.

Each test prints one verdict line (past pytest's capture) and enforces
its stated budget, so a bare ``pytest tests/test_acceptance.py`` doubles
as the acceptance report.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

from blowups import (
    ProximityForest,
    canonical_form,
    canonical_json,
    diagonal,
    empty_intersection,
    evaluate,
    final_set,
    forest_isomorphic,
    random_forest,
    recover_all_orders,
    recover_sequence,
    tensor_equivalent,
    tensor_from_forest,
    total_transform_matrix,
)
from _oracles import (
    brute_force_tensor_equivalent,
    enumerate_forests,
    oracle_surface_intersection,
    random_relabel,
)

DIMENSIONS = (2, 3, 4)
MAX_POINTS = 8
FORESTS_PER_CELL = 200


def _report(capsys, number: int, name: str, passed: bool, detail: str) -> None:
    line = f"acceptance {number}/8 {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert passed, line


@pytest.fixture(scope="session")
def corpus():
    """Deterministic random forests, 200 per (dimension, size) cell."""
    cells = {}
    for d in DIMENSIONS:
        for m in range(MAX_POINTS + 1):
            cells[d, m] = [
                random_forest(d * 1_000_000 + m * 10_000 + t, d, m, 3)
                for t in range(FORESTS_PER_CELL)
            ]
    return cells


def _three_point_family(dimension: int):
    chain = ProximityForest.make(dimension, (1, []), (1, [1]), (3, [2]))
    other = ProximityForest.make(dimension, (1, []), (2, [1]), (2, [2]))
    return tensor_from_forest(chain), tensor_from_forest(other)


def test_three_point_family_exact_values(capsys):
    started = time.perf_counter()
    bad = []
    for d in (4, 2):
        t1, t2 = _three_point_family(d)
        if diagonal(t1) != [-2, -4, -3] or diagonal(t2) != [-3, -4, -2]:
            bad.append((d, "diagonal"))
        for r in range(1, d):
            s = d - r
            expected = [
                (t1, (1,) * r + (2,) * s, (-1) ** (r + 1)),
                (t1, (2,) * r + (3,) * s, (-1) ** r * -3),
                (t2, (1,) * r + (2,) * s, (-1) ** (r + 1) * 2),
                (t2, (2,) * r + (3,) * s, (-1) ** r * -2),
            ]
            bad.extend(
                (d, key) for tensor, key, value in expected if tensor.value(key) != value
            )
        bad.extend(
            (d, key)
            for tensor in (t1, t2)
            for key in itertools.combinations_with_replacement((1, 3), d)
            if len(set(key)) == 2 and tensor.value(key) != 0
        )
    elapsed = time.perf_counter() - started
    _report(
        capsys,
        1,
        "three-point family exact values",
        not bad and elapsed < 1.0,
        f"d=4 and d=2, mismatches {bad[:4]}, {elapsed:.2f} s < 1 s",
    )


def test_diagonal_multiset_is_insufficient(capsys):
    started = time.perf_counter()
    t1, t2 = _three_point_family(4)
    same_diagonal = sorted(diagonal(t1)) == sorted(diagonal(t2)) == [-4, -3, -2]
    inequivalent = tensor_equivalent(t1, t2) is None
    elapsed = time.perf_counter() - started
    _report(
        capsys,
        2,
        "equal diagonals, inequivalent tensors",
        same_diagonal and inequivalent and elapsed < 1.0,
        f"diagonals match: {same_diagonal}, equivalent: {not inequivalent}, {elapsed:.2f} s < 1 s",
    )


def test_round_trip_recovery(capsys, corpus):
    started = time.perf_counter()
    failures = total = 0
    for forests in corpus.values():
        for forest in forests:
            total += 1
            recovered, _ = recover_sequence(tensor_from_forest(forest))
            if forest_isomorphic(forest, recovered) is None:
                failures += 1
    elapsed = time.perf_counter() - started
    _report(
        capsys,
        3,
        "tensor round trip",
        failures == 0 and elapsed < 120.0,
        f"{total - failures}/{total} forests recovered, {elapsed:.1f} s < 120 s",
    )


def test_contraction_order_confluence(capsys):
    started = time.perf_counter()
    failures = total = orders = 0
    recovering = canonicalising = 0.0
    for d in (2, 3):
        for m in range(6):
            for forest in enumerate_forests(d, m, 2):
                total += 1
                t0 = time.perf_counter()
                results = recover_all_orders(tensor_from_forest(forest), limit=1000)
                t1 = time.perf_counter()
                orders += len(results)
                distinct = {recovered for recovered, _ in results}
                hashes = {canonical_form(f).hash for f in distinct}
                t2 = time.perf_counter()
                recovering += t1 - t0
                canonicalising += t2 - t1
                if len(hashes) > 1:
                    failures += 1
    elapsed = time.perf_counter() - started
    _report(
        capsys,
        4,
        "contraction order confluence",
        failures == 0 and elapsed < 300.0,
        f"{total - failures}/{total} forests, {orders} orders, {elapsed:.1f} s < 300 s"
        f"; tensor_from_forest + recover_all_orders {recovering:.1f} s, canonical_form {canonicalising:.1f} s",
    )


def test_equivalence_decisions_match_brute_force(capsys):
    started = time.perf_counter()
    mismatches = 0
    pairs = 120
    for t in range(pairs):
        d = 2 + t % 2
        m = t % 7
        f1 = random_forest(900_000 + t, d, m, 2)
        if t % 2:
            f2, _ = random_relabel(f1, random.Random(t))
        else:
            f2 = random_forest(800_000 + t, d, m, 2)
        structural = canonical_json({"equivalent": forest_isomorphic(f1, f2) is not None})
        brute = brute_force_tensor_equivalent(
            tensor_from_forest(f1), tensor_from_forest(f2)
        )
        numerical = canonical_json({"equivalent": brute is not None})
        if structural.encode() != numerical.encode():
            mismatches += 1
    elapsed = time.perf_counter() - started
    _report(
        capsys,
        5,
        "forest isomorphism matches brute-force tensor equivalence",
        mismatches == 0 and elapsed < 120.0,
        f"{pairs - mismatches}/{pairs} identical decision bytes, {elapsed:.1f} s < 120 s",
    )


def test_final_components_are_pairwise_disjoint(capsys, corpus):
    failures = total = 0
    for forests in corpus.values():
        for forest in forests:
            tensor = tensor_from_forest(forest)
            for i, j in itertools.combinations(sorted(final_set(tensor)), 2):
                total += 1
                if not empty_intersection(tensor, i, j):
                    failures += 1
    _report(
        capsys,
        6,
        "final components pairwise disjoint",
        failures == 0,
        f"{total - failures}/{total} final pairs disjoint",
    )


def test_surface_adjacency_oracle(capsys, corpus):
    failures = total = 0
    for (d, m), forests in corpus.items():
        if d != 2:
            continue
        for forest in forests:
            tensor = tensor_from_forest(forest)
            for i, j in itertools.combinations(range(1, m + 1), 2):
                total += 1
                meets = oracle_surface_intersection(forest, i, j) != 0
                if empty_intersection(tensor, i, j) == meets:
                    failures += 1
    _report(
        capsys,
        7,
        "surface adjacency agrees with proximity count",
        failures == 0,
        f"{total - failures}/{total} pairs agree",
    )


def test_total_transform_normalization(capsys, corpus):
    failures = total = 0
    for (d, m), forests in corpus.items():
        sign = 1 if d % 2 else -1
        for forest in forests:
            tensor = tensor_from_forest(forest)
            rows = total_transform_matrix(forest).inverse()
            for i in range(1, m + 1):
                total += 1
                if evaluate(tensor, [list(rows[i - 1])] * d) != sign * forest.degree(i):
                    failures += 1
            for i, j in itertools.combinations(range(1, m + 1), 2):
                for s in range(1, d):
                    total += 1
                    vectors = [list(rows[i - 1])] * s + [list(rows[j - 1])] * (d - s)
                    if evaluate(tensor, vectors) != 0:
                        failures += 1
    _report(
        capsys,
        8,
        "total transform normalization",
        failures == 0,
        f"{total - failures}/{total} pure and mixed powers normalized",
    )
