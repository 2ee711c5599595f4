from __future__ import annotations

import hashlib
import itertools
import json
import random
import tracemalloc
from bisect import bisect_right
from collections import defaultdict

import pytest
from hypothesis import example, given, settings, strategies as st

from blowups import (
    IntersectionTensor,
    MarkedPartition,
    NotContractibleError,
    ProximityForest,
    SearchLimitError,
    automorphism_orbits,
    canonical_form,
    forest_isomorphic,
    marked_forest_equivalent,
    marked_tensor_equivalent,
    partition_compatible_morphism,
    partition_compatible_sequence,
    quotient_tensor,
    random_forest,
    recover_sequence,
    tensor_equivalent,
    tensor_from_forest,
)
from blowups import equivalence, io
from blowups.equivalence import (
    _DigraphStructure,
    _orbit_ids,
    _orbits,
    _Partition,
    _refine,
    _structure_for,
    _TensorStructure,
    _twin_chains,
    tensor_equivalent_direct,
)
from _oracles import (
    apply_permutation,
    brute_force_block_orbits,
    brute_force_forest_isomorphic,
    brute_force_forest_orbits,
    brute_force_tensor_equivalent,
    brute_force_tensor_orbits,
    enumerate_forests,
    oracle_leaf_data,
    oracle_refine,
    perturb,
    random_partition,
    random_partition_inside,
    random_relabel,
)

# Size, entry count and diagonal multiset agree with those of the surface
# chain's tensor, so only the search tells them apart; no component contracts.
STUCK = IntersectionTensor(2, 2, {(1, 1): -1, (2, 2): -2, (1, 2): -1})


def recovery_route(t1: IntersectionTensor, t2: IntersectionTensor) -> tuple[int, ...] | None:
    """Tensor equivalence through the paper's bijection with blow-up sequences.

    Recover both sequences by contraction, match the forests, and map the
    forest isomorphism back to tensor indices through the creation order.
    A tensor that contracts is never equivalent to one that does not; two
    tensors that both fail to contract are outside this route.
    """
    recovered = []
    for tensor in (t1, t2):
        try:
            recovered.append(recover_sequence(tensor))
        except NotContractibleError:
            recovered.append(None)
    if recovered == [None, None]:
        raise NotContractibleError("neither tensor contracts to a blow-up sequence")
    if None in recovered:
        return None
    (f1, trace1), (f2, trace2) = recovered
    psi = forest_isomorphic(f1, f2)
    if psi is None:
        return None
    creation1 = trace1.creation_indices()
    original2 = {c: orig for orig, c in trace2.creation_indices().items()}
    return tuple(original2[psi[creation1[o] - 1]] for o in range(1, t1.size + 1))


# (forest hash, tensor hash) of each forest in TestCanonicalForm.test_pinned_hashes.
PINNED_HASHES = {
    "three-point chain d2": (
        "9332893f6fb6c027acc76c5cf6cf73f6c5d068d6d96a8515dff0436214826b77",
        "35e8725782be147e081ba96c03ebf5e2dacb82d6ee539c36d1b6c744af4b74c6",
    ),
    "three-point other d2": (
        "377977112f93a49060405bafd65c1e0699786c51d155d13657545d9d19c80355",
        "41070a2aa4cfa5a0caef31cc09ac7f0daa81b5baed976dbf41766165b664828c",
    ),
    "three-point chain d4": (
        "118285996329ba772550be160100ff2bfceae4d2ded7c01bf2cee9cfba9d1dc3",
        "bf3c111f58ac70cae99ec5ab91097f57f6373be80329f568169efa08b75174ee",
    ),
    "three-point other d4": (
        "e2518d2f85c3b2c7b7ad2a7fe9782723e2dd8c968b198fd4655342faf955afb6",
        "e8a37723bcef7d905238af2b33df5a049fe7f06dc7f64637c406afddb48ca9ab",
    ),
    "star 11": (
        "89ad6f341dc6c0f14b474d2205fab0291fc3d453593fc775cc7ecfbde35cb555",
        "d029fbe64ff9caa1d86c8a8cd9a1507db9f80249ba164f78606c0c3273c80e00",
    ),
    "broom 3+11": (
        "1d37aff282187b71b9cf5273d15af714b128651aeb0a9b788d36ead6aa97fd8f",
        "6c805395292f02bf81a2506887ca9da26bf0e0c879a6549e166336208ac4feb2",
    ),
    "empty": (
        "50cc43ac0eb14733f942a5e92c09f6a3cc38d6bea0d88022dacf99527a8edf51",
        "fd98ebcdd70520d5084dd43d278e1d9e9fb6ff5faf827d2a587d2243a0f7ffaf",
    ),
    "random d2": (
        "0f012f0459b25e727b90302f2efddc6df29ef763637fe7e4c2f56f236f3ddfe1",
        "8fd328101bc5283949e0a5c5cf80391fa01b88f3c715b0984abb05d8433bd12c",
    ),
    "random d3": (
        "5b9ad8295bc75a894d73a8b0acd9009ffd185d4ff18fa23a0c514d5b1b27abfe",
        "0fab2cb8e6258231a4d9488fc8fec44757bb4f91d7fee548cf7cebf0112f3b24",
    ),
    "random d4": (
        "70b2e4b0f3d93db80c1273cac395f9dcc1c1949d36dc506d69c295aac57ee9b2",
        "e751ce2fe30a7192fc7ebc9377c59378ba14d65b7cdb32f0bef675d4fe5f0a0f",
    ),
}


class TestCanonicalForm:
    def test_relabeling_is_permutation(self, three_chain_mixed):
        form = canonical_form(three_chain_mixed)
        assert sorted(form.relabeling) == [1, 2, 3]
        assert len(form.hash) == 64 and set(form.hash) <= set("0123456789abcdef")

    def test_forest_hash_is_relabelling_invariant(self, three_chain_mixed):
        rng = random.Random(5)
        reference = canonical_form(three_chain_mixed)
        for _ in range(10):
            shuffled, _ = random_relabel(three_chain_mixed, rng)
            assert canonical_form(shuffled).hash == reference.hash
            assert canonical_form(shuffled).relabeled == reference.relabeled

    def test_tensor_hash_is_relabelling_invariant(self, three_chain_mixed):
        tensor = tensor_from_forest(three_chain_mixed)
        reference = canonical_form(tensor)
        for perm in [(2, 1, 3), (3, 1, 2), (1, 3, 2)]:
            assert canonical_form(apply_permutation(tensor, perm)).hash == reference.hash

    def test_distinct_objects_distinct_hashes(
        self, three_chain_mixed, three_chain_mixed_prime
    ):
        assert canonical_form(three_chain_mixed).hash != canonical_form(three_chain_mixed_prime).hash
        t1 = tensor_from_forest(three_chain_mixed)
        t2 = tensor_from_forest(three_chain_mixed_prime)
        assert canonical_form(t1).hash != canonical_form(t2).hash

    def test_empty_objects(self):
        assert canonical_form(ProximityForest(2)).relabeling == ()
        assert canonical_form(IntersectionTensor(2, 0, {})).relabeling == ()

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            canonical_form([1, 2, 3])

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        dimension=st.integers(2, 4),
        size=st.integers(0, 7),
        how=st.sampled_from(["entry", "negate", "isolated", "diagonal"]),
    )
    def test_relabelled_tensor_is_normalized(self, seed, dimension, size, how):
        """The canonical tensor, built without the checking constructor, is what that constructor builds."""
        tensor = tensor_from_forest(random_forest(seed, dimension, size, 2))
        for t in (tensor, perturb(tensor, how, random.Random(seed))):
            relabeled = canonical_form(t).relabeled
            assert relabeled == IntersectionTensor(dimension, t.size, dict(relabeled.entries))

    def test_search_depth_does_not_depend_on_the_recursion_limit(self, request):
        """300 twins search 299 levels deep under a recursion limit of 200, as at the default limit."""
        isolated = ProximityForest.make(2, *[(1, [])] * 300)
        objs = (isolated, tensor_from_forest(isolated))
        forms = [canonical_form(obj) for obj in objs]
        request.getfixturevalue("low_recursion_limit")
        for obj, form in zip(objs, forms):
            assert canonical_form(obj) == form
            assert automorphism_orbits(obj) == (tuple(range(1, 301)),)

    def test_limits_name_the_bound_and_the_depth(self, monkeypatch):
        """The budget charges each node ``n`` colours; past it the search stops and says where."""
        empty = IntersectionTensor(2, 200, {})
        monkeypatch.setattr(equivalence, "WORK_LIMIT", 10_000)
        with pytest.raises(SearchLimitError, match="^canonical search exceeded 10000 colours scanned at depth 50$"):
            canonical_form(empty)
        monkeypatch.setattr(equivalence, "WORK_LIMIT", 2_000)
        with pytest.raises(SearchLimitError, match="^canonical search exceeded 2000 colours scanned at depth 10$"):
            canonical_form(empty)

    @pytest.mark.parametrize("k, depths", [(2, (1, 2, 2)), (50, (49, 50, 50)), (199, (198, 199, 199))])
    def test_limits_at_the_edges_of_a_twin_class(self, monkeypatch, k, depths):
        """The empty tensor of size 200 is one twin class, individualised in one step.

        Under budgets of ``200 k - 1``, ``200 k`` and ``200 k + 1`` it stops
        at the depths where a search with one node per member stopped.
        """
        empty = IntersectionTensor(2, 200, {})
        for limit, depth in zip((200 * k - 1, 200 * k, 200 * k + 1), depths):
            monkeypatch.setattr(equivalence, "WORK_LIMIT", limit)
            message = f"^canonical search exceeded {limit} colours scanned at depth {depth}$"
            with pytest.raises(SearchLimitError, match=message):
                canonical_form(empty)

    def test_limit_inside_a_long_twin_class(self):
        """4,000 disjoint points, as a forest or as a tensor, stop at depth 2,500 of the 3,999 their class needs."""
        points = ProximityForest.make(2, *[(1, [])] * 4000)
        for obj in (points, tensor_from_forest(points)):
            message = "^canonical search exceeded 10000000 colours scanned at depth 2500$"
            with pytest.raises(SearchLimitError, match=message):
                canonical_form(obj)

    def test_twin_search_holds_linear_memory(self):
        """500 twins search 499 levels deep holding one colouring, not one per open node: under a 3 MB peak."""
        isolated = ProximityForest.make(2, *[(1, [])] * 500)
        for obj in (isolated, tensor_from_forest(isolated)):
            tracemalloc.start()
            try:
                form = canonical_form(obj)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert form.relabeling == tuple(range(1, 501))
            assert peak < 3 * 2**20

    def test_chain_tensor_search_holds_linear_memory(self):
        """The root refinement is never undone, so it records no trail: a chain tensor of 1,000 searches under a 4 MB peak.

        Each round of its root refinement recolours the whole inner cell, so a trail would hold about N²/4 entries.
        """
        n = 1000
        entries = {(i, i): -2 for i in range(1, n + 1)}
        entries.update({(i, i + 1): 1 for i in range(1, n)})
        tracemalloc.start()
        try:
            form = canonical_form(IntersectionTensor(2, n, entries))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert form.relabeling[:2] == (n - 1, n - 3)
        assert peak < 4 * 2**20

    @pytest.mark.parametrize(
        "dimension, forests, classes",
        [(2, [1, 2, 8, 64, 896], [1, 2, 7, 40, 340]), (3, [1, 2, 8, 64, 1024], [1, 2, 7, 40, 420])],
    )
    def test_bijection_census(self, dimension, forests, classes):
        """Forest classes and tensor classes correspond one to one on every small forest."""
        for size in range(5):
            tensor_hashes = defaultdict(set)
            count = 0
            for forest in enumerate_forests(dimension, size, 2):
                count += 1
                tensor_hashes[canonical_form(forest).hash].add(canonical_form(tensor_from_forest(forest)).hash)
            assert count == forests[size]
            assert all(len(hashes) == 1 for hashes in tensor_hashes.values())
            assert len(tensor_hashes) == len(set().union(*tensor_hashes.values())) == classes[size]

    def test_pinned_hashes(self):
        """Canonical hashes are a stable output format; a change to one must be deliberate."""
        star = ProximityForest.make(2, (1, []), *[(1, [1])] * 11)
        broom = ProximityForest.make(2, (1, []), (1, [1]), (1, [2]), *[(1, [3])] * 11)
        corpus = {
            "three-point chain d2": ProximityForest.make(2, (1, []), (1, [1]), (3, [2])),
            "three-point other d2": ProximityForest.make(2, (1, []), (2, [1]), (2, [2])),
            "three-point chain d4": ProximityForest.make(4, (1, []), (1, [1]), (3, [2])),
            "three-point other d4": ProximityForest.make(4, (1, []), (2, [1]), (2, [2])),
            "star 11": star,
            "broom 3+11": broom,
            "empty": ProximityForest(2),
            "random d2": random_forest(7, 2, 9, 3),
            "random d3": random_forest(8, 3, 8, 2),
            "random d4": random_forest(9, 4, 7, 3),
        }
        found = {
            name: (canonical_form(forest).hash, canonical_form(tensor_from_forest(forest)).hash)
            for name, forest in corpus.items()
        }
        assert found == PINNED_HASHES
        twins = ProximityForest.make(2, (1, []), (1, [1]), (1, [1]), (2, []))
        twins_blocks = MarkedPartition((frozenset({1}), frozenset({2, 3}), frozenset({4})))
        moved = ProximityForest.make(2, (2, []), (1, []), (1, [2]), (1, [2]))
        moved_blocks = MarkedPartition((frozenset({3, 4}), frozenset({1}), frozenset({2})))
        assert marked_forest_equivalent(twins, twins_blocks, moved, moved_blocks) == (3, 1, 2)


def star(leaves: int) -> ProximityForest:
    return ProximityForest.make(2, (1, []), *[(1, [1])] * leaves)


def broom(leaves: int) -> ProximityForest:
    """A three-point chain with ``leaves`` points proximate to its last point."""
    return ProximityForest.make(2, (1, []), (1, [1]), (1, [2]), *[(1, [3])] * leaves)


def last_positions(keys: list) -> list[int]:
    """Each key's colour as the search reads it: the last position of its cell when the keys are sorted."""
    order = sorted(keys)
    return [bisect_right(order, key) - 1 for key in keys]


def dense_ranks(colors: list[int]) -> list[int]:
    """The ordered partition of ``colors``, as the ranks ``oracle_refine`` returns."""
    order = {c: r for r, c in enumerate(sorted(set(colors)))}
    return [order[c] for c in colors]


def root_cells(struct) -> tuple[list[int], dict[int, list[int]]]:
    """The refined root colouring and the members of each of its cells."""
    root = last_positions(struct.colors)
    _refine(struct, _Partition(root), range(struct.n))
    cells = defaultdict(list)
    for v, color in enumerate(root):
        cells[color].append(v)
    return root, cells


def root_cell_pairs(struct):
    """Every pair of vertices in one cell of the refined root colouring, where the search seeds its twins."""
    for members in root_cells(struct)[1].values():
        yield from itertools.combinations(members, 2)


def swap_is_automorphism(struct, u: int, v: int) -> bool:
    labels = list(range(1, struct.n + 1))
    identity = struct.relabel(labels)
    labels[u], labels[v] = v + 1, u + 1
    return struct.relabel(labels) == identity


def assert_twin_classes_exact(struct) -> None:
    """Two vertices of one refined root cell share a twin class exactly when swapping them is an automorphism."""
    root, _ = root_cells(struct)
    twins = _orbit_ids(struct.n, _twin_chains(struct, root))
    for u, v in root_cell_pairs(struct):
        assert (twins[u] == twins[v]) == swap_is_automorphism(struct, u, v)


class TestTwinSeeds:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        dimension=st.integers(2, 4),
        size=st.integers(0, 7),
        how=st.sampled_from(["entry", "negate", "isolated", "diagonal"]),
    )
    def test_swappable_is_exact_on_forests_and_tensors(self, seed, dimension, size, how):
        forest = random_forest(seed, dimension, size, 2)
        tensor = tensor_from_forest(forest)
        perturbed = perturb(tensor, how, random.Random(seed))
        for struct in (_DigraphStructure.of_forest(forest), _TensorStructure(tensor), _TensorStructure(perturbed)):
            assert_twin_classes_exact(struct)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        dimension=st.integers(2, 4),
        size=st.integers(0, 7),
        split=st.integers(0, 10**6),
    )
    # Twin blocks that each carry a loop, and twin blocks proximate to each other.
    @example(seed=183, dimension=3, size=6, split=1282)
    @example(seed=3, dimension=2, size=3, split=22)
    def test_swappable_blocks_are_automorphisms(self, seed, dimension, size, split):
        """Block graphs may have loops and 2-cycles; the twin test is exact there too."""
        forest = random_forest(seed, dimension, size, 2)
        assert_twin_classes_exact(_DigraphStructure.of_blocks(forest, random_partition(size, random.Random(split))))

    @pytest.mark.parametrize(
        "forest, orbits",
        [
            (star(64), ((1,), tuple(range(2, 66)))),
            (broom(64), ((1,), (2,), (3,), tuple(range(4, 68)))),
        ],
        ids=["star 64", "broom 3+64"],
    )
    def test_symmetric_shapes_search_one_path(self, monkeypatch, forest, orbits):
        """With the twins seeded, 64 twin leaves need 64 search nodes, forest or tensor."""
        monkeypatch.setattr(equivalence, "WORK_LIMIT", 64 * len(forest))
        for obj in (forest, tensor_from_forest(forest)):
            assert sorted(canonical_form(obj).relabeling) == list(range(1, len(forest) + 1))
            assert automorphism_orbits(obj) == orbits

    @pytest.mark.parametrize(
        "forest, orbits",
        [
            (ProximityForest.make(2, *[(1, [])] * 200), (tuple(range(1, 201)),)),
            (star(200), ((1,), tuple(range(2, 202)))),
        ],
        ids=["200 points", "star 200"],
    )
    def test_twin_classes_cost_linear_probes(self, monkeypatch, forest, orbits):
        """A search reads each twin transposition once: a target cell inside one twin class tries its least member alone.

        ``automorphism_orbits`` reads the transpositions again to name the
        orbits, so the counting maps are seen to be the ones searched.
        """
        probes = [0]

        class CountingMap(dict):
            def __contains__(self, key):
                probes[0] += 1
                return super().__contains__(key)

            def __iter__(self):
                probes[0] += 1
                return super().__iter__()

            def items(self):
                probes[0] += 1
                return super().items()

        twin_chains = equivalence._twin_chains
        monkeypatch.setattr(equivalence, "_twin_chains", lambda *args: list(map(CountingMap, twin_chains(*args))))
        n = len(orbits[-1])  # the twin class
        for obj in (forest, tensor_from_forest(forest)):
            probes[0] = 0
            canonical_form(obj)
            assert probes[0] <= 2 * n
            probes[0] = 0
            assert automorphism_orbits(obj) == orbits
            assert 0 < probes[0] <= 4 * n

    @pytest.mark.parametrize("k", [50, 100, 200])
    def test_twin_free_cells_cost_linear_fingerprints(self, monkeypatch, k):
        """Bucketing a cell before the exact twin test: k disjoint 2-chains cost one fingerprint per vertex, not k(k+1)/2 per cell."""
        forest = disjoint_chains(k)
        structs = [_DigraphStructure.of_forest(forest), _TensorStructure(tensor_from_forest(forest))]
        roots = [root_cells(struct)[0] for struct in structs]
        calls = count_calls(monkeypatch, "fingerprint")
        for struct, root in zip(structs, roots):
            calls[0] = 0
            assert _twin_chains(struct, root) == []
            assert calls[0] <= struct.n

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_roots_sharing_a_child_search_one_path(self, monkeypatch, d):
        """Twins that share a stored entry are seeded too: ``d`` roots with one common child."""
        forest = ProximityForest.make(d, *[(1, [])] * d, (1, list(range(1, d + 1))))
        monkeypatch.setattr(equivalence, "WORK_LIMIT", (len(forest) - 1) * len(forest))
        for obj in (forest, tensor_from_forest(forest)):
            assert automorphism_orbits(obj) == (tuple(range(1, d + 1)), (d + 1,))


def whole_class_structures(kind: str, dimension: int, k: int, rng: random.Random) -> list:
    """Search structures whose refined root keeps a class of twins as one whole cell, of ``k`` twins but in ``crossed``.

    ``crossed`` is two blocks that are proximate to each other; the blocks of 2-chains each carry a loop.
    """
    if kind == "blocks":
        leaves = ProximityForest.make(dimension, (1, []), *[(1, [1])] * (2 * k))
        pairs = MarkedPartition((frozenset({1}), *(frozenset({i, i + 1}) for i in range(2, 2 * k + 2, 2))))
        chains = disjoint_copies(ProximityForest.make(dimension, (1, []), (1, [1])), k)
        whole = MarkedPartition(tuple(frozenset({i, i + 1}) for i in range(1, 2 * k + 1, 2)))
        crossed = ProximityForest.make(dimension, (1, []), (1, []), (1, [1]), (1, [2]))
        swapped = MarkedPartition((frozenset({1, 4}), frozenset({2, 3})))
        return [_DigraphStructure.of_blocks(f, p) for f, p in ((leaves, pairs), (chains, whole), (crossed, swapped))]
    forest = {
        "points": ProximityForest.make(dimension, *[(1, [])] * k),
        "star": ProximityForest.make(dimension, (1, []), *[(1, [1])] * k),
        "broom": ProximityForest.make(dimension, (1, []), (1, [1]), (1, [2]), *[(1, [3])] * k),
    }[kind]
    tensor = tensor_from_forest(forest)
    perturbed = [_TensorStructure(perturb(tensor, how, rng)) for how in ("negate", "isolated")]
    return [_DigraphStructure.of_forest(forest), _TensorStructure(tensor), *perturbed]


def assert_class_step_refines_nothing(struct) -> int:
    """Individualising the least member of a refined root cell that is one whole twin class splits no cell.

    The refinement below it leaves the trail with the individualisation's
    two records alone, so the rest of the class stays one cell.  Returns
    the number of such cells.
    """
    root, cells = root_cells(struct)
    twins = _orbit_ids(struct.n, _twin_chains(struct, root))
    count = 0
    for members in cells.values():
        if len(members) > 1 and len({twins[v] for v in members}) == 1:
            part = _Partition(root.copy())
            v = min(members)
            part.individualise(v)
            individualised = list(part.trail)
            _refine(struct, part, [v])
            assert len(individualised) == 2 and part.trail == individualised
            count += 1
    return count


class TestClassStep:
    """A twin class is found in one pass and individualised in one step, with no refinement."""

    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(["points", "star", "broom", "blocks"]),
        dimension=st.integers(2, 4),
        k=st.integers(2, 12),
        seed=st.integers(0, 10**6),
    )
    def test_individualising_a_whole_class_refines_nothing(self, kind, dimension, k, seed):
        for struct in whole_class_structures(kind, dimension, k, random.Random(seed)):
            assert assert_class_step_refines_nothing(struct) >= 1

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        dimension=st.integers(2, 4),
        size=st.integers(0, 7),
        how=st.sampled_from(["entry", "negate", "isolated", "diagonal"]),
    )
    def test_whole_classes_of_random_structures_refine_nothing(self, seed, dimension, size, how):
        rng = random.Random(seed)
        forest = random_forest(seed, dimension, size, 2)
        tensor = tensor_from_forest(forest)
        structs = [_DigraphStructure.of_forest(forest), _TensorStructure(tensor), _TensorStructure(perturb(tensor, how, rng))]
        if size:
            structs.append(_DigraphStructure.of_blocks(forest, random_partition(size, rng)))
        for struct in structs:
            assert_class_step_refines_nothing(struct)  # whatever whole classes the root keeps, often none

    @pytest.mark.parametrize(
        "build",
        [
            lambda: _DigraphStructure([1] * 3, [[1], [2], [0]], [(1, 0)] * 3),
            lambda: _DigraphStructure([1] * 4, [[1], [0], [3], [2]], [(1, 0)] * 4),
            lambda: _TensorStructure(IntersectionTensor(2, 4, {(1, 1): -1, (2, 2): -1, (3, 3): -1, (4, 4): -1, (1, 2): 1, (3, 4): 1})),
        ],
        ids=["directed 3-cycle", "two 2-cycles", "two paired keys"],
    )
    def test_a_bucket_that_reads_its_cell_is_tested_pair_by_pair(self, build):
        """Members of one cell that read its members alike need not be twins, so such a bucket is not taken as one class."""
        assert_twin_classes_exact(build())

    @pytest.mark.parametrize(
        "forest, hashes",
        [
            (
                ProximityForest.make(2, *[(1, [])] * 2000),
                (
                    "afd9f8befdcee29a9ffa32bf4ab09d5c400792cc4b2010af02d7e1903593ac50",
                    "2af8d7598f32395bdc80ca003be5a7cf06d5204cb64ded70f8f3f084baef8198",
                ),
            ),
            (
                star(2000),
                (
                    "a4babb1820eb94a6e254a47d4bcd54e83381232be5d69fa31481cd36b23944e3",
                    "24025a295fef8171105bc831683291a8610834e90a3e522d38aac97a76c675d7",
                ),
            ),
        ],
        ids=["2000 points", "star 2000"],
    )
    def test_a_class_costs_the_root_refinement_and_linear_fingerprints(self, monkeypatch, forest, hashes):
        """2,000 twins, forest or tensor: the root's refinement is the search's only one, and at most 2n + 2 fingerprints.

        The twin test fingerprints each member once to bucket it and one
        member of the bucket once more; the hashes are those of the
        member-by-member search.
        """
        refinements = [0]

        def counting(*args, refine=equivalence._refine):
            refinements[0] += 1
            return refine(*args)

        monkeypatch.setattr(equivalence, "_refine", counting)
        fingerprints = count_calls(monkeypatch, "fingerprint")
        for obj, expected in zip((forest, tensor_from_forest(forest)), hashes):
            refinements[0] = fingerprints[0] = 0
            assert canonical_form(obj).hash == expected
            assert refinements[0] == 1
            assert fingerprints[0] <= 2 * 2000 + 2


def disjoint_copies(forest: ProximityForest, copies: int) -> ProximityForest:
    """``copies`` disjoint copies of ``forest``, one after another."""
    m = len(forest)
    return ProximityForest.make(
        forest.dimension,
        *[(p.degree, [j + k * m for j in p.proximate_to]) for k in range(copies) for p in forest.points],
    )


def individualised_children(struct):
    """Each vertex of each non-singleton cell of the refined root, individualised as the search does it.

    Yields the refined root colouring, the partition of the child before
    refinement, whose trail holds the individualisation, and the vertex.
    """
    root, cells = root_cells(struct)
    for members in cells.values():
        if len(members) > 1:
            for v in members:
                child = _Partition(root.copy())
                child.individualise(v)
                yield root, child, v


def count_calls(monkeypatch, name: str) -> list[int]:
    """Count calls of method ``name`` on both search structures; the count is the list's one item."""
    calls = [0]
    for cls in (_DigraphStructure, _TensorStructure):
        method = getattr(cls, name)

        def counting(self, *args, method=method):
            calls[0] += 1
            return method(self, *args)

        monkeypatch.setattr(cls, name, counting)
    return calls


def record_searches(monkeypatch) -> tuple[list[list[int]], list[int]]:
    """``[leaves reached, serialize calls]`` of each search from now on, and the count of all ``serialize`` calls.

    A search reaches a leaf each time a refinement, the root's included,
    ends in a discrete partition, on inputs that hold no twin class: a
    class is individualised without refining.
    """
    writes, searches = count_calls(monkeypatch, "serialize"), []

    def refining(struct, part, touched, refine=equivalence._refine):
        refine(struct, part, touched)
        if len(set(part.colors)) == struct.n:
            searches[-1][0] += 1

    def searching(struct, search=equivalence._search):
        searches.append([0, 0])
        before = writes[0]
        outcome = search(struct)
        searches[-1][1] = writes[0] - before
        return outcome

    monkeypatch.setattr(equivalence, "_refine", refining)
    monkeypatch.setattr(equivalence, "_search", searching)
    return searches, writes


def assert_partition_arrays_agree(part) -> None:
    """``elements`` and ``position`` are inverse, and every cell is the run of positions its colour and start name."""
    assert sorted(part.elements) == list(range(len(part.colors)))
    for v, color in enumerate(part.colors):
        assert part.elements[part.position[v]] == v
        assert part.start[color] <= part.position[v] <= color


def assert_split_refinement_is_exact(structs) -> None:
    """At the root and below each individualised vertex, refinement gives the ordered partition full refinement gives.

    Below each vertex, undoing the trail restores the parent colouring exactly.
    """
    for struct in structs:
        part = _Partition(last_positions(struct.colors))
        expected = oracle_refine(struct, part.colors)
        _refine(struct, part, range(struct.n))
        assert dense_ranks(part.colors) == expected
        assert_partition_arrays_agree(part)
        for root, child, v in individualised_children(struct):
            expected = oracle_refine(struct, child.colors)
            _refine(struct, child, [v])
            assert dense_ranks(child.colors) == expected
            assert_partition_arrays_agree(child)
            child.undo(0)
            assert child.colors == root
            assert_partition_arrays_agree(child)


class TestRefinement:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        dimension=st.integers(2, 4),
        size=st.integers(0, 5),
        copies=st.integers(1, 3),
        how=st.sampled_from(["entry", "negate", "isolated", "diagonal"]),
    )
    # Points without neighbours: the root round fingerprints none of them.
    @example(seed=0, dimension=2, size=1, copies=3, how="isolated")
    def test_refining_from_the_split_cell_is_exact(self, seed, dimension, size, copies, how):
        # Equal disjoint trees are symmetric without twins: a split must reach the points below a root.
        rng = random.Random(seed)
        forest = disjoint_copies(random_forest(seed, dimension, size, 2), copies)
        tensor = tensor_from_forest(forest)
        structs = [_DigraphStructure.of_forest(forest), _TensorStructure(tensor), _TensorStructure(perturb(tensor, how, rng))]
        if size:
            structs.append(_DigraphStructure.of_blocks(forest, random_partition(len(forest), rng)))
        assert_split_refinement_is_exact(structs)

    @pytest.mark.parametrize(
        "forest",
        [
            ProximityForest.make(2, (1, []), (1, [1]), (1, []), (1, [3]), (1, []), (1, [5])),
            ProximityForest.make(2, (1, []), (1, [1]), (1, [1]), (1, []), (1, [4]), (1, [4])),
            ProximityForest.make(3, (1, []), (1, []), *[(1, [1, 2])] * 3, (2, [3, 4])),
        ],
        ids=["three 2-chains", "two 3-stars", "two roots d3"],
    )
    def test_refining_twin_free_symmetry_is_exact(self, forest):
        """Individualising one root of several equal trees must reach the points proximate to the others."""
        tensor = tensor_from_forest(forest)
        blocks = MarkedPartition.singletons(len(forest))
        assert_split_refinement_is_exact(
            [_DigraphStructure.of_forest(forest), _TensorStructure(tensor), _DigraphStructure.of_blocks(forest, blocks)]
        )

    @pytest.mark.parametrize("forest", [star(64), broom(64)], ids=["star 64", "broom 3+64"])
    def test_symmetric_shapes_fingerprint_what_a_split_touches(self, monkeypatch, forest):
        """A node of the search costs what its individualisation touches, not all n vertices."""
        calls = count_calls(monkeypatch, "fingerprint")
        for obj in (forest, tensor_from_forest(forest)):
            calls[0] = 0
            canonical_form(obj)
            assert calls[0] <= 3 * len(forest)

    def test_chain_tensor_root_fingerprints_linearly(self, monkeypatch):
        """A chain tensor's root cell loses two members a round; the rounds fingerprint what the split touched, not the cell."""
        n = 2000
        entries = {(i, i): -2 for i in range(1, n + 1)}
        entries.update({(i, i + 1): 1 for i in range(1, n)})
        struct = _TensorStructure(IntersectionTensor(2, n, entries))
        calls = count_calls(monkeypatch, "fingerprint")
        part = _Partition(last_positions(struct.colors))
        _refine(struct, part, range(n))
        assert calls[0] <= 8 * n
        # The chain's mirror symmetry pairs its ends off inwards: one cell per mirror pair.
        assert all(part.colors[i] == part.colors[n - 1 - i] for i in range(n // 2))
        assert len(set(part.colors)) == n // 2

    @pytest.mark.parametrize("forest", [random_forest(8, 3, 8, 2), random_forest(2, 3, 10, 3)], ids=["d3 m8", "d3 m10"])
    def test_rigid_search_builds_one_document(self, monkeypatch, forest):
        """A rigid object's search has one leaf and writes it only when read: by ``canonical_form``, once."""
        calls = count_calls(monkeypatch, "serialize")
        for obj in (forest, tensor_from_forest(forest)):
            struct = _structure_for(obj)
            calls[0] = 0
            outcome = equivalence._search(struct)
            assert outcome.automorphisms == []
            assert _orbits(struct) == tuple((i,) for i in range(1, len(forest) + 1))
            assert calls[0] == 0
            canonical_form(obj)
            assert calls[0] == 1


class TestOneRelabelling:
    """``relabel`` builds the relabelled object: at most once for a canonical form, never at a search leaf."""

    forest = random_forest(8, 3, 8, 2)
    chains = disjoint_copies(ProximityForest.make(2, (1, []), (1, [1])), 6)  # a search with many leaves

    def test_canonical_form_relabels_once(self, monkeypatch):
        """A canonical form relabels nothing until ``relabeled`` is read, then its canonical leaf once."""
        calls = count_calls(monkeypatch, "relabel")
        for forest in (self.forest, self.chains):
            for obj in (forest, tensor_from_forest(forest)):
                calls[0] = 0
                form = canonical_form(obj)
                assert calls[0] == 0
                relabeled = form.relabeled
                assert calls[0] == 1
                assert form.relabeled is relabeled
                assert calls[0] == 1
                calls[0] = 0
                assert relabeled == _structure_for(obj).relabel(list(form.relabeling))
                to_dict = io.forest_to_dict if isinstance(obj, ProximityForest) else io.tensor_to_dict
                assert form.data == io.canonical_json(to_dict(relabeled)).encode()

    def test_match_builds_no_document(self, monkeypatch):
        """No search relabels a leaf; the verification relabels the first input and reads the second as given, forest or tensor."""
        relabels, inside = count_calls(monkeypatch, "relabel"), [0]

        def counting(struct, search=equivalence._search):
            before = relabels[0]
            outcome = search(struct)
            inside[0] += relabels[0] - before
            return outcome

        monkeypatch.setattr(equivalence, "_search", counting)
        for forest in (self.forest, self.chains):
            for decide, obj in ((forest_isomorphic, forest), (tensor_equivalent, tensor_from_forest(forest))):
                relabels[0] = 0
                assert decide(obj, obj) is not None
                assert (inside[0], relabels[0]) == (0, 1)

    def test_leaves_are_written_only_to_be_read(self, monkeypatch):
        """A one-leaf search writes no leaf, and the decisions read none; past one leaf, each is written at most once.

        ``canonical_form`` reads the canonical leaf's data, which the search
        wrote if it compared leaves and which is otherwise written then, once.
        """
        searches, writes = record_searches(monkeypatch)
        forest, other = self.forest, random_forest(1, 3, 8, 2)  # rigid, and inequivalent as forests and as tensors
        shuffled, _ = random_relabel(forest, random.Random(0))
        singletons = MarkedPartition.singletons(len(forest))
        for a, b, c in ((forest, shuffled, other), tuple(map(tensor_from_forest, (forest, shuffled, other)))):
            same = forest_isomorphic if isinstance(a, ProximityForest) else tensor_equivalent
            marked = marked_forest_equivalent if isinstance(a, ProximityForest) else marked_tensor_equivalent
            compatible = partition_compatible_sequence if isinstance(a, ProximityForest) else partition_compatible_morphism
            searches.clear()
            assert same(a, b) is not None and same(a, c) is None
            assert marked(a, singletons, b, singletons) is not None and marked(a, singletons, c, singletons) is None
            assert automorphism_orbits(a) == tuple((i,) for i in range(1, len(forest) + 1))
            assert compatible(a, singletons)
            assert searches and all(leaves == 1 for leaves, _ in searches)
            assert writes[0] == 0
        chains, _ = random_relabel(self.chains, random.Random(0))
        for a, b in ((self.chains, chains), (tensor_from_forest(self.chains), tensor_from_forest(chains))):
            same = forest_isomorphic if isinstance(a, ProximityForest) else tensor_equivalent
            for decide in (lambda: same(a, b), lambda: automorphism_orbits(a), lambda: canonical_form(a).data):
                searches.clear()
                writes[0] = 0
                decide()
                assert all(1 < leaves and written <= leaves for leaves, written in searches)
                assert writes[0] == sum(written for _, written in searches)


@st.composite
def leaf_structures(draw):
    """A search structure of each kind with a random labelling of its vertices.

    Forests with degrees of either sign; block graphs of random partitions,
    and digraphs drawn directly, with loops and 2-cycles; tensors of
    forests, ``perturb``ed ones, and random symmetric forms whose values
    reach past 64 bits.  Every kind includes size 0.
    """
    kind = draw(st.sampled_from(["forest", "blocks", "digraph", "tensor", "perturbed", "form"]))
    seed, dimension, size = draw(st.integers(0, 10**6)), draw(st.integers(2, 4)), draw(st.integers(0, 8))
    rng = random.Random(seed)
    forest = random_forest(seed, dimension, size, 3)
    if kind == "forest":
        signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=size, max_size=size))
        struct = _DigraphStructure.of_forest(
            ProximityForest.make(dimension, *[(s * p.degree, p.proximate_to) for s, p in zip(signs, forest.points)])
        )
    elif kind == "blocks":
        struct = _DigraphStructure.of_blocks(forest, random_partition(size, rng))
    elif kind == "digraph":
        out = [sorted(draw(st.sets(st.integers(0, size - 1)))) for _ in range(size)]
        degrees = draw(st.lists(st.integers(-5, 5), min_size=size, max_size=size))
        struct = _DigraphStructure(degrees, out, [(g, int(v in out[v])) for v, g in enumerate(degrees)])
    elif kind == "form":
        key = st.lists(st.integers(1, max(size, 1)), min_size=dimension, max_size=dimension).map(sorted).map(tuple)
        entries = draw(st.dictionaries(key, st.integers(-(2**70), 2**70), max_size=12 if size else 0))
        struct = _TensorStructure(IntersectionTensor(dimension, size, entries))
    else:
        tensor = tensor_from_forest(forest)
        if kind == "perturbed":
            tensor = perturb(tensor, rng.choice(["entry", "negate", "isolated", "diagonal"]), rng)
        struct = _TensorStructure(tensor)
    return struct, list(draw(st.permutations(range(1, struct.n + 1))))


class TestSerialize:
    @settings(max_examples=300, deadline=None)
    @given(case=leaf_structures())
    # A block graph with a loop ({5, 6}) and a 2-cycle ({1, 4} and {2, 3}).
    @example(case=(
        _DigraphStructure.of_blocks(
            ProximityForest.make(2, (1, []), (1, [1]), (2, []), (1, [3]), (3, []), (1, [5])),
            MarkedPartition((frozenset({1, 4}), frozenset({2, 3}), frozenset({5, 6}))),
        ),
        [3, 1, 2],
    ))
    def test_serialize_is_the_document_bytes(self, case):
        """A leaf's data is the canonical JSON of its relabelled object's document, byte for byte."""
        struct, labels = case
        assert struct.serialize(labels) == oracle_leaf_data(struct, labels)


def disjoint_chains(k: int) -> ProximityForest:
    return disjoint_copies(ProximityForest.make(2, (1, []), (1, [1])), k)


def cycles(*lengths: int) -> ProximityForest:
    """Disjoint cycles of roots, each cycle edge a point proximate to its two ends.

    Refinement cannot tell one root from another, but ``cycles(6, 3, 3)``
    has no automorphism taking a root of the 6-cycle into a 3-cycle, so its
    search reaches leaves whose structures differ.
    """
    roots = [list(range(sum(lengths[:c]) + 1, sum(lengths[: c + 1]) + 1)) for c in range(len(lengths))]
    edges = [(1, [cycle[k], cycle[k - 1]]) for cycle in roots for k in range(len(cycle))]
    return ProximityForest.make(2, *[(1, [])] * sum(lengths), *edges)


class TestLeafTable:
    @settings(max_examples=80, deadline=None)
    @given(
        forest=st.builds(
            lambda seed, dimension, size, copies: disjoint_copies(random_forest(seed, dimension, size, 2), copies),
            st.integers(0, 10**6),
            st.integers(2, 4),
            st.integers(0, 5),
            st.integers(1, 3),
        ),
        how=st.sampled_from(["entry", "negate", "isolated", "diagonal"]),
        split=st.integers(0, 10**6),
    )
    # Symmetry without twins: every automorphism past the first leaf comes from a repeated leaf.
    @example(forest=disjoint_chains(5), how="isolated", split=0)
    # Leaves of unequal structure: data that lost the proximities would call them automorphic.
    @example(forest=cycles(6, 3, 3), how="entry", split=0)
    def test_repeated_leaves_are_automorphisms(self, forest, how, split):
        """Equal leaf data under two labellings is taken as an automorphism unchecked; check it here."""
        rng = random.Random(split)
        tensor = tensor_from_forest(forest)
        structs = [_DigraphStructure.of_forest(forest), _TensorStructure(tensor), _TensorStructure(perturb(tensor, how, rng))]
        if len(forest):
            structs.append(_DigraphStructure.of_blocks(forest, random_partition(len(forest), rng)))
        for struct in structs:
            identity = list(range(1, struct.n + 1))
            for automorphism in equivalence._search(struct).automorphisms:
                labels = identity.copy()
                for v, w in automorphism.items():
                    labels[v] = w + 1
                assert struct.relabel(labels) == struct.relabel(identity)

    def test_one_document_per_leaf(self, monkeypatch):
        """Six disjoint 2-chains search many leaves; each is serialised once, and none is relabelled or encoded."""
        serialized, relabels, encoded = [], count_calls(monkeypatch, "relabel"), [0]
        for cls in (_DigraphStructure, _TensorStructure):

            def recording(self, labels, serialize=cls.serialize):
                data = serialize(self, labels)
                serialized.append((tuple(labels), data))
                return data

            monkeypatch.setattr(cls, "serialize", recording)

        def counting(data, canonical_json=io.canonical_json):
            encoded[0] += 1
            return canonical_json(data)

        monkeypatch.setattr(io, "canonical_json", counting)
        forest = disjoint_chains(6)
        for struct in (_DigraphStructure.of_forest(forest), _TensorStructure(tensor_from_forest(forest))):
            serialized.clear()
            relabels[0] = encoded[0] = 0
            outcome = equivalence._search(struct)
            # A labelling determines its leaf.  Without twins, each leaf that repeats data is one automorphism.
            assert len(serialized) > 1
            assert len({labels for labels, _ in serialized}) == len(serialized)
            assert len(serialized) == len({data for _, data in serialized}) + len(outcome.automorphisms)
            assert relabels[0] == encoded[0] == 0

    def test_repeated_leaf_backjumps(self, monkeypatch):
        """Each repeated leaf returns to where its path left the earlier one, so k 2-chains reach at most k leaves."""
        leaves = count_calls(monkeypatch, "serialize")
        k = 10
        forest = disjoint_chains(k)
        for struct in (_DigraphStructure.of_forest(forest), _TensorStructure(tensor_from_forest(forest))):
            leaves[0] = 0
            equivalence._search(struct)
            assert leaves[0] <= k

    @pytest.mark.parametrize(
        "shape, bound",
        [
            (ProximityForest.make(2, (1, []), (1, [1])), lambda k: k * (k + 1) // 2),
            (ProximityForest.make(2, (1, []), (1, [1]), (1, [1])), lambda k: k * (3 * k + 1) // 2),
        ],
        ids=["2-chains", "3-point stars"],
    )
    def test_twin_free_symmetry_refines_quadratically(self, monkeypatch, shape, bound):
        """k disjoint copies of a shape without twins cost at most k(k+1)/2 or k(3k+1)/2 refinements, root included."""
        calls = [0]

        def counting(*args, refine=equivalence._refine):
            calls[0] += 1
            return refine(*args)

        monkeypatch.setattr(equivalence, "_refine", counting)
        for k in range(1, 13):
            forest = disjoint_copies(shape, k)
            for obj in (forest, tensor_from_forest(forest)):
                calls[0] = 0
                canonical_form(obj)
                assert calls[0] <= bound(k)


def unpruned_first_least_leaf(struct) -> tuple[tuple[int, ...], bytes]:
    """The labelling and data of the first leaf, in depth-first order, with the least data, pruning nothing.

    Each node individualises every member of its target cell, the
    non-singleton cell that ends first, in ascending order, and refines
    with ``oracle_refine``; the search must reach the same leaf.
    """
    best = None
    stack = [last_positions(oracle_refine(struct, last_positions(struct.colors)))]
    while stack:
        colors = stack.pop()
        cells = defaultdict(list)
        for v, color in enumerate(colors):
            cells[color].append(v)
        target = min((color for color, members in cells.items() if len(members) > 1), default=None)
        if target is None:
            labels = [color + 1 for color in colors]
            data = struct.serialize(labels)
            if best is None or data < best[1]:
                best = (tuple(labels), data)
            continue
        members = cells[target]
        for v in reversed(members):
            child = colors.copy()
            child[v] = target - len(members) + 1
            stack.append(last_positions(oracle_refine(struct, child)))
    return best


class TestPathFilter:
    """A node prunes by the automorphisms that fix its path alone: one that moves the path can hide the least leaf.

    A directed 3-cycle beside two 2-cycles, all of one colour, is the
    smallest shape found where pruning with every known automorphism
    misses the least leaf; it turns up as a block graph of a forest too.
    """

    digraph = _DigraphStructure([1] * 7, [[1], [2], [0], [4], [3], [6], [5]], [(1, 0)] * 7)
    # Blocks {3,4} -> {1,5} -> {2,6} -> {3,4}, {8,9} <-> {7,10} and {12,13} <-> {11,14}.
    forest = ProximityForest.make(
        2, *[(1, [])] * 3, (1, [1]), (1, [2]), (1, [3]), (1, []), (1, []), (1, [7]), (1, [8]), (1, []), (1, []), (1, [11]), (1, [12])
    )
    blocks = MarkedPartition(tuple(map(frozenset, [{3, 4}, {1, 5}, {2, 6}, {8, 9}, {7, 10}, {12, 13}, {11, 14}])))

    def test_search_reaches_the_first_least_leaf(self):
        for struct in (self.digraph, _DigraphStructure.of_blocks(self.forest, self.blocks)):
            outcome = equivalence._search(struct)
            assert outcome.automorphisms  # the search pruned by automorphisms it found
            assert (outcome.labels, outcome.data) == unpruned_first_least_leaf(struct)
            assert _orbits(struct) == ((1, 2, 3), (4, 5, 6, 7))


class TestForestIsomorphic:
    def test_identity(self, three_chain_mixed):
        assert forest_isomorphic(three_chain_mixed, three_chain_mixed) == (1, 2, 3)

    def test_different_degrees(self, three_chain_mixed, three_chain_mixed_prime):
        assert forest_isomorphic(three_chain_mixed, three_chain_mixed_prime) is None

    def test_same_degrees_different_shape(self):
        chain = ProximityForest.make(2, (1, []), (1, [1]), (1, [2]))
        fork = ProximityForest.make(2, (1, []), (1, [1]), (1, [1]))
        assert forest_isomorphic(chain, fork) is None

    def test_witness_is_verified_map(self, three_chain_mixed):
        rng = random.Random(11)
        for _ in range(10):
            shuffled, perm = random_relabel(three_chain_mixed, rng)
            found = forest_isomorphic(three_chain_mixed, shuffled)
            assert found == perm  # the chain has no symmetry, one witness only

    def test_dimension_mismatch(self, surface_chain, three_chain_mixed):
        with pytest.raises(ValueError):
            forest_isomorphic(surface_chain, three_chain_mixed)

    @settings(max_examples=60, deadline=None)
    @given(
        seed1=st.integers(0, 10**6),
        seed2=st.integers(0, 10**6),
        size=st.integers(0, 5),
    )
    def test_agrees_with_brute_force(self, seed1, seed2, size):
        f1 = random_forest(seed1, 2, size, 2)
        f2 = random_forest(seed2, 2, size, 2)
        has_brute = brute_force_forest_isomorphic(f1, f2) is not None
        assert (forest_isomorphic(f1, f2) is not None) == has_brute

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), shuffle_seed=st.integers(0, 10**6))
    def test_relabelled_forests_match(self, seed, shuffle_seed):
        forest = random_forest(seed, 3, 6, 3)
        shuffled, _ = random_relabel(forest, random.Random(shuffle_seed))
        perm = forest_isomorphic(forest, shuffled)
        assert perm is not None
        for i in range(1, 7):
            assert shuffled.degree(perm[i - 1]) == forest.degree(i)
            assert {perm[j - 1] for j in forest.targets(i)} == shuffled.targets(perm[i - 1])


class TestTensorEquivalent:
    def test_identity(self, three_chain_mixed):
        tensor = tensor_from_forest(three_chain_mixed)
        assert tensor_equivalent(tensor, tensor) == (1, 2, 3)

    def test_famous_inequivalent_pair(self, three_chain_mixed, three_chain_mixed_prime):
        t1 = tensor_from_forest(three_chain_mixed)
        t2 = tensor_from_forest(three_chain_mixed_prime)
        assert sorted(t1.entries[(i,) * 4] for i in (1, 2, 3)) == sorted(
            t2.entries[(i,) * 4] for i in (1, 2, 3)
        )
        assert tensor_equivalent(t1, t2) is None
        assert tensor_equivalent_direct(t1, t2) is None

    def test_witness_carries_entries(self, three_chain_mixed):
        tensor = tensor_from_forest(three_chain_mixed)
        shuffled = apply_permutation(tensor, (3, 1, 2))
        perm = tensor_equivalent(tensor, shuffled)
        assert perm is not None
        assert apply_permutation(tensor, perm).entries == shuffled.entries

    def test_dimension_mismatch(self, surface_chain, three_chain_mixed):
        with pytest.raises(ValueError):
            tensor_equivalent(
                tensor_from_forest(surface_chain), tensor_from_forest(three_chain_mixed)
            )

    def test_one_side_not_contractible(self, surface_chain):
        contractible = tensor_from_forest(surface_chain)
        # size, entry count and diagonal multiset all agree; only the entries differ
        assert sorted(STUCK.entries[(i, i)] for i in (1, 2)) == sorted(
            contractible.entries[(i, i)] for i in (1, 2)
        )
        assert tensor_equivalent(contractible, STUCK) is None
        assert tensor_equivalent(STUCK, contractible) is None

    def test_neither_side_contractible_uses_direct_matcher(self):
        t1 = IntersectionTensor(2, 2, {(1, 1): -1, (2, 2): -2, (1, 2): -1})
        t2 = IntersectionTensor(2, 2, {(1, 1): -2, (2, 2): -1, (1, 2): -1})
        perm = tensor_equivalent(t1, t2)
        assert perm == (2, 1)
        assert apply_permutation(t1, perm).entries == t2.entries

    @settings(max_examples=50, deadline=None)
    @given(
        seed1=st.integers(0, 10**6),
        seed2=st.integers(0, 10**6),
        dimension=st.integers(2, 3),
        size=st.integers(0, 5),
    )
    def test_agrees_with_brute_force(self, seed1, seed2, dimension, size):
        t1 = tensor_from_forest(random_forest(seed1, dimension, size, 2))
        t2 = tensor_from_forest(random_forest(seed2, dimension, size, 2))
        brute = brute_force_tensor_equivalent(t1, t2)
        found = tensor_equivalent(t1, t2)
        assert (found is None) == (brute is None)
        if found is not None:
            assert apply_permutation(t1, found).entries == t2.entries

    @settings(max_examples=50, deadline=None)
    @given(
        seed1=st.integers(0, 10**6),
        seed2=st.integers(0, 10**6),
        dimension=st.integers(2, 3),
        size=st.integers(0, 5),
        shuffle_seed=st.integers(0, 10**6),
    )
    def test_direct_matcher_agrees_with_recovery_route(
        self, seed1, seed2, dimension, size, shuffle_seed
    ):
        forest = random_forest(seed1, dimension, size, 2)
        shuffled, _ = random_relabel(forest, random.Random(shuffle_seed))
        t1 = tensor_from_forest(forest)
        t2 = tensor_from_forest(random_forest(seed2, dimension, size, 2))
        pairs = [(t1, t2), (t1, tensor_from_forest(shuffled))]
        if dimension == 2:
            pairs += [(t1, STUCK), (STUCK, t1)]
        for a, b in pairs:
            found = tensor_equivalent(a, b)
            witness = recovery_route(a, b)
            assert (witness is None) == (found is None)
            if witness is not None:
                assert apply_permutation(a, witness).entries == b.entries


def with_point(forest: ProximityForest) -> ProximityForest:
    """``forest`` and one more root of degree 1."""
    return ProximityForest.make(forest.dimension, *[(p.degree, p.proximate_to) for p in forest.points], (1, []))


def symmetric_shapes(dimension: int) -> list[ProximityForest]:
    """Shapes of 6 and 7 points, symmetric without twins, so that their searches reach several leaves."""
    chain2 = ProximityForest.make(dimension, (1, []), (1, [1]))
    chain3 = ProximityForest.make(dimension, (1, []), (1, [1]), (1, [2]))
    tipped = ProximityForest.make(dimension, (1, []), (2, [1]))
    shapes = [disjoint_copies(chain2, 3), disjoint_copies(chain3, 2), disjoint_copies(tipped, 3)]
    return shapes + [with_point(shape) for shape in shapes]


class TestSymmetricPairs:
    """The decisions agree with brute force where the searches reach several leaves, not one."""

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_agrees_with_brute_force(self, monkeypatch, dimension):
        searches, _ = record_searches(monkeypatch)
        shapes = symmetric_shapes(dimension)
        rng = random.Random(dimension)
        for shape in shapes:
            relabelled, _ = random_relabel(shape, rng)
            # Each other shape of this size is inequivalent to it.
            others = [other for other in shapes if other is not shape and len(other) == len(shape)]
            for other in [relabelled, *others]:
                found = forest_isomorphic(shape, other)
                assert (found is None) == (brute_force_forest_isomorphic(shape, other) is None)
                if found is not None:
                    for i in range(1, len(shape) + 1):
                        assert other.degree(found[i - 1]) == shape.degree(i)
                        assert {found[j - 1] for j in shape.targets(i)} == other.targets(found[i - 1])
            tensor = tensor_from_forest(shape)
            partners = [tensor_from_forest(other) for other in [relabelled, *others]]
            partners += [perturb(tensor_from_forest(relabelled), how, rng) for how in ("entry", "negate", "diagonal")]
            for other in partners:
                found = tensor_equivalent(tensor, other)
                assert (found is None) == (brute_force_tensor_equivalent(tensor, other) is None)
                if found is not None:
                    assert apply_permutation(tensor, found).entries == other.entries
        assert max(leaves for leaves, _ in searches) >= 2


class TestOrbits:
    def test_chain_is_rigid(self, three_chain_mixed):
        assert automorphism_orbits(three_chain_mixed) == ((1,), (2,), (3,))

    def test_identical_disjoint_points(self):
        forest = ProximityForest.make(2, (1, []), (1, []), (1, []))
        assert automorphism_orbits(forest) == ((1, 2, 3),)
        assert automorphism_orbits(tensor_from_forest(forest)) == ((1, 2, 3),)

    def test_two_equal_chains(self):
        forest = ProximityForest.make(2, (1, []), (1, [1]), (1, []), (1, [3]))
        assert automorphism_orbits(forest) == ((1, 3), (2, 4))
        assert automorphism_orbits(tensor_from_forest(forest)) == ((1, 3), (2, 4))

    @pytest.mark.parametrize(
        "forest, blocks",
        [
            (ProximityForest.make(2, (1, []), *[(1, [1])] * 6), None),
            (ProximityForest.make(2, (1, []), (1, [1]), *[(1, [2])] * 5), None),
            (ProximityForest.make(2, (1, []), (1, [1]), (1, [1]), (1, []), (1, [4]), (1, [4])), None),
            (ProximityForest.make(2, (1, []), (1, [1]), (1, []), (1, [3]), (1, []), (1, [5])), None),
            (ProximityForest.make(3, (1, []), (1, []), (1, []), (2, []), (2, []), (2, []), (3, [])), None),
            (ProximityForest.make(3, (1, []), (1, []), *[(1, [1, 2])] * 5), None),
            # The centres are not twins, so only a found automorphism swaps them.
            (ProximityForest.make(2, (1, []), *[(1, [1])] * 3, (1, []), *[(1, [5])] * 3), None),
            # Blocks {1, 2} (a loop), {3, 4} and {5, 6} (twins), {7} (proximate to both twins).
            (
                ProximityForest.make(2, (1, []), (1, [1]), (1, [2]), (1, [2]), (1, [2]), (1, [2]), (2, [3, 5])),
                MarkedPartition(tuple(map(frozenset, ({1, 2}, {3, 4}, {5, 6}, {7})))),
            ),
        ],
        ids=[
            "star 6",
            "broom 2+5",
            "two 3-stars",
            "three 2-chains",
            "isolated d3",
            "two roots d3",
            "two 4-stars",
            "marked twin blocks",
        ],
    )
    def test_pruned_shapes_match_brute_force(self, forest, blocks):
        """Forest and tensor orbits, and block-graph and quotient orbits (singleton blocks when unmarked)."""
        assert automorphism_orbits(forest) == brute_force_forest_orbits(forest)
        tensor = tensor_from_forest(forest)
        assert automorphism_orbits(tensor) == brute_force_tensor_orbits(tensor)
        blocks = blocks or MarkedPartition.singletons(len(forest))
        assert _orbits(_DigraphStructure.of_blocks(forest, blocks)) == brute_force_block_orbits(forest, blocks)
        quotient = quotient_tensor(tensor, blocks)
        assert automorphism_orbits(quotient) == brute_force_tensor_orbits(quotient)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 12), data=st.data())
    def test_orbit_ids_name_the_least_member(self, n, data):
        """On sparse transpositions and cycles, each vertex maps to the least vertex of its closure."""
        cycle = st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True)
        perms = [dict(zip(c, c[1:] + c[:1])) for c in data.draw(st.lists(cycle, max_size=6))]
        for v, least in enumerate(_orbit_ids(n, perms)):
            orbit, frontier = {v}, [v]
            while frontier:
                u = frontier.pop()
                for w in (p.get(u, u) for p in perms):
                    if w not in orbit:
                        orbit.add(w)
                        frontier.append(w)
            assert least == min(orbit)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), dimension=st.integers(2, 3), size=st.integers(0, 5))
    def test_forest_orbits_match_brute_force(self, seed, dimension, size):
        forest = random_forest(seed, dimension, size, 2)
        assert automorphism_orbits(forest) == brute_force_forest_orbits(forest)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), dimension=st.integers(2, 3), size=st.integers(0, 5))
    def test_tensor_orbits_match_brute_force(self, seed, dimension, size):
        tensor = tensor_from_forest(random_forest(seed, dimension, size, 2))
        assert automorphism_orbits(tensor) == brute_force_tensor_orbits(tensor)


class TestMarkedEquivalence:
    def test_conjugate_points_match_a_fat_point(self):
        pair = ProximityForest.make(2, (1, []), (1, []))
        fat = ProximityForest.make(2, (2, []))
        merged = MarkedPartition((frozenset({1, 2}),))
        single = MarkedPartition.singletons(1)
        assert marked_forest_equivalent(pair, merged, fat, single) == (1,)
        assert (
            marked_tensor_equivalent(
                tensor_from_forest(pair), merged, tensor_from_forest(fat), single
            )
            == (1,)
        )

    def test_unmarked_pair_differs_from_fat_point(self):
        pair = ProximityForest.make(2, (1, []), (1, []))
        fat = ProximityForest.make(2, (2, []))
        with pytest.raises(ValueError):
            marked_forest_equivalent(
                pair, MarkedPartition.singletons(2), fat, MarkedPartition.singletons(1)
            )

    def test_block_degrees_must_match(self):
        f1 = ProximityForest.make(2, (1, []), (2, []))
        f2 = ProximityForest.make(2, (1, []), (1, []))
        p = MarkedPartition.singletons(2)
        assert marked_forest_equivalent(f1, p, f2, p) is None
        assert marked_tensor_equivalent(
            tensor_from_forest(f1), p, tensor_from_forest(f2), p
        ) is None

    def test_block_proximity_must_match(self):
        chain = ProximityForest.make(2, (1, []), (1, [1]))
        apart = ProximityForest.make(2, (1, []), (1, []))
        p = MarkedPartition.singletons(2)
        assert marked_forest_equivalent(chain, p, apart, p) is None

    def test_singletons_reduce_to_plain_equivalence(self, three_chain_mixed):
        rng = random.Random(3)
        shuffled, _ = random_relabel(three_chain_mixed, rng)
        p = MarkedPartition.singletons(3)
        assert marked_forest_equivalent(three_chain_mixed, p, shuffled, p) is not None

    def test_block_graph_checks_each_partition_once(self, monkeypatch):
        # block degrees come from one pass, not one checked block_degree call per block
        forest = random_forest(5, 2, 50, 3)
        p = MarkedPartition.singletons(50)
        calls = count_checks(monkeypatch)
        assert marked_forest_equivalent(forest, p, forest, p) is not None
        assert len(calls) == 2

    def test_quotients_check_each_partition_once(self, monkeypatch):
        tensor = tensor_from_forest(random_forest(5, 2, 20, 3))
        p = MarkedPartition.singletons(20)
        calls = count_checks(monkeypatch)
        assert marked_tensor_equivalent(tensor, p, tensor, p) is not None
        assert len(calls) == 2

    @pytest.mark.parametrize("kind", ["forest", "tensor"])
    def test_partition_errors_keep_their_order(self, kind):
        """``p1``'s error comes first, then ``p2``'s, then a block count mismatch."""
        forest = ProximityForest.make(2, (1, []), (1, [1]), (1, []))
        obj = forest if kind == "forest" else tensor_from_forest(forest)
        marked = marked_forest_equivalent if kind == "forest" else marked_tensor_equivalent
        three = MarkedPartition.singletons(3)
        missing = MarkedPartition((frozenset({1}), frozenset({2})))
        overlapping = MarkedPartition((frozenset({1, 2}), frozenset({2, 3})))
        empty = MarkedPartition((frozenset(),))
        with pytest.raises(ValueError, match=r"^blocks do not partition 1\.\.3$"):
            marked(obj, missing, obj, empty)
        with pytest.raises(ValueError, match="^block 2 overlaps an earlier block$"):
            marked(obj, three, obj, overlapping)
        with pytest.raises(ValueError, match="^block count mismatch: 3 vs 1$"):
            marked(obj, three, obj, MarkedPartition((frozenset({1, 2, 3}),)))

    def test_dimension_mismatch(self, surface_chain, three_chain_mixed):
        p = MarkedPartition.singletons(2)
        q = MarkedPartition.singletons(3)
        with pytest.raises(ValueError):
            marked_forest_equivalent(surface_chain, p, three_chain_mixed, q)

    def test_tensor_dimension_mismatch(self):
        p = MarkedPartition.singletons(1)
        t2, t3 = IntersectionTensor(2, 1, {(1, 1): -1}), IntersectionTensor(3, 1, {(1, 1, 1): 1})
        with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 3$"):
            marked_tensor_equivalent(t2, p, t3, p)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), shuffle_seed=st.integers(0, 10**6))
    def test_relabelled_marked_forests_stay_equivalent(self, seed, shuffle_seed):
        forest = random_forest(seed, 2, 5, 2)
        rng = random.Random(shuffle_seed)
        partition = random_partition(5, rng)
        shuffled, perm = random_relabel(forest, rng)
        moved = MarkedPartition(
            tuple(frozenset(perm[i - 1] for i in block) for block in partition.blocks)
        )
        assert marked_forest_equivalent(forest, partition, shuffled, moved) is not None


def count_checks(monkeypatch) -> list[int]:
    """Record the size of every ``MarkedPartition.check`` call."""
    check = MarkedPartition.check
    calls = []

    def counting(self, size):
        calls.append(size)
        return check(self, size)

    monkeypatch.setattr(MarkedPartition, "check", counting)
    return calls


APART = ProximityForest.make(2, (1, []), (1, []))
LOOSE = ProximityForest.make(2, (1, []), (1, []), (2, []))
SPLITS = (MarkedPartition(tuple(map(frozenset, ({1, 2}, {3})))), MarkedPartition(tuple(map(frozenset, ({1}, {2, 3})))))


def on_singletons(marked):
    return lambda a, b: marked(a, MarkedPartition.singletons(len(a)), b, MarkedPartition.singletons(len(b)))


def on_splits(marked):
    return lambda a, b: marked(a, SPLITS[0], b, SPLITS[1])


class TestSearchDecidesAlone:
    @pytest.mark.parametrize(
        "decide, a, b",
        [
            (forest_isomorphic, APART, ProximityForest.make(2, (1, []), (1, []), (1, []))),
            (forest_isomorphic, APART, ProximityForest.make(2, (1, []), (2, []))),
            (tensor_equivalent, IntersectionTensor(2, 1, {(1, 1): -1}), IntersectionTensor(2, 2, {(1, 1): -1})),
            (
                tensor_equivalent,
                IntersectionTensor(2, 2, {(1, 1): -1, (2, 2): -1}),
                IntersectionTensor(2, 2, {(1, 1): -1, (1, 2): 1, (2, 2): -1}),
            ),
            (
                tensor_equivalent,
                IntersectionTensor(2, 2, {(1, 1): -1, (2, 2): -1}),
                IntersectionTensor(2, 2, {(1, 1): -1, (2, 2): -2}),
            ),
            (on_splits(marked_forest_equivalent), LOOSE, LOOSE),
            (on_splits(marked_tensor_equivalent), tensor_from_forest(LOOSE), tensor_from_forest(LOOSE)),
            (on_singletons(marked_forest_equivalent), APART, ProximityForest.make(2, (1, []), (1, [1]))),
        ],
        ids=[
            "forest length",
            "forest degrees",
            "tensor size",
            "tensor entry count",
            "tensor diagonal",
            "block degrees",
            "quotient diagonal",
            "block edges",
        ],
    )
    def test_pairs_an_invariant_tells_apart(self, monkeypatch, decide, a, b):
        """Both searches run and answer ``None``; no labellings of unequal length are ever composed."""
        compose, search = equivalence._compose, equivalence._search
        searched = []

        def same_length(labels1, labels2):
            assert len(labels1) == len(labels2)
            return compose(labels1, labels2)

        def counting(struct):
            searched.append(struct.n)
            return search(struct)

        monkeypatch.setattr(equivalence, "_compose", same_length)
        monkeypatch.setattr(equivalence, "_search", counting)
        assert decide(a, b) is None
        assert decide(b, a) is None
        assert len(searched) == 4


class TestCompatibility:
    def test_interchangeable_points(self):
        forest = ProximityForest.make(2, (1, []), (1, []))
        merged = MarkedPartition((frozenset({1, 2}),))
        assert partition_compatible_sequence(forest, merged)
        assert partition_compatible_morphism(tensor_from_forest(forest), merged)

    def test_rigid_chain_rejects_merging(self, three_chain_mixed):
        partition = MarkedPartition((frozenset({1}), frozenset({2, 3})))
        assert not partition_compatible_sequence(three_chain_mixed, partition)
        assert not partition_compatible_morphism(
            tensor_from_forest(three_chain_mixed), partition
        )

    def test_singletons_always_compatible(self, three_chain_mixed):
        p = MarkedPartition.singletons(3)
        assert partition_compatible_sequence(three_chain_mixed, p)
        assert partition_compatible_morphism(tensor_from_forest(three_chain_mixed), p)

    def test_size_check(self, three_chain_mixed):
        with pytest.raises(ValueError):
            partition_compatible_sequence(three_chain_mixed, MarkedPartition.singletons(2))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), pick=st.integers(0, 10**6))
    def test_partitions_inside_orbits_are_compatible(self, seed, pick):
        forest = random_forest(seed, 2, 6, 2)
        orbits = automorphism_orbits(forest)
        partition = random_partition_inside(orbits, random.Random(pick))
        assert partition_compatible_sequence(forest, partition)


def corpus_forests():
    """Random forests (d 2–4, m 0–8), stars, brooms, and k ≤ 5 disjoint 2-chains and 3-stars."""
    for dimension in (2, 3, 4):
        for size in range(9):
            for seed in range(4):
                yield random_forest(1000 * dimension + 10 * size + seed, dimension, size, 2)
    for leaves in (1, 2, 5, 12):
        yield star(leaves)
        yield broom(leaves)
    chain = ProximityForest.make(2, (1, []), (1, [1]))
    three_star = ProximityForest.make(3, (1, []), (1, [1]), (1, [1]), (2, [1]))
    for k in range(1, 6):
        yield disjoint_copies(chain, k)
        yield disjoint_copies(three_star, k)


def corpus_records():
    """Canonical forms, orbits and witnesses over the corpus, on relabelled copies and random partitions."""
    for index, forest in enumerate(corpus_forests()):
        rng = random.Random(index)
        m = len(forest)
        tensor = tensor_from_forest(forest)
        shuffled, perm = random_relabel(forest, rng)
        moved = apply_permutation(tensor, perm)
        perturbed = perturb(tensor, rng.choice(["entry", "negate", "isolated", "diagonal"]), rng)
        shift = list(range(1, perturbed.size + 1))
        rng.shuffle(shift)
        for obj in (forest, tensor, perturbed):
            form = canonical_form(obj)
            yield [form.relabeling, form.hash, automorphism_orbits(obj)]
        yield [
            forest_isomorphic(forest, shuffled),
            tensor_equivalent(tensor, moved),
            tensor_equivalent(perturbed, apply_permutation(perturbed, tuple(shift))),
        ]
        if m:
            partition = random_partition(m, rng)
            blocks = [frozenset(perm[i - 1] for i in block) for block in partition.blocks]
            rng.shuffle(blocks)
            image = MarkedPartition(tuple(blocks))
            yield [
                marked_forest_equivalent(forest, partition, shuffled, image),
                marked_tensor_equivalent(tensor, partition, moved, image),
                partition_compatible_sequence(forest, partition),
                partition_compatible_morphism(tensor, partition),
            ]


# SHA-256 of ``corpus_records`` (618 records), one JSON line per record.
CORPUS_DIGEST = "3683e47033a8ee17f84971cc96601dfca7c534e7798811fce1eefc28264a2529"


class TestCorpusDigest:
    def test_corpus_digest(self):
        """Labellings, hashes, orbits and witnesses are a stable output; a change to one must be deliberate."""
        digest = hashlib.sha256()
        for record in corpus_records():
            digest.update(json.dumps(record).encode() + b"\n")
        assert digest.hexdigest() == CORPUS_DIGEST
