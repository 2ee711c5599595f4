from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import blowups.tensor
from blowups import (
    IntersectionTensor,
    MarkedPartition,
    ProximityForest,
    SearchLimitError,
    diagonal,
    evaluate,
    quotient_tensor,
    random_forest,
    tensor_from_forest,
    total_transform_matrix,
)
from _oracles import oracle_evaluate, oracle_surface_intersection, oracle_tensor, perturb, random_partition


class TestTotalTransformMatrix:
    def test_empty(self):
        assert total_transform_matrix(ProximityForest(2)).rows == ()

    def test_single_point(self):
        matrix = total_transform_matrix(ProximityForest.make(3, (2, [])))
        assert matrix.rows == ((1,),)

    def test_chain(self, three_chain_mixed):
        matrix = total_transform_matrix(three_chain_mixed)
        assert matrix.rows == ((1, -1, 0), (0, 1, -1), (0, 0, 1))

    def test_inverse_of_chain(self, surface_chain):
        assert total_transform_matrix(surface_chain).inverse() == ((1, 1), (0, 1))

    @given(seed=st.integers(0, 10**6))
    def test_inverse_is_inverse(self, seed):
        forest = random_forest(seed, 3, 7, 2)
        matrix = total_transform_matrix(forest)
        inv = matrix.inverse()
        m = len(forest)
        for i in range(m):
            for j in range(m):
                product = sum(matrix.rows[i][k] * inv[k][j] for k in range(m))
                assert product == (1 if i == j else 0)


class TestTensorFromForest:
    def test_empty(self):
        tensor = tensor_from_forest(ProximityForest(3))
        assert tensor.size == 0 and tensor.entries == {}

    def test_single_point_any_dimension(self):
        for d in (2, 3, 4, 5):
            tensor = tensor_from_forest(ProximityForest.make(d, (7, [])))
            sign = 1 if d % 2 else -1
            assert tensor.entries == {(1,) * d: sign * 7}

    def test_rejects_a_target_outside_the_forest(self):
        """The checking constructor is the only guard against a proximity target beyond the last point."""
        with pytest.raises(ValueError, match=r"^index \(1, 5\) out of range 1\.\.1$"):
            tensor_from_forest(ProximityForest.make(2, (1, [5])))

    @pytest.mark.parametrize(
        "forest, message",
        [
            (ProximityForest.make(2, (1, []), (1, [0])), r"^index \(0, 0\) out of range 1\.\.2$"),
            (ProximityForest.make(0, (1, [])), r"^dimension must be >= 1, got 0$"),
        ],
    )
    def test_defects_are_named_by_the_checking_constructor(self, forest, message):
        with pytest.raises(ValueError, match=message):
            tensor_from_forest(forest)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**6), dimension=st.integers(2, 4), size=st.integers(0, 5))
    def test_trusted_entries_pass_the_checking_constructor(self, seed, dimension, size):
        # Built without the constructor's checks, the entries must be what the checks would leave.
        forest = random_forest(seed, dimension, size, 3)
        tensor = tensor_from_forest(forest)
        checked = IntersectionTensor(dimension, size, dict(tensor.entries))
        assert list(tensor.entries.items()) == list(checked.entries.items())
        assert tensor.entries == oracle_tensor(forest).entries

    def test_disjoint_points_have_no_mixed_entries(self):
        tensor = tensor_from_forest(ProximityForest.make(3, (1, []), (2, [])))
        assert tensor.entries == {(1, 1, 1): 1, (2, 2, 2): 2}

    def test_surface_chain_matrix(self, surface_chain):
        tensor = tensor_from_forest(surface_chain)
        assert diagonal(tensor) == [-2, -1]
        assert tensor.value((1, 2)) == 1

    def test_mixed_chain_all_entries(self, three_chain_mixed):
        tensor = tensor_from_forest(three_chain_mixed)
        assert diagonal(tensor) == [-2, -4, -3]
        # mixed powers of 1 and 2 alternate with the exponent of 1
        for r in range(1, 4):
            s = 4 - r
            assert tensor.value((1,) * r + (2,) * s) == (-1) ** (r + 1)
        # mixed powers of 2 and 3 carry the degree of point 3
        for r in range(1, 4):
            s = 4 - r
            assert tensor.value((2,) * r + (3,) * s) == (-1) ** r * -3
        # components 1 and 3 never interact
        for key in itertools.combinations_with_replacement((1, 3), 4):
            if len(set(key)) == 2:
                assert tensor.value(key) == 0
        assert all(tensor.value(k) == 0 for k in [(1, 1, 2, 3), (1, 2, 2, 3), (1, 2, 3, 3)])

    def test_mixed_chain_prime_all_entries(self, three_chain_mixed_prime):
        tensor = tensor_from_forest(three_chain_mixed_prime)
        assert diagonal(tensor) == [-3, -4, -2]
        for r in range(1, 4):
            s = 4 - r
            assert tensor.value((1,) * r + (2,) * s) == (-1) ** (r + 1) * 2
            assert tensor.value((2,) * r + (3,) * s) == (-1) ** r * -2

    def test_same_diagonal_multiset_different_tensors(
        self, three_chain_mixed, three_chain_mixed_prime
    ):
        t1 = tensor_from_forest(three_chain_mixed)
        t2 = tensor_from_forest(three_chain_mixed_prime)
        assert sorted(diagonal(t1)) == sorted(diagonal(t2))
        assert t1.entries != t2.entries

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        dimension=st.integers(2, 3),
        size=st.integers(0, 4),
    )
    def test_matches_brute_force_oracle(self, seed, dimension, size):
        forest = random_forest(seed, dimension, size, 3)
        assert tensor_from_forest(forest).entries == oracle_tensor(forest).entries

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_surface_entries_count_adjacencies(self, seed):
        forest = random_forest(seed, 2, 6, 3)
        tensor = tensor_from_forest(forest)
        for i, j in itertools.combinations(range(1, 7), 2):
            assert tensor.value((i, j)) == oracle_surface_intersection(forest, i, j)


def nested_chain(dimension, size):
    """Each point proximate to every earlier one, so point ``k`` has a support of ``k`` components."""
    return ProximityForest.make(dimension, *[(1, list(range(1, k))) for k in range(1, size + 1)])


class TestOutputBound:
    """``tensor_from_forest`` estimates its index elements from the supports and refuses beyond ``OUTPUT_LIMIT``."""

    def test_bound_is_inclusive(self, monkeypatch):
        forest = nested_chain(3, 2)  # 3 * (C(3, 3) + C(4, 3)) = 15 index elements
        monkeypatch.setattr(blowups.tensor, "OUTPUT_LIMIT", 15)
        assert tensor_from_forest(forest) == oracle_tensor(forest)
        monkeypatch.setattr(blowups.tensor, "OUTPUT_LIMIT", 14)
        with pytest.raises(SearchLimitError, match=r"^the tensor would hold about 15 index elements, over the bound 14$"):
            tensor_from_forest(forest)

    @pytest.mark.parametrize(
        "forest, estimate",
        [
            (ProximityForest.make(2**62, (1, [])), 2**62),
            (nested_chain(30, 31), 30 * sum(math.comb(k + 29, 30) for k in range(1, 32))),
            (nested_chain(30, 6), 11_309_760),
        ],
        ids=["d 2**62", "d 30 m 31", "d 30 m 6"],
    )
    def test_refuses_before_building(self, forest, estimate):
        with pytest.raises(SearchLimitError, match=f"about {estimate} index elements"):
            tensor_from_forest(forest)

    def test_largest_measured_shape_is_well_inside(self):
        """At d 4, m 400 a point has at most four targets, a support of five."""
        widest = 4 * sum(math.comb(min(k, 5) + 3, 4) for k in range(1, 401))
        assert widest == 111_104 and 10 * widest <= blowups.tensor.OUTPUT_LIMIT
        assert tensor_from_forest(random_forest(0, 4, 400, 3)).size == 400


class TestTensorType:
    def test_keys_normalized_and_zeros_dropped(self):
        tensor = IntersectionTensor(2, 2, {(2, 1): 5, (1, 1): 0})
        assert tensor.entries == {(1, 2): 5}
        assert tensor.value((2, 1)) == 5

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            IntersectionTensor(3, 2, {(1, 2): 1})

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            IntersectionTensor(2, 2, {(1, 3): 1})

    def test_rejects_keys_naming_one_multiset(self):
        # whatever the values, a zero included: the later key must not silently win
        for value in (3, 0):
            with pytest.raises(ValueError, match="multiset"):
                IntersectionTensor(2, 2, {(1, 2): 5, (2, 1): value})
        with pytest.raises(ValueError, match="multiset"):
            IntersectionTensor(3, 2, {(2, 1, 1): 0, (1, 2, 1): 4})

    def test_rejects_dimension_below_one(self):
        for dimension, entries in ((0, {(): -1}), (-1, {})):
            with pytest.raises(ValueError, match="dimension"):
                IntersectionTensor(dimension, 1, entries)


class TestEvaluate:
    def test_basis_vectors_read_entries(self, three_chain_mixed):
        tensor = tensor_from_forest(three_chain_mixed)
        e = lambda i: [1 if k == i else 0 for k in range(1, 4)]
        assert evaluate(tensor, [e(1)] * 4) == -2
        assert evaluate(tensor, [e(2), e(3), e(3), e(3)]) == 3

    def test_merged_vector(self, three_chain_mixed):
        tensor = tensor_from_forest(three_chain_mixed)
        v = [0, 1, 1]
        assert evaluate(tensor, [v, v, v, v]) == -1

    def test_zero_vector_short_circuits(self, surface_chain):
        tensor = tensor_from_forest(surface_chain)
        assert evaluate(tensor, [[0, 0], [1, 1]]) == 0

    def test_wrong_arity(self, surface_chain):
        tensor = tensor_from_forest(surface_chain)
        with pytest.raises(ValueError):
            evaluate(tensor, [[1, 0]])
        with pytest.raises(ValueError):
            evaluate(tensor, [[1], [1]])

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        data=st.data(),
    )
    def test_slot_symmetry(self, seed, data):
        forest = random_forest(seed, 3, 5, 2)
        tensor = tensor_from_forest(forest)
        vectors = [
            data.draw(st.lists(st.integers(-3, 3), min_size=5, max_size=5))
            for _ in range(3)
        ]
        reference = evaluate(tensor, vectors)
        shuffled = data.draw(st.permutations(vectors))
        assert evaluate(tensor, shuffled) == reference

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), dimension=st.integers(2, 4))
    def test_total_transform_normalization(self, seed, dimension):
        forest = random_forest(seed, dimension, 6, 3)
        tensor = tensor_from_forest(forest)
        expansion = total_transform_matrix(forest).inverse()
        d = forest.dimension
        sign = 1 if d % 2 else -1
        for i in range(1, 7):
            assert evaluate(tensor, [list(expansion[i - 1])] * d) == sign * forest.degree(i)
        for i, j in itertools.combinations(range(1, 7), 2):
            for s in range(1, d):
                vectors = [list(expansion[i - 1])] * s + [list(expansion[j - 1])] * (d - s)
                assert evaluate(tensor, vectors) == 0


    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_the_product_of_supports(self, data):
        # Sparse tensors and wide supports take the sum over stored keys, the rest the product of supports.
        d, m = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 6))
        key = st.lists(st.integers(1, m), min_size=d, max_size=d).map(lambda k: tuple(sorted(k)))
        tensor = IntersectionTensor(d, m, data.draw(st.dictionaries(key, st.integers(-3, 3), max_size=8)))
        vector = st.lists(st.integers(-2, 2), min_size=m, max_size=m)
        vectors = data.draw(st.lists(vector, min_size=d, max_size=d))
        assert evaluate(tensor, vectors) == oracle_evaluate(tensor, vectors)

    def test_wide_supports_sum_over_stored_keys(self, monkeypatch):
        # 30 * 30 * 20 product terms against a few hundred stored keys.
        tensor = tensor_from_forest(random_forest(3, 3, 30, 3))
        vectors = [[1] * 30, [1, -2] * 15, [3, 0, 1] * 10]
        keys = []
        arranged = blowups.tensor._arranged

        def counting(key, coords):
            keys.append(key)
            return arranged(key, coords)

        monkeypatch.setattr(blowups.tensor, "_arranged", counting)
        assert evaluate(tensor, vectors) == oracle_evaluate(tensor, vectors)
        assert 0 < len(keys) <= len(tensor.entries)


class TestQuotient:
    def test_singletons_are_identity(self, three_chain_mixed):
        tensor = tensor_from_forest(three_chain_mixed)
        quotient = quotient_tensor(tensor, MarkedPartition.singletons(3))
        assert quotient.entries == tensor.entries

    def test_full_merge(self, three_chain_mixed):
        tensor = tensor_from_forest(three_chain_mixed)
        quotient = quotient_tensor(tensor, MarkedPartition((frozenset({1, 2, 3}),)))
        assert quotient.entries == {(1, 1, 1, 1): -1}

    def test_two_blocks(self, three_chain_mixed):
        tensor = tensor_from_forest(three_chain_mixed)
        partition = MarkedPartition((frozenset({1}), frozenset({2, 3})))
        quotient = quotient_tensor(tensor, partition)
        assert quotient.entries == {
            (1, 1, 1, 1): -2,
            (1, 1, 1, 2): 1,
            (1, 1, 2, 2): -1,
            (1, 2, 2, 2): 1,
            (2, 2, 2, 2): -1,
        }

    def test_size_mismatch(self, three_chain_mixed):
        tensor = tensor_from_forest(three_chain_mixed)
        with pytest.raises(ValueError):
            quotient_tensor(tensor, MarkedPartition.singletons(2))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), dimension=st.integers(2, 3))
    def test_singleton_identity_random(self, seed, dimension):
        forest = random_forest(seed, dimension, 5, 2)
        tensor = tensor_from_forest(forest)
        quotient = quotient_tensor(tensor, MarkedPartition.singletons(5))
        assert quotient.entries == tensor.entries

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), dimension=st.integers(2, 4), size=st.integers(2, 6))
    def test_matches_block_sum_definition(self, seed, dimension, size):
        tensor = tensor_from_forest(random_forest(seed, dimension, size, 3))
        partition = random_partition(size, random.Random(seed))
        assume(len(partition) < size)
        blocks = [sorted(block) for block in partition.blocks]
        expected = {}
        for key in itertools.combinations_with_replacement(range(1, len(blocks) + 1), dimension):
            value = sum(tensor.value(k) for k in itertools.product(*(blocks[b - 1] for b in key)))
            if value:
                expected[key] = value
        assert quotient_tensor(tensor, partition).entries == expected

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        dimension=st.integers(2, 4),
        size=st.integers(0, 6),
        how=st.sampled_from(["none", "entry", "negate", "isolated", "diagonal"]),
    )
    def test_entries_pass_the_checking_constructor(self, seed, dimension, size, how):
        """Built without the constructor's checks, the quotient is what the checking constructor builds."""
        rng = random.Random(seed)
        tensor = tensor_from_forest(random_forest(seed, dimension, size, 3))
        if how != "none":
            tensor = perturb(tensor, how, rng)
        quotient = quotient_tensor(tensor, random_partition(tensor.size, rng))
        checked = IntersectionTensor(quotient.dimension, quotient.size, dict(quotient.entries))
        assert quotient == checked
        assert list(quotient.entries.items()) == list(checked.entries.items())

    def test_cancelled_sum_is_dropped(self):
        """T(1,1) = T(2,2) = -1 and T(1,2) = 1 sum to 0 on one block, which then has no entry."""
        tensor = IntersectionTensor(2, 2, {(1, 1): -1, (2, 2): -1, (1, 2): 1})
        quotient = quotient_tensor(tensor, MarkedPartition((frozenset({1, 2}),)))
        assert quotient == IntersectionTensor(2, 1, {}) and quotient.entries == {}


class TestDiagonal:
    def test_empty(self):
        assert diagonal(tensor_from_forest(ProximityForest(2))) == []

    def test_values(self, three_chain_mixed_prime):
        assert diagonal(tensor_from_forest(three_chain_mixed_prime)) == [-3, -4, -2]

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        dimension=st.integers(1, 4),
        size=st.integers(0, 7),
        how=st.sampled_from([None, "entry", "negate", "isolated", "diagonal"]),
    )
    def test_reads_each_pure_power(self, seed, dimension, size, how):
        rng = random.Random(seed)
        if dimension == 1:
            tensor = IntersectionTensor(1, size, {(i,): rng.randint(-2, 2) for i in range(1, size + 1)})
        else:
            tensor = tensor_from_forest(random_forest(seed, dimension, size, 3))
        if how is not None:
            tensor = perturb(tensor, how, rng)
        assert diagonal(tensor) == [tensor.value((i,) * tensor.dimension) for i in range(1, tensor.size + 1)]

    def test_builds_no_key_of_the_dimension(self):
        assert diagonal(IntersectionTensor(2**62, 1, {})) == [0]
