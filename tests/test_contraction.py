from __future__ import annotations

import itertools
import math
import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import blowups.contraction
from blowups import (
    ContractionStep,
    ContractionTrace,
    IntersectionTensor,
    NotContractibleError,
    ProximityForest,
    SearchLimitError,
    contract,
    empty_intersection,
    final_set,
    is_final,
    random_forest,
    recover_all_orders,
    recover_sequence,
    tensor_from_forest,
    validate_forest,
)
from _oracles import (
    apply_permutation,
    brute_force_forest_isomorphic,
    enumerate_forests,
    oracle_contract,
    oracle_disjoint,
    oracle_final,
    oracle_forest,
    perturb,
)


class CountingEntries(dict):
    """An entry dict that counts lookups and entries iterated, swapped into a tensor after construction."""

    reads = 0

    def __iter__(self):
        self.reads += len(self)
        return super().__iter__()

    def items(self):
        self.reads += len(self)
        return super().items()

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.reads += 1
        return super().__contains__(key)


# 3 is final with the one neighbour 2; its key (1, 2, 3) also holds 1, which shares no key with 3 alone.
OUTSIDE_COMPONENT = IntersectionTensor(3, 3, {(1, 1, 1): 3, (2, 2, 3): 2, (2, 3, 3): -2, (3, 3, 3): 2, (1, 2, 3): -3})


def off_premise(dimension: int, defect: str, neighbours: int = 2) -> IntersectionTensor:
    """A blow-up form with one wide key of its final spoiled, so the final stays final but its part is no rank-one term.

    The final ``f = neighbours + 1`` meets ``1 .. neighbours``, of which 2
    is proximate to 1 and the others are points on their own; ``f + 1`` is
    a point on its own.  With more neighbours than ``dimension`` the final
    is a fan no valid forest has, but its form is still a sum of rank-one
    terms.  The key of 1, 2 and ``f`` is doubled (``"value"``), dropped
    (``"missing"``), or moved to a key of 1, ``f`` and ``f + 1``
    (``"outside"``), which keeps the count of keys holding ``f``.
    """
    final = neighbours + 1
    points = [(1, []), (1, [1]), *[(1, [])] * (neighbours - 2), (2, range(1, final)), (1, [])]
    entries = dict(tensor_from_forest(ProximityForest.make(dimension, *points)).entries)
    key = (1, 2) + (final,) * (dimension - 2)
    if defect == "value":
        entries[key] *= 2
    elif defect == "missing":
        del entries[key]
    else:
        entries[(1,) + (final,) * (dimension - 2) + (final + 1,)] = entries.pop(key)
    return IntersectionTensor(dimension, final + 1, entries)


# Point 4 is proximate to 3 points at d 2: its form is a sum of rank-one terms, but its final 4 meets 3 components.
WIDE_FINAL = tensor_from_forest(ProximityForest.make(2, (1, []), (1, []), (1, []), (1, [1, 2, 3])))

DEFECTS = ("value", "missing", "outside")
OFF_PREMISE = [(d, defect) for d in (3, 4) for defect in DEFECTS]
# Fans: a final with 8, 6 or 5 neighbours.  At d 2 every key of a final is narrow, so finality implies the premise.
FANS = [(d, defect, n) for d, n in ((3, 8), (4, 6), (5, 5)) for defect in DEFECTS]


class TestEmptyIntersection:
    def test_chain_neighbours_meet(self, three_chain_mixed):
        tensor = tensor_from_forest(three_chain_mixed)
        assert not empty_intersection(tensor, 1, 2)
        assert not empty_intersection(tensor, 2, 3)
        assert empty_intersection(tensor, 1, 3)

    def test_symmetric(self, three_chain_mixed):
        tensor = tensor_from_forest(three_chain_mixed)
        for i, j in itertools.combinations(range(1, 4), 2):
            assert empty_intersection(tensor, i, j) == empty_intersection(tensor, j, i)

    def test_rejects_equal_indices(self, surface_chain):
        tensor = tensor_from_forest(surface_chain)
        with pytest.raises(ValueError):
            empty_intersection(tensor, 1, 1)

    def test_not_decided_by_sparsity_pattern(self):
        # all mixed entries vanish even though the keys could be populated
        tensor = IntersectionTensor(2, 2, {(1, 1): -1, (2, 2): -1})
        assert empty_intersection(tensor, 1, 2)


class TestFinality:
    def test_chain_final_is_last_point(self, three_chain_mixed):
        tensor = tensor_from_forest(three_chain_mixed)
        assert final_set(tensor) == {3}

    def test_final_shifts_after_contraction(self, three_chain_mixed):
        tensor = tensor_from_forest(three_chain_mixed)
        smaller, _ = contract(tensor, 3)
        assert final_set(smaller) == {2}

    def test_surface_chain(self, surface_chain):
        tensor = tensor_from_forest(surface_chain)
        assert final_set(tensor) == {2}
        assert not is_final(tensor, 1)

    def test_disjoint_points_all_final(self):
        forest = ProximityForest.make(3, (1, []), (2, []), (5, []))
        assert final_set(tensor_from_forest(forest)) == {1, 2, 3}

    def test_isolated_wrong_sign_is_not_final(self):
        tensor = IntersectionTensor(2, 1, {(1, 1): 1})
        assert final_set(tensor) == frozenset()

    def test_isolated_zero_is_not_final(self):
        tensor = IntersectionTensor(2, 1, {})
        assert final_set(tensor) == frozenset()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        dimension=st.integers(2, 4),
        size=st.integers(1, 6),
    )
    def test_points_with_nothing_proximate_are_final(self, seed, dimension, size):
        forest = random_forest(seed, dimension, size, 3)
        tensor = tensor_from_forest(forest)
        childless = {
            i for i in range(1, size + 1)
            if all(i not in forest.targets(k) for k in range(1, size + 1))
        }
        assert final_set(tensor) == childless

    def test_final_set_reads_one_entry_per_empty_component(self):
        # A vanishing pure power is never final, so no neighbour needs reading.
        tensor = IntersectionTensor(2, 2000, {})
        reading = CountingEntries(tensor.entries)
        object.__setattr__(tensor, "entries", reading)
        assert final_set(tensor) == frozenset()
        assert reading.reads <= tensor.size

    def test_final_set_reads_linear_entries_on_isolated_wrong_sign(self):
        # No two components share a stored key, so no component reads another's mixed products.
        size = 2000
        tensor = IntersectionTensor(2, size, {(i, i): 1 for i in range(1, size + 1)})
        reading = CountingEntries(tensor.entries)
        object.__setattr__(tensor, "entries", reading)
        assert final_set(tensor) == frozenset()
        assert reading.reads <= 2 * size

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        dimension=st.integers(2, 4),
        size=st.integers(0, 6),
        how=st.sampled_from(["entry", "negate", "isolated", "diagonal"]),
    )
    def test_matches_definition_off_blow_up_forms(self, seed, dimension, size, how):
        rng = random.Random(seed)
        tensor = perturb(tensor_from_forest(random_forest(seed, dimension, size, 3)), how, rng)
        m = tensor.size
        expected = {i: oracle_final(tensor, i) for i in range(1, m + 1)}
        assert final_set(tensor) == {i for i, neighbours in expected.items() if neighbours is not None}
        for i, neighbours in expected.items():
            assert is_final(tensor, i) == (neighbours is not None)
            for j in range(1, m + 1):
                if j != i:
                    assert empty_intersection(tensor, i, j) == oracle_disjoint(tensor, i, j)
            if neighbours is None:
                with pytest.raises(ValueError, match=f"component {i} is not final"):
                    contract(tensor, i)
            else:
                assert contract(tensor, i)[1].proximate_to_current == neighbours
        for outside in (0, m + 1):
            with pytest.raises(ValueError, match=f"index {outside} out of range"):
                contract(tensor, outside)


class TestContract:
    def test_surface_chain_to_point(self, surface_chain):
        tensor = tensor_from_forest(surface_chain)
        smaller, step = contract(tensor, 2)
        assert smaller.entries == {(1, 1): -1}
        assert step == ContractionStep(2, 1, (1,))

    def test_rejects_non_final(self, surface_chain):
        tensor = tensor_from_forest(surface_chain)
        with pytest.raises(ValueError):
            contract(tensor, 1)

    def test_undoes_one_blow_up(self, three_chain_mixed):
        shorter = ProximityForest.make(4, (1, []), (1, [1]))
        tensor = tensor_from_forest(three_chain_mixed)
        smaller, step = contract(tensor, 3)
        assert smaller.entries == tensor_from_forest(shorter).entries
        assert step.degree == 3
        assert step.proximate_to_current == (2,)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        dimension=st.integers(2, 4),
        size=st.integers(1, 6),
    )
    def test_matches_tensor_of_truncated_forest(self, seed, dimension, size):
        # contracting the last-created point must agree with never blowing it up
        forest = random_forest(seed, dimension, size, 3)
        tensor = tensor_from_forest(forest)
        assert size in final_set(tensor)
        truncated = ProximityForest(dimension, forest.points[:-1])
        smaller, step = contract(tensor, size)
        assert smaller.entries == tensor_from_forest(truncated).entries
        assert step.degree == forest.degree(size)
        assert set(step.proximate_to_current) >= forest.targets(size)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        dimension=st.integers(2, 4),
        size=st.integers(1, 7),
    )
    def test_matches_dense_oracle_at_every_final(self, seed, dimension, size):
        # walk one random contraction order, checking every final at every stage
        tensor = tensor_from_forest(random_forest(seed, dimension, size, 3))
        rng = random.Random(seed)
        while tensor.size:
            finals = sorted(final_set(tensor))
            assert finals
            for i in finals:
                smaller, step = contract(tensor, i)
                entries, degree, proximities, _ = oracle_contract(tensor, i)
                assert smaller.size == tensor.size - 1
                assert smaller.entries == entries
                assert (step.contracted, step.degree) == (i, degree)
                assert step.proximate_to_current == proximities
            tensor, _ = contract(tensor, rng.choice(finals))

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        dimension=st.integers(2, 4),
        size=st.integers(0, 6),
        how=st.sampled_from(["entry", "negate", "isolated", "diagonal"]),
    )
    def test_matches_dense_oracle_off_blow_up_forms(self, seed, dimension, size, how):
        # pull-back sums may cancel here, and finals may meet components a blow-up form would not
        rng = random.Random(seed)
        tensor = perturb(tensor_from_forest(random_forest(seed, dimension, size, 3)), how, rng)
        while finals := sorted(final_set(tensor)):
            for i in finals:
                smaller, step = contract(tensor, i)
                entries, degree, proximities, _ = oracle_contract(tensor, i)
                assert smaller.entries == entries
                assert (step.degree, step.proximate_to_current) == (degree, proximities)
            tensor, _ = contract(tensor, rng.choice(finals))

    def test_a_component_outside_the_neighbours_is_carried_along(self):
        # (1, 2, 3) spreads over 3's one neighbour 2 as (1, 2, 2), with weight C(2, 1); 1 keeps its place.
        smaller, step = contract(OUTSIDE_COMPONENT, 3)
        entries, degree, proximities, _ = oracle_contract(OUTSIDE_COMPONENT, 3)
        assert (step.degree, step.proximate_to_current) == (degree, proximities) == (2, (2,))
        assert smaller.entries == entries
        assert smaller.entries[(1, 2, 2)] == -6

    @pytest.mark.parametrize(
        "dimension, defect, neighbours",
        [(d, defect, 2) for d, defect in OFF_PREMISE] + FANS,
        ids=[f"{d}-{defect}" for d, defect in OFF_PREMISE] + [f"{d}-{defect}-fan{n}" for d, defect, n in FANS],
    )
    def test_matches_dense_oracle_where_the_rank_one_premise_fails(self, dimension, defect, neighbours):
        # The rank-one blow-down would write -(-1)^d T(f^d) at each multiset of neighbours alone, which is wrong here.
        tensor, final, met = off_premise(dimension, defect, neighbours), neighbours + 1, tuple(range(1, neighbours + 1))
        assert final in final_set(tensor)
        smaller, step = contract(tensor, final)
        entries, degree, proximities, _ = oracle_contract(tensor, final)
        assert (step.degree, step.proximate_to_current) == (degree, proximities) == (2, met)
        assert smaller.entries == entries
        rank_one = {key: value for key, value in tensor.entries.items() if final not in key}
        for key in itertools.combinations_with_replacement(met, dimension):
            rank_one[key] = rank_one.get(key, 0) - (-1) ** dimension * tensor.entries[(final,) * dimension]
        assert smaller.entries != {key: value for key, value in rank_one.items() if value}

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        dimension=st.integers(2, 4),
        size=st.integers(0, 6),
        how=st.sampled_from(["none", "entry", "negate", "isolated", "diagonal"]),
    )
    def test_result_is_a_normalized_tensor(self, seed, dimension, size, how):
        # contract skips the public constructor's checks; its result must pass them unchanged
        rng = random.Random(seed)
        tensor = tensor_from_forest(random_forest(seed, dimension, size, 3))
        if how != "none":
            tensor = perturb(tensor, how, rng)
        for i in sorted(final_set(tensor)):
            smaller, _ = contract(tensor, i)
            assert smaller == IntersectionTensor(smaller.dimension, tensor.size - 1, dict(smaller.entries))


class TestRecoverSequence:
    def test_identity_on_chain(self, three_chain_mixed):
        forest, trace = recover_sequence(tensor_from_forest(three_chain_mixed))
        assert forest == three_chain_mixed
        assert trace.original_order() == (3, 2, 1)
        assert trace.creation_indices() == {1: 1, 2: 2, 3: 3}

    def test_empty(self):
        forest, trace = recover_sequence(IntersectionTensor(3, 0, {}))
        assert len(forest) == 0 and forest.dimension == 3
        assert trace.steps == ()

    def test_trace_index_maps(self, three_chain_mixed):
        _, trace = recover_sequence(tensor_from_forest(three_chain_mixed))
        assert trace.index_maps == ((1, 2), (1,), ())

    def test_not_contractible(self):
        with pytest.raises(NotContractibleError):
            recover_sequence(IntersectionTensor(2, 1, {(1, 1): 1}))

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        dimension=st.integers(2, 4),
        size=st.integers(0, 7),
    )
    def test_round_trip(self, seed, dimension, size):
        original = random_forest(seed, dimension, size, 3)
        tensor = tensor_from_forest(original)
        recovered, trace = recover_sequence(tensor)
        creation = trace.creation_indices()
        perm = tuple(creation[i] for i in range(1, size + 1))
        assert apply_permutation(tensor, perm).entries == tensor_from_forest(recovered).entries
        assert brute_force_forest_isomorphic(original, recovered) is not None


class TestRecoverAllOrders:
    def test_single_order_for_chain(self, three_chain_mixed):
        results = recover_all_orders(tensor_from_forest(three_chain_mixed))
        assert len(results) == 1
        assert results[0][0] == three_chain_mixed

    def test_disjoint_points_give_factorial_orders(self):
        forest = ProximityForest.make(2, (1, []), (1, []), (1, []))
        results = recover_all_orders(tensor_from_forest(forest))
        assert len(results) == 6
        orders = {trace.original_order() for _, trace in results}
        assert orders == set(itertools.permutations((1, 2, 3)))

    def test_shared_stages_contract_each_edge_once(self, monkeypatch):
        # 6 disjoint points: 720 orders, whose steps take 6 distinct values, contracting label 1 .. 6 with degree 1.
        # Only the first order's descent blows down; the walk then makes each distinct step once.
        tensor = tensor_from_forest(ProximityForest.make(2, *[(1, [])] * 6))
        derived, steps = [], []
        blow_down, init = blowups.contraction._blow_down, ContractionStep.__init__

        def counting_blow_down(d, stage, i):
            derived.append(i)
            return blow_down(d, stage, i)

        def counting_init(self, *args):
            steps.append(args)
            init(self, *args)

        monkeypatch.setattr(blowups.contraction, "_blow_down", counting_blow_down)
        monkeypatch.setattr(ContractionStep, "__init__", counting_init)
        results = recover_all_orders(tensor)
        assert len(derived) == 5  # the descent's steps but the last, which blows nothing down
        assert len(steps) == 6
        assert [trace.original_order() for _, trace in results] == list(itertools.permutations(range(1, 7)))
        assert results[0] == recover_sequence(tensor)

    def test_backtracking_files_a_cancelled_key_again(self):
        # Blowing down 5 first cancels T(3^3) = -1 + 1; back above that step, 3 must hold its pure power again.
        tensor = IntersectionTensor(
            3, 5, {(1, 1, 1): 2, (2, 2, 2): 2, (3, 3, 3): -1, (3, 3, 4): 3, (3, 4, 4): -3, (4, 4, 4): 3,
                   (3, 3, 5): 1, (3, 5, 5): -1, (5, 5, 5): 1},
        )
        assert [trace for _, trace in recover_all_orders(tensor)] == list(chained_orders(tensor))

    @pytest.mark.parametrize(
        "dimension, points, count",
        [
            # 3 meets 1 and 2: its targets complete one or two levels below its step, as the disjoint 4 falls between.
            (3, [(1, []), (1, []), (1, [1, 2]), (1, [])], 8),
            (3, [(1, []), (1, []), (1, []), (1, [1, 3])], 8),
            # 2 meets 1, which a sibling branch contracts a level deeper, after the disjoint 3.
            (2, [(1, []), (2, [1]), (3, [])], 3),
            (3, [(2, []), (1, [1]), (1, [1, 2]), (3, [])], 4),
        ],
    )
    def test_backtracking_completes_each_point_again(self, dimension, points, count):
        tensor = tensor_from_forest(ProximityForest.make(dimension, *points))
        results = recover_all_orders(tensor)
        assert len(results) == count
        for forest, trace in results:
            assert forest == oracle_forest(dimension, trace)
        assert [trace for _, trace in results] == list(chained_orders(tensor))

    def test_limit(self):
        forest = ProximityForest.make(2, (1, []), (1, []))
        with pytest.raises(SearchLimitError):
            recover_all_orders(tensor_from_forest(forest), limit=1)
        with pytest.raises(ValueError):
            recover_all_orders(tensor_from_forest(forest), limit=0)

    def test_not_contractible_propagates(self, surface_chain):
        with pytest.raises(NotContractibleError):
            recover_all_orders(IntersectionTensor(2, 1, {(1, 1): 2}))
        # A chain plus an isolated component of the wrong sign gets stuck only at stage 3.
        stuck = IntersectionTensor(2, 3, {**tensor_from_forest(surface_chain).entries, (3, 3): 1})
        messages = set()
        for recover in (recover_sequence, recover_all_orders):
            with pytest.raises(NotContractibleError) as info:
                recover(stuck)
            messages.add(str(info.value))
        assert messages == {"no final component at stage 3"}

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        dimension=st.integers(2, 3),
        size=st.integers(1, 5),
    )
    def test_all_orders_agree_up_to_isomorphism(self, seed, dimension, size):
        forest = random_forest(seed, dimension, size, 2)
        tensor = tensor_from_forest(forest)
        results = recover_all_orders(tensor, limit=200)
        assert results[0] == recover_sequence(tensor)
        reference = results[0][0]
        for other, _ in results[1:]:
            assert brute_force_forest_isomorphic(reference, other) is not None

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        dimension=st.integers(2, 4),
        size=st.integers(1, 6),
        how=st.sampled_from(["none", "entry", "negate", "isolated", "diagonal"]),
    )
    def test_each_order_matches_its_definition(self, seed, dimension, size, how):
        # exact, not up to isomorphism: the forest follows from the trace
        rng = random.Random(seed)
        tensor = tensor_from_forest(random_forest(seed, dimension, size, 3))
        if how != "none":
            tensor = perturb(tensor, how, rng)
        try:
            results = recover_all_orders(tensor)
        except (NotContractibleError, SearchLimitError):
            return
        for forest, trace in results:
            assert forest == oracle_forest(dimension, trace)


def chained_orders(tensor):
    """Every contraction order by chaining the public ``final_set`` and ``contract``, as the walk lists them.

    A step that meets more than ``d`` components, or a leaf whose forest's
    relabelled form is not ``tensor``, raises :class:`NotContractibleError`,
    so an input that is no form of a valid forest is refused, as recovery
    refuses it, though not always with the same text.
    """
    def walk(stage, steps):
        if not stage.size:
            trace = ContractionTrace(steps)
            if not relabelled_form_is_input(tensor, oracle_forest(tensor.dimension, trace), trace):
                raise NotContractibleError("the form of the recovered forest is not the input")
            yield trace
            return
        finals = sorted(final_set(stage))
        if not finals:
            raise NotContractibleError(f"no final component at stage {len(steps) + 1}")
        for i in finals:
            smaller, step = contract(stage, i)
            if len(step.proximate_to_current) > tensor.dimension:
                raise NotContractibleError(f"step {len(steps) + 1} meets more than {tensor.dimension} components")
            yield from walk(smaller, steps + (step,))

    return walk(tensor, ())


@st.composite
def near_blow_up_tensors(draw, max_dimension=4, min_size=1):
    seed = draw(st.integers(0, 10**6))
    tensor = tensor_from_forest(random_forest(seed, draw(st.integers(2, max_dimension)), draw(st.integers(min_size, 7)), 3))
    how = draw(st.sampled_from(["none", "entry", "negate", "isolated", "diagonal"]))
    return tensor if how == "none" else perturb(tensor, how, random.Random(seed))


LOCAL_STAGES = [
    # Blowing down 2 turns (1, 2, 3) into (1, 1, 3): 3 starts to meet 1 though it never met 2.
    IntersectionTensor(3, 3, {(1, 1, 2): 3, (1, 2, 2): -3, (2, 2, 2): 3, (3, 3, 3): 1, (1, 2, 3): -3}),
    OUTSIDE_COMPONENT,
    *(off_premise(d, defect) for d, defect in OFF_PREMISE),
    # 1 is final with neighbours 2 and 3, but T(1 2 3) = 1 is off the premise: spread move by move,
    # the sums at (2, 2, 3) and (2, 3, 3) cancel, so those keys keep their values.
    IntersectionTensor(
        3, 3, {(1, 1, 1): 2, (1, 1, 2): -2, (1, 1, 3): -2, (1, 2, 2): 2, (1, 2, 3): 1, (1, 3, 3): 2,
               (2, 2, 2): 3, (2, 2, 3): 2, (2, 3, 3): -1, (3, 3, 3): 1},
    ),
    # Three points on their own and a key of all three: every blow-down fits the premise, and the key is left at the end.
    *(IntersectionTensor(d, 3, {**{(a,) * d: (-1) ** (d - 1) for a in (1, 2, 3)}, (1, 2) + (3,) * (d - 2): 5})
      for d in (3, 4, 5)),
]


def local_stage_examples(test):
    """Run ``test`` on each of ``LOCAL_STAGES`` besides what it draws."""
    for tensor in LOCAL_STAGES:
        test = example(tensor=tensor)(test)
    return test


class TestLocalStages:
    """The walk keeps each stage in original labels and re-decides only what a blow-down touches."""

    @settings(max_examples=150, deadline=None)
    @given(tensor=near_blow_up_tensors())
    @local_stage_examples
    def test_walk_matches_chained_public_steps(self, tensor):
        # The walk refuses at the first blow-down off the rank-one premise, the oracle at a stuck stage or a leaf.
        try:
            walked = [trace for _, trace in recover_all_orders(tensor, limit=200)]
        except NotContractibleError:
            walked = NotContractibleError
        except SearchLimitError as exc:
            walked = str(exc)
        try:
            chained = list(itertools.islice(chained_orders(tensor), 201))
        except NotContractibleError:
            chained = NotContractibleError
        assert walked == ("more than 200 contraction orders" if isinstance(chained, list) and len(chained) > 200 else chained)

    @settings(max_examples=150, deadline=None)
    @given(tensor=near_blow_up_tensors())
    @local_stage_examples
    def test_descent_matches_chained_public_steps(self, tensor):
        # recover_sequence answers the walk's first order: it must meet the first chained order, or refuse where it refuses.
        try:
            first = next(chained_orders(tensor))
        except NotContractibleError:
            first = NotContractibleError
        try:
            forest, trace = recover_sequence(tensor)
        except NotContractibleError:
            assert first is NotContractibleError
        else:
            assert trace == first
            assert forest == oracle_forest(tensor.dimension, trace)

    @pytest.mark.parametrize(
        "forest",
        [
            ProximityForest.make(2, *[(1, [])] * 64),
            ProximityForest.make(2, (1, []), *[(1, [k]) for k in range(1, 64)]),
            ProximityForest.make(3, (1, []), *[(1, [1])] * 64),
        ],
        ids=["64-disjoint", "64-chain", "64-leaf-star"],
    )
    def test_finality_is_decided_next_to_each_blow_down(self, forest, monkeypatch):
        # Every component once at the root, then only those sharing a stored key with the contracted one.
        tensor = tensor_from_forest(forest)
        calls = []
        final_neighbours = blowups.contraction._final_neighbours

        def counting(*args):
            calls.append(args[-1])
            return final_neighbours(*args)

        monkeypatch.setattr(blowups.contraction, "_final_neighbours", counting)
        recovered, _ = recover_sequence(tensor)
        assert len(recovered) == len(forest)
        assert len(calls) <= 2 * len(forest)

    @pytest.mark.parametrize("recover", [recover_sequence, recover_all_orders])
    def test_root_finality_reads_only_stored_components(self, recover, monkeypatch):
        # Components 2..size are in no stored key, so none is ever final: the tensor is refused before any finality test.
        tensor = IntersectionTensor(2, 100_000, {(1, 1): -1})
        calls = []
        final_neighbours = blowups.contraction._final_neighbours

        def counting(*args):
            calls.append(args[-1])
            return final_neighbours(*args)

        monkeypatch.setattr(blowups.contraction, "_final_neighbours", counting)
        with pytest.raises(NotContractibleError, match="component 2 has no pure power and meets no other component"):
            recover(tensor)
        assert calls == []

    def test_fan_out_blow_down_reads_its_written_keys_once(self, monkeypatch):
        # A final that meets d components writes each of its C(2d - 1, d) keys once; one that meets more writes none.
        blow_downs, stages = count_blow_downs(monkeypatch)
        k = 40
        wide = IntersectionTensor(2, k + 1, {(1, 1): -1, **{(1, j): 1 for j in range(2, k + 2)}})
        fan = tensor_from_forest(ProximityForest.make(4, *[(1, [])] * 4, (1, [1, 2, 3, 4])))
        for recover in (recover_sequence, recover_all_orders):
            blow_downs.clear()
            stages.clear()
            with pytest.raises(NotContractibleError, match=f"final component 1 meets {k} components, at most 2 allowed"):
                recover(wide)
            assert blow_downs == []
            assert [(entries.written, entries.popped) for entries in stages] == [([], 0)]
            recover(fan)
            d, n, written, popped = blow_downs[0]
            assert (d, n, len(written), len(set(written)), popped) == (4, 4, 35, 35, 35)

    def test_a_blow_up_form_moves_no_key(self, monkeypatch):
        # Each blow-down subtracts the final's rank-one term in one pass: it pops the C(n + d - 1, d - 1) keys of the
        # final and writes the C(n + d - 1, d) keys of its n neighbours, each once, and no key is moved.
        moved = []
        spread_by_moves = blowups.contraction._spread_by_moves

        def counting_moves(*args):
            moved.append(args)
            return spread_by_moves(*args)

        monkeypatch.setattr(blowups.contraction, "_spread_by_moves", counting_moves)
        blow_downs, _ = count_blow_downs(monkeypatch)
        for seed in range(10):
            for dimension in (2, 3, 4):
                for recover, size in ((recover_sequence, 16), (recover_all_orders, 5)):
                    before = len(blow_downs)
                    recover(tensor_from_forest(random_forest(seed, dimension, size, 3)))
                    # Both blow down once per step of their one descent but the last.
                    assert len(blow_downs) - before == size - 1
        assert moved == []
        for d, n, written, popped in blow_downs:
            assert len(written) == len(set(written)) == math.comb(n + d - 1, d)
            assert popped == math.comb(n + d - 1, d - 1)
        assert max(n for _, n, _, _ in blow_downs) >= 3


class CountingWrites(dict):
    """A stage's entry dict that lists each key written or deleted, and counts the keys popped."""

    def __init__(self, entries):
        super().__init__(entries)
        self.written, self.popped = [], 0

    def __setitem__(self, key, value):
        self.written.append(key)
        super().__setitem__(key, value)

    def __delitem__(self, key):
        self.written.append(key)
        super().__delitem__(key)

    def pop(self, key, *default):
        self.popped += 1
        return super().pop(key, *default)


def count_blow_downs(monkeypatch) -> tuple[list, list]:
    """Patch recovery to count what it writes.

    Each stage's entries become :class:`CountingWrites`, listed in the
    second list returned, and each blow-down appends ``(d, neighbours,
    keys written, keys popped)`` to the first.
    """
    blow_downs, stages = [], []
    stage, blow_down = blowups.contraction._stage, blowups.contraction._blow_down

    def counting_stage(tensor):
        entries, *rest = stage(tensor)
        stages.append(CountingWrites(entries))
        return (stages[-1], *rest)

    def counting_blow_down(d, stage, i):
        entries, neighbours = stage[0], len(stage[2][i])
        written, popped = len(entries.written), entries.popped
        blow_down(d, stage, i)
        blow_downs.append((d, neighbours, entries.written[written:], entries.popped - popped))

    monkeypatch.setattr(blowups.contraction, "_stage", counting_stage)
    monkeypatch.setattr(blowups.contraction, "_blow_down", counting_blow_down)
    return blow_downs, stages


def count_descents(monkeypatch) -> list:
    """Patch recovery so that each call of ``_descent`` appends its tensor to the returned list."""
    calls, descent = [], blowups.contraction._descent

    def counting(tensor):
        calls.append(tensor)
        return descent(tensor)

    monkeypatch.setattr(blowups.contraction, "_descent", counting)
    return calls


def first_order(recover, tensor):
    """``recover(tensor)``, or the text of the error it raises."""
    try:
        return recover(tensor)
    except NotContractibleError as exc:
        return str(exc)


def answers(tensor) -> list:
    """What recovery returns for ``tensor``: ``recover_sequence``'s answer and every order it lists, or none where it refuses."""
    try:
        found = [recover_sequence(tensor)]
    except NotContractibleError:
        found = []
    try:
        found += recover_all_orders(tensor, limit=200)
    except (NotContractibleError, SearchLimitError):
        pass
    return found


def walk_first(tensor):
    """The first order of the walk, taken from ``_orders`` itself."""
    return next(blowups.contraction._orders(tensor))


def relabelled_form_is_input(tensor, recovered, trace) -> bool:
    creation = trace.creation_indices()
    perm = tuple(creation[i] for i in range(1, tensor.size + 1))
    return apply_permutation(tensor, perm).entries == tensor_from_forest(recovered).entries


class TestPremiseDescent:
    """``recover_sequence`` and the walk blow down by one rank-one step and refuse every input off its premise."""

    @settings(max_examples=200, deadline=None)
    @given(tensor=near_blow_up_tensors(max_dimension=5, min_size=0))
    @local_stage_examples
    def test_descent_answers_what_the_walk_answers(self, tensor):
        assert first_order(recover_sequence, tensor) == first_order(walk_first, tensor)

    @settings(max_examples=200, deadline=None)
    @given(tensor=near_blow_up_tensors(max_dimension=5, min_size=0))
    @local_stage_examples
    def test_every_answer_is_the_form_of_its_forest(self, tensor):
        # Recovery refuses, or the relabelled form of what it returns is the input: for recover and every listed order.
        for recovered, trace in answers(tensor):
            assert relabelled_form_is_input(tensor, recovered, trace)

    @settings(max_examples=200, deadline=None)
    @given(tensor=near_blow_up_tensors(max_dimension=5, min_size=0))
    @example(tensor=WIDE_FINAL)
    @local_stage_examples
    def test_every_answer_is_a_valid_forest(self, tensor):
        # recover | tensor is closed: every forest that recovery returns is one that tensor_from_forest accepts.
        for recovered, _ in answers(tensor):
            assert validate_forest(recovered).ok

    @pytest.mark.parametrize(
        "tensor, answer",
        [
            # Every blow-down meets the premise, but (1, 2, 3) holds no neighbour of 1: it is left beside T(3^3).
            (IntersectionTensor(3, 3, {(1, 1, 1): 1, (2, 2, 2): 1, (3, 3, 3): 1, (1, 2, 3): 5}),
             "key [1, 2, 3] is left over beside the last component's pure power"),
            # The final 3 meets 1 and 2, and its premise key of 1, 2 and 3 is missing or holds twice its value.
            (off_premise(3, "missing"), "final component 3 is no blown-up point: key [1, 2, 3] holds 0, not 2"),
            (off_premise(3, "value"), "final component 3 is no blown-up point: key [1, 2, 3] holds 4, not 2"),
            (off_premise(4, "missing"), "final component 3 is no blown-up point: key [1, 2, 3, 3] holds 0, not -2"),
            (off_premise(4, "value"), "final component 3 is no blown-up point: key [1, 2, 3, 3] holds -4, not -2"),
            # Stage 2 has no final, and (1, 2, 3) still holds the contracted 1.
            (IntersectionTensor(3, 3, {(1, 1, 1): 1, (2, 2, 2): -1, (3, 3, 3): -1, (1, 2, 3): 5}),
             "no final component at stage 2"),
            # Stage 2 has no final, and no key holds the contracted 1.
            (IntersectionTensor(3, 2, {(1, 1, 1): 1, (2, 2, 2): -1}), "no final component at stage 2"),
            (IntersectionTensor(2, 3, {(1, 1): -1, (2, 2): 1, (2, 3): 1, (3, 3): 1}), "no final component at stage 2"),
            # The form of a point proximate to 3 points at d 2: every key fits the premise, but the final meets 3.
            (WIDE_FINAL, "final component 4 meets 3 components, at most 2 allowed"),
        ],
        ids=["left-at-the-end", "3-missing", "3-value", "4-missing", "4-value", "no-final-contracted-key", "no-final-3",
             "no-final-2", "wide-final"],
    )
    def test_each_way_off_the_premise(self, tensor, answer, monkeypatch):
        # recover_sequence and the walk refuse with the same text, each after exactly one descent.
        calls = count_descents(monkeypatch)
        assert first_order(walk_first, tensor) == answer
        assert calls == [tensor]
        assert first_order(recover_sequence, tensor) == answer
        assert calls == [tensor, tensor]

    def test_forms_descend_once(self, monkeypatch):
        # Census: every forest at d 2-5, m <= 4, degrees 1-2, and 500 random forests at d 2-6, m <= 12, each recovered
        # by exactly one descent: no second descent and no fallback.
        calls = count_descents(monkeypatch)
        forests = [forest for d in range(2, 6) for m in range(5) for forest in enumerate_forests(d, m, 2)]
        forests += [random_forest(seed, 2 + seed % 5, seed % 13, 5) for seed in range(500)]
        for forest in forests:
            tensor = tensor_from_forest(forest)
            assert relabelled_form_is_input(tensor, *recover_sequence(tensor))
            assert calls == [tensor]
            calls.clear()
        assert len(forests) == 4768

    def test_every_order_of_a_form_meets_the_premise(self):
        # Census over every order: forms are never refused, so refusing off the premise turns no form away.
        forests = [forest for d in range(2, 6) for m in range(5) for forest in enumerate_forests(d, m, 2)]
        forests += [random_forest(seed, 2 + seed % 5, seed % 8, 5) for seed in range(500)]
        orders = 0
        for forest in forests:
            tensor = tensor_from_forest(forest)
            for recovered, trace in recover_all_orders(tensor, limit=5040):
                assert relabelled_form_is_input(tensor, recovered, trace)
                orders += 1
        assert (len(forests), orders) == (4768, 36652)

    def test_every_order_of_a_form_meets_the_chained_public_steps(self):
        # Census against the oracle: the walk lists orders from the descent's proximities, chained_orders by final_set
        # and contract at every stage.
        forests = [forest for d in range(2, 6) for m in range(5) for forest in enumerate_forests(d, m, 2)]
        orders = 0
        for forest in forests:
            tensor = tensor_from_forest(forest)
            walked = recover_all_orders(tensor)
            assert walked == [(oracle_forest(forest.dimension, trace), trace) for trace in chained_orders(tensor)]
            orders += len(walked)
        assert (len(forests), orders) == (4268, 20556)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_forests_with_many_targets_list_the_chained_orders(self, data):
        # Up to d + 2 targets a point, which random_forest never draws: such a form is still a sum of rank-one terms,
        # but a point with more than d targets is final with them as neighbours once the descent reaches it.
        d = data.draw(st.integers(2, 4))
        points = []
        for i in range(1, data.draw(st.integers(0, 7)) + 1):
            count = data.draw(st.integers(0, min(d + 2, i - 1)))
            targets = data.draw(st.lists(st.integers(1, i - 1), min_size=count, max_size=count, unique=True)) if count else []
            points.append((data.draw(st.integers(1, 3)), targets))
        forest = ProximityForest.make(d, *points)
        tensor = tensor_from_forest(forest)
        try:
            walked = recover_all_orders(tensor, limit=2000)
        except NotContractibleError as exc:
            final, met, allowed = map(int, re.fullmatch(r"final component (\d+) meets (\d+) components, at most (\d+) allowed",
                                                        str(exc)).groups())
            assert len(forest.targets(final)) == met > allowed == d
            return
        except SearchLimitError:
            assert len(list(itertools.islice(chained_orders(tensor), 2001))) > 2000
            return
        assert all(len(forest.targets(k)) <= d for k in range(1, len(forest) + 1))
        assert walked == [(oracle_forest(d, trace), trace) for trace in chained_orders(tensor)]


def traced_peak(run, tensor) -> int:
    tracemalloc.start()
    try:
        run(tensor)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRecoveryMemory:
    """The descent rewrites one stage in place, so its memory grows with the keys it touches, not with m × nnz."""

    def test_greedy_walk_grows_linearly(self):
        # One stage copy per step made the peak grow four times when m doubled: 120 MB at m 1000, 478 MB at m 2000.
        tensors = [tensor_from_forest(random_forest(1, 2, m, 3)) for m in (1000, 2000)]
        small, large = (traced_peak(recover_sequence, tensor) for tensor in tensors)
        assert large <= 2.5 * small
        assert large < 30_000_000

    def test_one_order_of_a_chain_grows_linearly(self):
        def chain(m):
            return tensor_from_forest(ProximityForest.make(2, (1, []), *[(1, [k]) for k in range(1, m)]))

        small, large = (traced_peak(recover_all_orders, chain(m)) for m in (1000, 2000))
        assert large <= 2.5 * small
