from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from blowups import (
    MarkedPartition,
    Point,
    ProximityForest,
    block_degree,
    block_proximity,
    random_forest,
    validate_forest,
)
from _oracles import oracle_separation


def rules(report):
    return [v.rule for v in report.violations]


class TestPoint:
    @pytest.mark.parametrize("targets", [[2, 1], {1, 2}, frozenset({1, 2})], ids=["list", "set", "frozenset"])
    def test_targets_become_one_frozenset(self, targets):
        point = Point(3, targets)
        assert type(point.proximate_to) is frozenset and point.proximate_to == {1, 2}
        assert point == Point(3, frozenset({1, 2})) and hash(point) == hash(Point(3, [1, 2]))

    def test_a_frozenset_is_kept_as_given(self):
        targets = frozenset({1, 2})
        assert Point(1, targets).proximate_to is targets


class TestValidate:
    def test_valid_forest(self, three_chain_mixed):
        assert validate_forest(three_chain_mixed).ok
        assert validate_forest(three_chain_mixed, strict=True).ok

    def test_empty_forest_is_valid(self):
        assert validate_forest(ProximityForest(2)).ok

    def test_dimension_rule(self):
        report = validate_forest(ProximityForest(1, (Point(1),)))
        assert rules(report) == ["dimension"]

    def test_degree_rule(self):
        report = validate_forest(ProximityForest(2, (Point(0),)))
        assert rules(report) == ["degree-positive"]

    def test_target_range_rule(self):
        report = validate_forest(ProximityForest.make(2, (1, []), (1, [2])))
        assert rules(report) == ["target-range"]

    def test_target_count_rule(self):
        forest = ProximityForest.make(3, (1, []), (1, []), (1, []), (1, []), (1, [1, 2, 3, 4]))
        report = validate_forest(forest)
        assert rules(report) == ["target-count"]
        assert report.violations[0].indices == (5,)

    def test_strict_divisibility(self):
        forest = ProximityForest.make(3, (2, []), (3, [1]))
        assert validate_forest(forest).ok
        report = validate_forest(forest, strict=True)
        assert rules(report) == ["degree-divides"]
        assert report.violations[0].indices == (2, 1)

    def test_strict_separation(self):
        # Point 3 uses up the whole intersection of components 1 and 2,
        # so point 4 cannot lie on both.
        forest = ProximityForest.make(2, (1, []), (1, [1]), (1, [1, 2]), (1, [1, 2]))
        assert validate_forest(forest).ok
        report = validate_forest(forest, strict=True)
        assert rules(report) == ["targets-separated"]
        assert report.violations[0].indices == (4, 1, 2)

    def test_strict_targets_not_proximate(self):
        forest = ProximityForest.make(2, (1, []), (1, []), (1, [1, 2]))
        report = validate_forest(forest, strict=True)
        assert rules(report) == ["targets-not-proximate"]

    def test_separation_budget_counts_degrees(self):
        # A degree-2 carrier leaves room for one degree-2 sharer, not two.
        roomy = ProximityForest.make(2, (1, []), (2, [1]), (2, [1, 2]))
        assert validate_forest(roomy, strict=True).ok
        crowded = ProximityForest.make(2, (1, []), (2, [1]), (2, [1, 2]), (2, [1, 2]))
        report = validate_forest(crowded, strict=True)
        assert rules(report) == ["targets-separated"]
        assert report.violations[0].indices == (4, 1, 2)

    def test_report_collects_everything(self):
        forest = ProximityForest(1, (Point(0, frozenset({3})),))
        report = validate_forest(forest)
        assert set(rules(report)) == {"dimension", "degree-positive", "target-range"}


@st.composite
def loose_surface_forests(draw) -> ProximityForest:
    """Surface forests that often break the rules: degrees -1..4, up to four targets in -1..m+1."""
    m = draw(st.integers(0, 8))
    targets = st.lists(st.integers(-1, m + 1), max_size=4)
    return ProximityForest(2, tuple(Point(draw(st.integers(-1, 4)), frozenset(draw(targets))) for _ in range(m)))


class TestStrictSeparation:
    @settings(max_examples=300, deadline=None)
    @given(forest=loose_surface_forests())
    @example(forest=ProximityForest.make(2, (1, []), (2, [1]), (2, [1, 2]), (2, [1, 2])))
    @example(forest=ProximityForest.make(2, (1, [2]), (1, [1]), (1, [1, 2]), (1, [1, 2])))
    # A point with three targets, one of them itself, still uses up the intersection of 1 and 2.
    @example(forest=ProximityForest.make(2, (1, []), (1, [1]), (1, [1, 2, 3]), (1, [1, 2])))
    def test_matches_the_rescanning_rule(self, forest):
        """The running totals report what rescanning every earlier point reports."""
        surface_rules = {"targets-not-proximate", "targets-separated"}
        report = validate_forest(forest, strict=True)
        assert [v for v in report.violations if v.rule in surface_rules] == oracle_separation(forest)

    def test_scan_is_linear(self, monkeypatch):
        """Each point proximate to its two predecessors: the scan reads each point's targets a bounded number of times."""
        m = 2000
        forest = ProximityForest.make(2, (1, []), (1, [1]), *[(1, [k - 2, k - 1]) for k in range(3, m + 1)])
        calls = [0]
        targets = ProximityForest.targets

        def counting(self, i):
            calls[0] += 1
            return targets(self, i)

        monkeypatch.setattr(ProximityForest, "targets", counting)
        assert validate_forest(forest, strict=True).ok
        assert calls[0] <= 2 * m


class TestPartition:
    def test_check_accepts_partition(self):
        MarkedPartition((frozenset({1, 3}), frozenset({2}))).check(3)

    def test_check_rejects_overlap(self):
        with pytest.raises(ValueError, match="overlaps"):
            MarkedPartition((frozenset({1, 2}), frozenset({2}))).check(2)

    def test_check_rejects_gap(self):
        with pytest.raises(ValueError, match="partition"):
            MarkedPartition((frozenset({1}),)).check(2)

    @pytest.mark.parametrize(
        "blocks, size",
        [([{1}, {3}], 3), ([{0, 1}], 2), ([{2, 3}], 2), ([{1, 2}], 1), ([{1}], 2**62)],
        ids=["gap", "below range", "above range", "too many", "huge size"],
    )
    def test_check_rejects_what_does_not_cover(self, blocks, size):
        with pytest.raises(ValueError, match=rf"^blocks do not partition 1\.\.{size}$"):
            MarkedPartition(tuple(map(frozenset, blocks))).check(size)

    @settings(max_examples=200, deadline=None)
    @given(blocks=st.lists(st.frozensets(st.integers(-1, 6), min_size=1), max_size=4), size=st.integers(0, 6))
    def test_check_accepts_exactly_a_cover(self, blocks, size):
        seen = [i for block in blocks for i in block]
        covers = len(seen) == len(set(seen)) and set(seen) == set(range(1, size + 1))
        try:
            MarkedPartition(tuple(blocks)).check(size)
        except ValueError:
            assert not covers
        else:
            assert covers

    def test_check_rejects_empty_block(self):
        with pytest.raises(ValueError, match="empty"):
            MarkedPartition((frozenset(),)).check(0)

    def test_singletons(self):
        assert len(MarkedPartition.singletons(3)) == 3
        MarkedPartition.singletons(3).check(3)


class TestBlockOps:
    def test_block_proximity_of_singletons_is_edge_set(self, three_chain_mixed):
        pairs = block_proximity(three_chain_mixed, MarkedPartition.singletons(3))
        assert pairs == frozenset({(2, 1), (3, 2)})

    def test_block_proximity_merged(self, three_chain_mixed):
        partition = MarkedPartition((frozenset({1}), frozenset({2, 3})))
        assert block_proximity(three_chain_mixed, partition) == frozenset({(2, 1), (2, 2)})

    def test_block_degree(self, three_chain_mixed):
        partition = MarkedPartition((frozenset({1}), frozenset({2, 3})))
        assert block_degree(three_chain_mixed, partition, 1) == 1
        assert block_degree(three_chain_mixed, partition, 2) == 4

    def test_block_degree_out_of_range(self, three_chain_mixed):
        with pytest.raises(IndexError):
            block_degree(three_chain_mixed, MarkedPartition.singletons(3), 4)

    def test_block_degrees_sum_to_total(self, three_chain_mixed):
        partition = MarkedPartition((frozenset({1, 3}), frozenset({2})))
        total = sum(block_degree(three_chain_mixed, partition, b) for b in (1, 2))
        assert total == three_chain_mixed.total_degree()

    def test_size_mismatch(self, three_chain_mixed):
        with pytest.raises(ValueError):
            block_proximity(three_chain_mixed, MarkedPartition.singletons(2))


class TestRandomForest:
    def test_deterministic(self):
        assert random_forest(11, 3, 6, 2) == random_forest(11, 3, 6, 2)

    def test_seeds_differ(self):
        samples = {random_forest(seed, 3, 6, 3) for seed in range(20)}
        assert len(samples) > 1

    def test_bounds(self):
        with pytest.raises(ValueError):
            random_forest(0, 1, 3, 2)
        with pytest.raises(ValueError):
            random_forest(0, 2, -1, 2)
        with pytest.raises(ValueError):
            random_forest(0, 2, 3, 0)

    def test_empty(self):
        assert len(random_forest(0, 2, 0, 3)) == 0

    @given(
        seed=st.integers(0, 10**9),
        dimension=st.integers(2, 5),
        size=st.integers(0, 10),
        max_degree=st.integers(1, 4),
    )
    def test_always_valid(self, seed, dimension, size, max_degree):
        forest = random_forest(seed, dimension, size, max_degree)
        assert validate_forest(forest).ok


class TestForestBasics:
    def test_edges_and_children(self, three_chain_mixed):
        assert list(three_chain_mixed.edges()) == [(2, 1), (3, 2)]
        assert three_chain_mixed.children(1) == (2,)
        assert three_chain_mixed.children(2) == (3,)
        assert three_chain_mixed.children(3) == ()

    def test_degrees(self, three_chain_mixed):
        assert [three_chain_mixed.degree(i) for i in (1, 2, 3)] == [1, 1, 3]
        assert three_chain_mixed.total_degree() == 5
