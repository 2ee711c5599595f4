from __future__ import annotations

import enum
import io
import itertools
import json
import re
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import blowups.io

from blowups import (
    ContractionStep,
    ContractionTrace,
    IntersectionTensor,
    MarkedPartition,
    Point,
    ProximityForest,
    SchemaError,
    canonical_json,
    forest_from_dict,
    forest_to_dict,
    load_document,
    partition_from_dict,
    partition_to_dict,
    random_forest,
    recover_sequence,
    report_to_dict,
    tensor_from_dict,
    tensor_from_forest,
    tensor_to_dict,
    trace_from_dict,
    trace_to_dict,
    validate_forest,
    witness_to_dict,
)

from _oracles import (
    TENSOR_DEFECTS,
    oracle_forest_from_dict,
    oracle_orders_document,
    oracle_tensor_from_dict,
    oracle_trace_dict,
    spoil_tensor_entry,
)

GOOD_FOREST = {
    "dimension": 4,
    "points": [
        {"id": 1, "degree": 1, "proximate_to": []},
        {"id": 2, "degree": 1, "proximate_to": [1]},
        {"id": 3, "degree": 3, "proximate_to": [2]},
    ],
}


@st.composite
def tensor_documents(draw):
    """Tensor documents near valid ones: a valid entry list spoilt by up to two drawn defects."""
    dimension = draw(st.integers(2, 3))
    size = draw(st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 5, 9]))
    index = st.lists(st.integers(1, max(size, 1)), min_size=dimension, max_size=dimension).map(sorted)
    keys = draw(st.lists(index, max_size=5, unique_by=tuple))
    doc = {
        "dimension": dimension,
        "size": size,
        "entries": [{"index": list(key), "value": draw(st.integers(-3, 3).filter(bool))} for key in keys],
    }
    for defect in draw(st.lists(st.sampled_from(TENSOR_DEFECTS), max_size=2)) if keys else ():
        pos = draw(st.integers(0, len(keys) - 1))
        spoil_tensor_entry(doc, pos, defect, lambda options: draw(st.sampled_from(options)))
    return doc


FOREST_DEFECTS = (
    "id", "bool id", "bool degree", "big degree", "float degree", "target range", "target zero", "target self",
    "duplicate target", "bool target", "string target", "targets not an array", "not an object", "missing field",
    "unknown field",
)


@st.composite
def forest_documents(draw):
    """Forest documents near valid ones: a random forest's points spoilt by up to two drawn defects."""
    forest = random_forest(draw(st.integers(0, 10**6)), draw(st.integers(2, 4)), draw(st.integers(0, 6)), 3)
    doc = forest_to_dict(forest)
    points = doc["points"]
    for defect in draw(st.lists(st.sampled_from(FOREST_DEFECTS), max_size=2)) if points else ():
        pos = draw(st.integers(0, len(points) - 1))
        point = points[pos]
        if not isinstance(point, dict) or not {"id", "degree", "proximate_to"} <= point.keys():
            continue
        targets = point["proximate_to"] if isinstance(point["proximate_to"], list) else []
        if defect == "id":
            point["id"] = draw(st.sampled_from([pos, pos + 2, -1]))
        elif defect == "bool id":
            point["id"] = True
        elif defect == "bool degree":
            point["degree"] = False
        elif defect == "big degree":
            point["degree"] = draw(st.sampled_from([2**63, -(2**63), 2**63 - 1]))
        elif defect == "float degree":
            point["degree"] = 1.0
        elif defect in ("target range", "target zero", "target self"):
            targets.append({"target range": len(points) + 1, "target zero": 0, "target self": pos + 1}[defect])
        elif defect == "duplicate target" and targets:
            targets.append(targets[0])
        elif defect in ("bool target", "string target") and targets:
            targets[-1] = True if defect == "bool target" else str(targets[-1])
        elif defect == "targets not an array":
            point["proximate_to"] = draw(st.sampled_from([tuple(targets), None, 1]))
        elif defect == "not an object":
            points[pos] = draw(st.sampled_from([[pos + 1, 1, []], None, 3]))
        elif defect == "missing field":
            del point[draw(st.sampled_from(["id", "degree", "proximate_to"]))]
        elif defect == "unknown field":
            point["weight"] = 1
    return doc


class Sign(enum.IntEnum):
    PLUS = 1
    MINUS = -1


class TestCanonicalJson:
    def test_sorted_keys_no_whitespace(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_byte_deterministic(self, three_chain_mixed):
        doc = forest_to_dict(three_chain_mixed)
        assert canonical_json(doc) == canonical_json(json.loads(canonical_json(doc)))


class TestLoadDocument:
    def test_reads_file(self, tmp_path):
        path = tmp_path / "forest.json"
        path.write_text(canonical_json(GOOD_FOREST))
        assert load_document(str(path)) == GOOD_FOREST

    def test_reads_stdin(self, monkeypatch, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"x":1}')
        with open(path, "r", encoding="utf-8") as handle:
            monkeypatch.setattr("sys.stdin", handle)
            assert load_document("-") == {"x": 1}

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            load_document(str(path))

    def test_deeply_nested_json(self, monkeypatch, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(SchemaError):
            load_document(str(path))
        with open(path, "r", encoding="utf-8") as handle:
            monkeypatch.setattr("sys.stdin", handle)
            with pytest.raises(SchemaError):
                load_document("-")


    @pytest.mark.parametrize(
        "data",
        [b"\xff\xfe{}", b'{"value":' + b"9" * 5000 + b"}"],
        ids=["not utf-8", "5000-digit integer"],
    )
    def test_undecodable_document(self, monkeypatch, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: malformed JSON: "):
            load_document(str(path))
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        with pytest.raises(SchemaError, match="^-: malformed JSON: "):
            load_document("-")

    def test_long_integer_is_worded_here(self, monkeypatch, tmp_path):
        """The refusal of an integer too long to convert reads the same under every Python version."""
        data = b'{"value":' + b"9" * 5000 + b"}"
        path = tmp_path / "long.json"
        path.write_bytes(data)
        reason = f"malformed JSON: an integer has more than {sys.get_int_max_str_digits()} digits"
        with pytest.raises(SchemaError) as caught:
            load_document(str(path))
        assert str(caught.value) == f"{path}: {reason}"
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        with pytest.raises(SchemaError) as caught:
            load_document("-")
        assert str(caught.value) == f"-: {reason}"

    @pytest.mark.parametrize(
        "data",
        [b'{"a":\r\n[1,\r2]}\r\n', b'{"a":\r\n[1,\r2]\r\n,,}', b'{"a":\r\n"\r"}', b"\r\n\r\r\n", b'\r\n{"a":\xff}'],
        ids=["valid", "malformed after line ends", "a line end in a string", "line ends alone", "not utf-8 after a line end"],
    )
    def test_a_file_reads_as_in_text_mode(self, tmp_path, data):
        """A file is read as bytes, but gives the document, or the message, that reading it in text mode gives."""
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                expected = json.load(handle)
        except ValueError as exc:
            with pytest.raises(SchemaError) as caught:
                load_document(str(path))
            assert str(caught.value) == f"{path}: malformed JSON: {exc}"
        else:
            assert load_document(str(path)) == expected


class TestForestFormat:
    def test_round_trip(self, three_chain_mixed):
        assert forest_from_dict(forest_to_dict(three_chain_mixed)) == three_chain_mixed
        assert forest_to_dict(three_chain_mixed) == GOOD_FOREST

    def test_empty(self):
        doc = {"dimension": 2, "points": []}
        assert forest_to_dict(forest_from_dict(doc)) == doc

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(extra=1),
            lambda d: d.pop("dimension"),
            lambda d: d.update(dimension=True),
            lambda d: d["points"][0].update(id=2),
            lambda d: d["points"][1].update(proximate_to=[2]),
            lambda d: d["points"][1].update(proximate_to=[1, 1]),
            lambda d: d["points"][2].update(degree=2**64),
            lambda d: d["points"][0].pop("degree"),
            lambda d: d.update(points={}),
        ],
    )
    def test_rejects_malformed(self, mutate):
        doc = json.loads(json.dumps(GOOD_FOREST))
        mutate(doc)
        with pytest.raises(SchemaError):
            forest_from_dict(doc)

    def test_parsing_does_not_validate_degrees(self):
        # schema and validity are separate layers
        doc = {"dimension": 2, "points": [{"id": 1, "degree": 0, "proximate_to": []}]}
        forest = forest_from_dict(doc)
        assert not validate_forest(forest).ok

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), dimension=st.integers(2, 4), size=st.integers(0, 8))
    def test_round_trip_random(self, seed, dimension, size):
        forest = random_forest(seed, dimension, size, 3)
        recoded = forest_from_dict(json.loads(canonical_json(forest_to_dict(forest))))
        assert recoded == forest

    @settings(max_examples=400, deadline=None)
    @given(doc=forest_documents())
    @example(doc={"dimension": 2, "points": [{"id": 1, "degree": Sign.PLUS, "proximate_to": []}]})
    @example(doc={"dimension": 2, "points": [{"id": 1, "degree": 1, "proximate_to": []}, [2, 1, [1]]]})
    def test_bulk_check_decides_as_the_point_loop(self, doc):
        """The same forest, or a ``SchemaError`` with the same text."""
        try:
            expected = oracle_forest_from_dict(doc)
        except SchemaError as exc:
            with pytest.raises(SchemaError) as caught:
                forest_from_dict(doc)
            assert str(caught.value) == str(exc)
            return
        assert forest_from_dict(doc) == expected

    def test_valid_document_is_checked_in_bulk(self, monkeypatch):
        forest = random_forest(7, 3, 40, 3)
        calls = []
        require_int = blowups.io._require_int

        def counting(value, what):
            calls.append(what)
            return require_int(value, what)

        monkeypatch.setattr(blowups.io, "_require_int", counting)
        assert forest_from_dict(forest_to_dict(forest)) == forest
        assert calls == ["dimension"]


class TestPartitionFormat:
    def test_round_trip(self):
        partition = MarkedPartition((frozenset({2, 3}), frozenset({1})))
        doc = partition_to_dict(partition)
        assert doc == {"blocks": [[2, 3], [1]]}
        assert partition_from_dict(doc) == partition

    @pytest.mark.parametrize(
        "doc",
        [
            {"blocks": [[]]},
            {"blocks": [[1, 1]]},
            {"blocks": [[1], [1]]},
            {"blocks": [[0]]},
            {"blocks": [[1.5]]},
            {"blocks": 3},
            {"blocks": [[1]], "extra": 1},
            {},
        ],
    )
    def test_rejects_malformed(self, doc):
        with pytest.raises(SchemaError):
            partition_from_dict(doc)


class TestTensorFormat:
    def test_round_trip(self, three_chain_mixed):
        tensor = tensor_from_forest(three_chain_mixed)
        doc = tensor_to_dict(tensor)
        assert doc["dimension"] == 4 and doc["size"] == 3
        assert doc["entries"][0] == {"index": [1, 1, 1, 1], "value": -2}
        indices = [tuple(e["index"]) for e in doc["entries"]]
        assert indices == sorted(indices)
        assert tensor_from_dict(doc).entries == tensor.entries

    def test_empty(self):
        doc = {"dimension": 3, "size": 0, "entries": []}
        assert tensor_to_dict(tensor_from_dict(doc)) == doc

    @pytest.mark.parametrize(
        "doc",
        [
            {"dimension": 1, "size": 1, "entries": []},
            {"dimension": 2, "size": -1, "entries": []},
            {"dimension": 2, "size": 1, "entries": [{"index": [1], "value": 1}]},
            {"dimension": 2, "size": 1, "entries": [{"index": [1, 2], "value": 1}]},
            {"dimension": 2, "size": 2, "entries": [{"index": [2, 1], "value": 1}]},
            {"dimension": 2, "size": 1, "entries": [{"index": [1, 1], "value": 0}]},
            {"dimension": 2, "size": 1, "entries": [{"index": [1, 1], "value": True}]},
            {
                "dimension": 2,
                "size": 1,
                "entries": [
                    {"index": [1, 1], "value": 1},
                    {"index": [1, 1], "value": 2},
                ],
            },
            {"dimension": 2, "size": 1, "entries": [{"index": [1, 1]}]},
        ],
    )
    def test_rejects_malformed(self, doc):
        with pytest.raises(SchemaError):
            tensor_from_dict(doc)

    @settings(max_examples=200, deadline=None)
    @given(doc=tensor_documents())
    def test_loads_what_the_checking_constructor_builds(self, doc):
        """Every accepted document loads to the tensor the checking constructor builds from it."""
        try:
            loaded = tensor_from_dict(doc)
        except SchemaError:
            return
        entries = {tuple(e["index"]): e["value"] for e in doc["entries"]}
        expected = IntersectionTensor(doc["dimension"], doc["size"], entries)
        assert loaded == expected
        assert list(loaded.entries.items()) == list(expected.entries.items())

    @settings(max_examples=400, deadline=None)
    @given(doc=tensor_documents())
    @example(doc={"dimension": 2, "size": 2, "entries": [{"index": [1, 2], "value": Sign.MINUS}]})
    def test_bulk_check_decides_as_the_entry_loop(self, doc):
        """The same tensor in the same entry order, or a ``SchemaError`` with the same text."""
        try:
            expected = oracle_tensor_from_dict(doc)
        except SchemaError as exc:
            with pytest.raises(SchemaError) as caught:
                tensor_from_dict(doc)
            assert str(caught.value) == str(exc)
            return
        loaded = tensor_from_dict(doc)
        assert loaded == expected
        assert list(loaded.entries.items()) == list(expected.entries.items())

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), dimension=st.integers(2, 3))
    def test_round_trip_random(self, seed, dimension):
        tensor = tensor_from_forest(random_forest(seed, dimension, 6, 3))
        recoded = tensor_from_dict(json.loads(canonical_json(tensor_to_dict(tensor))))
        assert recoded.entries == tensor.entries


class TestLoadingCost:
    """Loading a valid tensor makes no call per index element or value, and allocates nothing per dimension."""

    def test_valid_document_is_checked_in_bulk(self, monkeypatch):
        keys = list(itertools.islice(itertools.combinations_with_replacement(range(1, 31), 3), 2000))
        doc = {
            "dimension": 3,
            "size": 30,
            "entries": [{"index": list(key), "value": (-1) ** n * (1 + n % 7)} for n, key in enumerate(keys)],
        }
        calls = []
        require_int = blowups.io._require_int

        def counting(value, what):
            calls.append(what)
            return require_int(value, what)

        monkeypatch.setattr(blowups.io, "_require_int", counting)
        tensor = tensor_from_dict(doc)
        assert list(tensor.entries) == keys
        assert len(calls) <= 2

    def test_huge_dimension_without_entries_allocates_nothing(self):
        tracemalloc.start()
        try:
            tensor = tensor_from_dict({"dimension": 2**62, "size": 0, "entries": []})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tensor.dimension == 2**62 and tensor.size == 0 and tensor.entries == {}
        assert peak < 1_000_000


class TestTraceFormat:
    def test_round_trip(self, three_chain_mixed):
        _, trace = recover_sequence(tensor_from_forest(three_chain_mixed))
        doc = trace_to_dict(trace)
        assert trace_from_dict(json.loads(canonical_json(doc))) == trace

    def test_empty(self):
        doc = {"steps": [], "index_maps": []}
        assert trace_to_dict(trace_from_dict(doc)) == doc

    @pytest.mark.parametrize(
        "doc",
        [
            {"steps": [], "index_maps": [[]]},
            {
                "steps": [{"contracted": 2, "degree": 1, "proximate_to_current": []}],
                "index_maps": [[]],
            },
            {
                "steps": [{"contracted": 1, "degree": 1, "proximate_to_current": []}],
                "index_maps": [[1]],
            },
            {
                "steps": [
                    {"contracted": 1, "degree": 1, "proximate_to_current": [9]},
                    {"contracted": 1, "degree": 1, "proximate_to_current": []},
                ],
                "index_maps": [[7], []],
            },
            {
                "steps": [
                    {"contracted": 1, "degree": 1, "proximate_to_current": [3]},
                    {"contracted": 1, "degree": 1, "proximate_to_current": []},
                ],
                "index_maps": [[2], []],
            },
            {
                "steps": [
                    {"contracted": 1, "degree": 1, "proximate_to_current": [1]},
                    {"contracted": 1, "degree": 1, "proximate_to_current": []},
                ],
                "index_maps": [[2], []],
            },
            {
                "steps": [
                    {"contracted": 1, "degree": 1, "proximate_to_current": [2]},
                    {"contracted": 1, "degree": 1, "proximate_to_current": []},
                ],
                "index_maps": [[1], []],
            },
            {
                "steps": [
                    {"contracted": 1, "degree": 1, "proximate_to_current": [2, 2]},
                    {"contracted": 1, "degree": 1, "proximate_to_current": []},
                ],
                "index_maps": [[2], []],
            },
            {
                "steps": [
                    {"contracted": 3, "degree": 1, "proximate_to_current": [2, 1]},
                    {"contracted": 1, "degree": 1, "proximate_to_current": []},
                    {"contracted": 1, "degree": 1, "proximate_to_current": []},
                ],
                "index_maps": [[1, 2], [2], []],
            },
            # contract writes only positive degrees: (-1)^{d-1} T(i^d) > 0 by the sign rules of finality
            {"steps": [{"contracted": 1, "degree": 0, "proximate_to_current": []}], "index_maps": [[]]},
            {"steps": [{"contracted": 1, "degree": -5, "proximate_to_current": []}], "index_maps": [[]]},
        ],
    )
    def test_rejects_malformed(self, doc):
        with pytest.raises(SchemaError):
            trace_from_dict(doc)

    def test_wrong_first_map_is_rejected_before_the_rest_are_built(self):
        """8,000 steps with empty index maps: the maps the steps imply total 32 million indices."""
        steps = 8000
        doc = {
            "steps": [{"contracted": 1, "degree": 1, "proximate_to_current": []}] * steps,
            "index_maps": [[]] * steps,
        }
        tracemalloc.start()
        try:
            with pytest.raises(SchemaError) as failure:
                trace_from_dict(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(failure.value) == f"index map 1 must be {list(range(2, steps + 1))}, as the steps imply"
        assert peak < 10_000_000


class TestOrdersWriter:
    """The ``recover-all`` writer keys its caches by object identity, position and shared prefix; it writes the oracle's bytes."""

    @staticmethod
    def check(results):
        assert blowups.io._orders_json(results) == oracle_orders_document(results)
        for _, trace in results:
            assert blowups.io._trace_json(trace) == canonical_json(oracle_trace_dict(trace))

    def test_equal_steps_and_points_made_apart(self):
        def order():
            steps = (ContractionStep(2, 1, (1,)), ContractionStep(1, 3, ()), ContractionStep(1, 2, ()))
            return ProximityForest.make(2, (2, []), (3, []), (1, [1])), ContractionTrace(steps)

        first, second = order(), order()
        assert first == second and first[1].steps[0] is not second[1].steps[0]
        self.check([first, second, order()])

    def test_one_step_at_two_positions_after_different_prefixes(self):
        last, other = ContractionStep(1, 1, ()), ContractionStep(2, 3, (1,))
        point, proximate = Point(1), Point(3, frozenset({1}))
        self.check(
            [
                (ProximityForest(2, (point, point, point)), ContractionTrace((last, last, last))),
                (ProximityForest(2, (point, proximate, point)), ContractionTrace((other, last, last))),
                (ProximityForest(2, (point, point, proximate)), ContractionTrace((last, other, last))),
                (ProximityForest(2, (point, point, point)), ContractionTrace((last, last, last))),
            ]
        )

    def test_a_trace_shorter_than_the_one_before(self):
        step, point = ContractionStep(1, 1, ()), Point(1)
        self.check(
            [
                (ProximityForest(3, (point,) * 3), ContractionTrace((step,) * 3)),
                (ProximityForest(3, (point,) * 2), ContractionTrace((step,) * 2)),
                (ProximityForest(3, ()), ContractionTrace(())),
                (ProximityForest(3, (point,) * 3), ContractionTrace((step,) * 3)),
            ]
        )


class TestReportAndWitness:
    def test_report(self, three_chain_mixed):
        doc = report_to_dict(validate_forest(three_chain_mixed))
        assert doc == {"ok": True, "violations": []}

    def test_report_with_violation(self):
        forest = forest_from_dict(
            {"dimension": 2, "points": [{"id": 1, "degree": 0, "proximate_to": []}]}
        )
        doc = report_to_dict(validate_forest(forest))
        assert doc["ok"] is False
        assert doc["violations"][0]["rule"] == "degree-positive"
        assert doc["violations"][0]["indices"] == [1]

    def test_witness(self):
        assert witness_to_dict(None) == {"equivalent": False}
        assert witness_to_dict((2, 1)) == {"equivalent": True, "permutation": [2, 1]}
