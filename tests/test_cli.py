from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from blowups import (
    ContractionTrace,
    IntersectionTensor,
    MarkedPartition,
    NotContractibleError,
    ProximityForest,
    SchemaError,
    SearchLimitError,
    canonical_json,
    forest_from_dict,
    forest_isomorphic,
    forest_to_dict,
    partition_to_dict,
    random_forest,
    recover_all_orders,
    recover_sequence,
    tensor_from_forest,
    tensor_to_dict,
    trace_from_dict,
    validate_forest,
)
import blowups.io
from blowups import cli, contraction, equivalence
from blowups.cli import build_parser, main
from _oracles import (
    TENSOR_DEFECTS,
    oracle_orders_document,
    oracle_trace_dict,
    perturb,
    random_partition,
    random_relabel,
    spoil_tensor_entry,
)

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
DECISION_FIELDS = ("equivalent", "compatible", "ok")


def run(capsys, *argv):
    """``main``'s exit code and printed document; exit 1 always comes with a printed ``false`` decision."""
    code = main(list(argv))
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code != 1 or any(doc.get(field) is False for field in DECISION_FIELDS)
    return code, doc


@pytest.fixture
def files(tmp_path, three_chain_mixed, three_chain_mixed_prime):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(canonical_json(doc) + "\n", encoding="utf-8")
        return str(path)

    t1 = tensor_from_forest(three_chain_mixed)
    t2 = tensor_from_forest(three_chain_mixed_prime)
    return {
        "write": write,
        "dir": tmp_path,
        "forest": write("forest.json", forest_to_dict(three_chain_mixed)),
        "forest2": write("forest2.json", forest_to_dict(three_chain_mixed_prime)),
        "tensor": write("tensor.json", tensor_to_dict(t1)),
        "tensor2": write("tensor2.json", tensor_to_dict(t2)),
        "pairs": write(
            "pairs.json", partition_to_dict(MarkedPartition((frozenset({1}), frozenset({2, 3}))))
        ),
        "singletons": write("singletons.json", partition_to_dict(MarkedPartition.singletons(3))),
    }


class TestCompute:
    def test_tensor(self, capsys, files, three_chain_mixed):
        code, doc = run(capsys, "tensor", files["forest"])
        assert code == 0
        assert doc == tensor_to_dict(tensor_from_forest(three_chain_mixed))

    def test_tensor_is_byte_deterministic(self, capsys, files):
        main(["tensor", files["forest"]])
        first = capsys.readouterr().out
        main(["tensor", files["forest"]])
        assert capsys.readouterr().out == first

    def test_diag(self, capsys, files):
        code, doc = run(capsys, "diag", files["tensor"])
        assert code == 0 and doc == {"diagonal": [-2, -4, -3]}

    def test_finals(self, capsys, files):
        code, doc = run(capsys, "finals", files["tensor"])
        assert code == 0 and doc == {"finals": [3]}

    def test_quotient(self, capsys, files):
        code, doc = run(capsys, "quotient", files["tensor"], files["pairs"])
        assert code == 0
        assert doc["size"] == 2
        assert {"index": [1, 1, 1, 1], "value": -2} in doc["entries"]
        assert {"index": [2, 2, 2, 2], "value": -1} in doc["entries"]

    def test_gen_is_deterministic_and_valid(self, capsys):
        code, doc = run(capsys, "gen", "--seed", "7", "--dim", "2", "--points", "6")
        assert code == 0
        assert validate_forest(forest_from_dict(doc)).ok
        code2, doc2 = run(capsys, "gen", "--seed", "7", "--dim", "2", "--points", "6")
        assert doc2 == doc
        _, doc3 = run(capsys, "gen", "--seed", "8", "--dim", "2", "--points", "6")
        assert doc3 != doc


class TestContractRecover:
    def test_contract(self, capsys, files):
        code, doc = run(capsys, "contract", files["tensor"], "3")
        assert code == 0
        shorter = ProximityForest.make(4, (1, []), (1, [1]))
        assert doc == tensor_to_dict(tensor_from_forest(shorter))

    def test_contract_non_final(self, capsys, files):
        code, doc = run(capsys, "contract", files["tensor"], "1")
        assert code == 2 and doc["error"]["code"] == "invalid-input"

    def test_recover_round_trips(self, capsys, files, three_chain_mixed):
        code, doc = run(capsys, "recover", files["tensor"])
        assert code == 0
        assert forest_from_dict(doc) == three_chain_mixed

    def test_recovered_forest_bytes(self, capsys, files):
        """``recover`` writes its forest from the point template, byte for byte the canonical JSON of its document."""
        forests = [random_forest(seed, d, m, 3) for seed, (d, m) in enumerate([(2, 1), (2, 8), (3, 12), (4, 9)])]
        for forest in forests:
            path = files["write"]("form.json", tensor_to_dict(tensor_from_forest(forest)))
            assert main(["recover", path]) == 0
            recovered, _ = recover_sequence(tensor_from_forest(forest))
            assert capsys.readouterr().out == canonical_json(forest_to_dict(recovered)) + "\n"
        largest = ProximityForest.make(2, (blowups.io.INT64_MAX, []), (blowups.io.INT64_MAX, [1]))
        for forest in [*forests, largest, ProximityForest(3)]:
            assert blowups.io._forest_json(forest) == canonical_json(forest_to_dict(forest))

    def test_recover_writes_trace(self, capsys, files):
        trace_path = files["dir"] / "trace.json"
        code, _ = run(capsys, "recover", files["tensor"], "--trace", str(trace_path))
        assert code == 0
        trace = trace_from_dict(json.loads(trace_path.read_text()))
        assert trace.original_order() == (3, 2, 1)

    def test_recover_not_contractible(self, capsys, files):
        stuck = files["write"](
            "stuck.json",
            {"dimension": 2, "size": 1, "entries": [{"index": [1, 1], "value": 1}]},
        )
        code, doc = run(capsys, "recover", stuck)
        assert code == 2 and doc["error"]["code"] == "not-contractible"

    def test_recover_all(self, capsys, files):
        two = files["write"](
            "two.json",
            tensor_to_dict(tensor_from_forest(ProximityForest.make(2, (1, []), (1, [])))),
        )
        code, doc = run(capsys, "recover-all", two)
        assert code == 0 and doc["count"] == 2
        code, doc = run(capsys, "recover-all", two, "--limit", "1")
        assert code == 3 and doc["error"]["code"] == "limit"

    @pytest.mark.parametrize("command", ["recover", "recover-all"])
    def test_recovery_refuses_a_final_that_meets_more_than_d(self, capsys, files, command):
        # Point 4 is proximate to 3 points at d 2: its form is a sum of rank-one terms, but `tensor` refuses the forest.
        wide = ProximityForest.make(2, (1, []), (1, []), (1, []), (1, [1, 2, 3]))
        path = files["write"]("wide.json", tensor_to_dict(tensor_from_forest(wide)))
        code, doc = run(capsys, command, path)
        message = "final component 4 meets 3 components, at most 2 allowed"
        assert code == 2 and doc["error"] == {"code": "not-contractible", "message": message}


class TestLargeSizeFewEntries:
    """A 69-byte document with ``size`` 10^6: the cost follows the one stored entry, not ``size``."""

    DOC = {"dimension": 2, "entries": [{"index": [1, 1], "value": -1}], "size": 1_000_000}

    def test_finals_probes_stored_components(self, capsys, monkeypatch, files):
        path = files["write"]("sparse.json", self.DOC)
        calls = []
        final_neighbours = contraction._final_neighbours

        def counting(*args):
            calls.append(args[-1])
            return final_neighbours(*args)

        monkeypatch.setattr(contraction, "_final_neighbours", counting)
        assert run(capsys, "finals", path) == (0, {"finals": [1]})
        assert calls == [1]

    @pytest.mark.parametrize("command", ["recover", "recover-all"])
    def test_recovery_stops_in_little_memory(self, capsys, files, command):
        path = files["write"]("sparse.json", self.DOC)
        tracemalloc.start()
        try:
            code, doc = run(capsys, command, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        message = "component 2 has no pure power and meets no other component, so it is never final"
        assert code == 2 and doc["error"] == {"code": "not-contractible", "message": message}
        assert peak < 1_000_000

    def test_contract_keeps_the_other_components(self, capsys, files):
        path = files["write"]("sparse.json", self.DOC)
        assert run(capsys, "contract", path, "1") == (0, {"dimension": 2, "entries": [], "size": 999_999})


class TestDecisions:
    def test_equiv_tensor_positive(self, capsys, files):
        code, doc = run(capsys, "equiv", "--kind", "tensor", files["tensor"], files["tensor"])
        assert code == 0
        assert doc == {"equivalent": True, "permutation": [1, 2, 3]}

    def test_equiv_tensor_negative_exit_status(self, capsys, files):
        code, doc = run(
            capsys,
            "equiv", "--kind", "tensor", files["tensor"], files["tensor2"], "--exit-status",
        )
        assert code == 1 and doc == {"equivalent": False}

    def test_equiv_negative_without_flag_exits_zero(self, capsys, files):
        code, doc = run(capsys, "equiv", "--kind", "tensor", files["tensor"], files["tensor2"])
        assert code == 0 and doc == {"equivalent": False}

    def test_equiv_forest(self, capsys, files):
        code, doc = run(capsys, "equiv", "--kind", "forest", files["forest"], files["forest2"])
        assert code == 0 and doc == {"equivalent": False}

    def test_equiv_marked(self, capsys, files):
        code, doc = run(
            capsys,
            "equiv", "--kind", "forest",
            files["forest"], files["forest"], files["pairs"], files["pairs"],
        )
        assert code == 0 and doc["equivalent"] is True

    def test_equiv_wrong_arity(self, capsys, files):
        code, doc = run(
            capsys, "equiv", "--kind", "forest", files["forest"], files["forest"], files["pairs"]
        )
        assert code == 2 and doc["error"]["code"] == "invalid-input"

    def test_canon_hash_is_label_invariant(self, capsys, files):
        one = files["write"](
            "canon1.json",
            forest_to_dict(ProximityForest.make(4, (1, []), (2, []), (3, [1]))),
        )
        two = files["write"](
            "canon2.json",
            forest_to_dict(ProximityForest.make(4, (2, []), (1, []), (3, [2]))),
        )
        code, first = run(capsys, "canon", "--kind", "forest", one)
        code2, second = run(capsys, "canon", "--kind", "forest", two)
        assert code == 0 and code2 == 0
        assert sorted(first["permutation"]) == [1, 2, 3]
        assert first["hash"] == second["hash"]
        assert first["canonical"] == second["canonical"]
        code, other = run(capsys, "canon", "--kind", "forest", files["forest"])
        assert code == 0 and other["hash"] != first["hash"]

    def test_canon_tensor_matches_relabelled(self, capsys, files, three_chain_mixed):
        tensor = tensor_from_forest(three_chain_mixed)
        moved = {
            tuple(sorted((3, 1, 2)[i - 1] for i in key)): v for key, v in tensor.entries.items()
        }
        other = files["write"](
            "moved.json",
            {
                "dimension": 4,
                "size": 3,
                "entries": [
                    {"index": list(k), "value": v} for k, v in sorted(moved.items())
                ],
            },
        )
        code, first = run(capsys, "canon", "--kind", "tensor", files["tensor"])
        code2, second = run(capsys, "canon", "--kind", "tensor", other)
        assert code == 0 and code2 == 0
        assert first["hash"] == second["hash"]
        assert first["canonical"] == second["canonical"]

    def test_orbits(self, capsys, files):
        code, doc = run(capsys, "orbits", files["tensor"])
        assert code == 0 and doc == {"orbits": [[1], [2], [3]]}
        code, doc = run(capsys, "orbits", "--kind", "forest", files["forest"])
        assert code == 0 and doc == {"orbits": [[1], [2], [3]]}

    def test_compat(self, capsys, files):
        code, doc = run(capsys, "compat", "--kind", "forest", files["forest"], files["singletons"])
        assert code == 0 and doc == {"compatible": True}
        code, doc = run(
            capsys,
            "compat", "--kind", "forest", files["forest"], files["pairs"], "--exit-status",
        )
        assert code == 1 and doc == {"compatible": False}


class TestExitStatus:
    """``main`` returns 1 exactly when ``--exit-status`` is given and the decision it reads is printed ``false``."""

    @pytest.fixture
    def calls(self, files):
        indivisible = files["write"](
            "indivisible.json",
            {
                "dimension": 4,
                "points": [{"id": 1, "degree": 2, "proximate_to": []}, {"id": 2, "degree": 3, "proximate_to": [1]}],
            },
        )
        return {
            ("equiv", True): ("equiv", "--kind", "tensor", files["tensor"], files["tensor"]),
            ("equiv", False): ("equiv", "--kind", "forest", files["forest"], files["forest2"]),
            ("compat", True): ("compat", "--kind", "tensor", files["tensor"], files["singletons"]),
            ("compat", False): ("compat", "--kind", "forest", files["forest"], files["pairs"]),
            ("validate", True): ("validate", files["forest"], "--strict"),
            ("validate", False): ("validate", indivisible, "--strict"),
        }

    @pytest.mark.parametrize("flag", [False, True], ids=["plain", "exit-status"])
    @pytest.mark.parametrize("answer", [True, False], ids=["true", "false"])
    @pytest.mark.parametrize("command, field", [("equiv", "equivalent"), ("compat", "compatible"), ("validate", "ok")])
    def test_exit_one_only_for_a_printed_false(self, capsys, calls, command, field, answer, flag):
        code, doc = run(capsys, *calls[command, answer], *(["--exit-status"] if flag else []))
        assert doc[field] is answer
        assert code == (1 if flag and not answer else 0)

    def test_only_the_decision_subcommands_take_the_flag(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        takers = {name for name, p in sub.choices.items() if any("--exit-status" in a.option_strings for a in p._actions)}
        assert takers == {"equiv", "compat", "validate"}


class TestValidateCommand:
    def test_valid(self, capsys, files):
        code, doc = run(capsys, "validate", files["forest"])
        assert code == 0 and doc == {"ok": True, "violations": []}

    def test_strict_divisibility(self, capsys, files):
        # degree 3 over degree 1 divides; degree 3 paired with degree 2 does not
        bad = files["write"](
            "bad.json",
            {
                "dimension": 4,
                "points": [
                    {"id": 1, "degree": 2, "proximate_to": []},
                    {"id": 2, "degree": 3, "proximate_to": [1]},
                ],
            },
        )
        code, doc = run(capsys, "validate", bad)
        assert code == 0 and doc["ok"] is True
        code, doc = run(capsys, "validate", bad, "--strict", "--exit-status")
        assert code == 1 and doc["ok"] is False
        assert [v["rule"] for v in doc["violations"]] == ["degree-divides"]

    def test_invalid_forest_still_reports(self, capsys, files):
        bad = files["write"](
            "zero.json",
            {"dimension": 2, "points": [{"id": 1, "degree": 0, "proximate_to": []}]},
        )
        code, doc = run(capsys, "validate", bad)
        assert code == 0 and doc["ok"] is False

    def test_other_commands_reject_invalid_forest(self, capsys, files):
        bad = files["write"](
            "zero.json",
            {"dimension": 2, "points": [{"id": 1, "degree": 0, "proximate_to": []}]},
        )
        code, doc = run(capsys, "tensor", bad)
        assert code == 2 and doc["error"]["code"] == "invalid-input"


class TestErrorHandling:
    def test_schema_error(self, capsys, files):
        junk = files["write"]("junk.json", {"dimension": 2})
        code, doc = run(capsys, "tensor", junk)
        assert code == 2 and doc["error"]["code"] == "schema"

    @pytest.mark.parametrize(
        "command, doc, read",
        [
            (
                "tensor",
                {"dimension": 2, "points": [{"id": 1, "degree": 1, "targets": []}]},
                lambda doc: blowups.io._read_points(doc["points"]),
            ),
            (
                "recover",
                {"dimension": 2, "size": 1, "entries": [{"index": [1, 1], "val": -1}]},
                lambda doc: blowups.io._read_entries(doc["entries"], 2, 1),
            ),
        ],
        ids=["point", "entry"],
    )
    def test_bulk_check_hands_a_missing_field_to_the_item_reader(self, capsys, files, command, doc, read):
        """An item with as many fields as it should have, one of them unknown, fails the bulk check on the field it lacks.

        The document is then read item by item, and the one line printed is
        the schema error that reader raises.
        """
        with pytest.raises(SchemaError) as expected:
            read(doc)
        assert main([command, files["write"]("doc.json", doc)]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": {"code": "schema", "message": str(expected.value)}}

    def test_missing_file(self, capsys, tmp_path):
        code, doc = run(capsys, "tensor", str(tmp_path / "nope.json"))
        assert code == 2 and doc["error"]["code"] == "io"

    def test_deeply_nested_document(self, capsys, monkeypatch, files):
        path = files["dir"] / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, doc = run(capsys, "diag", str(path))
        assert code == 2 and doc["error"]["code"] == "schema"
        with open(path, "r", encoding="utf-8") as handle:
            monkeypatch.setattr("sys.stdin", handle)
            code, doc = run(capsys, "diag", "-")
        assert code == 2 and doc["error"]["code"] == "schema"

    def test_search_depth_does_not_depend_on_the_recursion_limit(self, capsys, files, request):
        isolated = files["write"]("isolated.json", forest_to_dict(ProximityForest.make(2, *[(1, [])] * 300)))
        expected = run(capsys, "canon", "--kind", "forest", isolated)
        request.getfixturevalue("low_recursion_limit")
        assert run(capsys, "canon", "--kind", "forest", isolated) == expected
        assert expected[0] == 0

    def test_search_over_the_work_budget(self, capsys, monkeypatch, files):
        monkeypatch.setattr(equivalence, "WORK_LIMIT", 10_000)
        empty = files["write"]("empty.json", {"dimension": 2, "size": 200, "entries": []})
        code, doc = run(capsys, "canon", "--kind", "tensor", empty)
        assert code == 3 and doc["error"] == {
            "code": "limit",
            "message": "canonical search exceeded 10000 colours scanned at depth 50",
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ("equiv", "--kind", "forest", "-", "-"),
            ("equiv", "--kind", "tensor", "@tensor", "-", "@pairs", "-"),
            ("compat", "--kind", "forest", "-", "-"),
            ("quotient", "-", "-"),
        ],
        ids=["equiv", "marked equiv", "compat", "quotient"],
    )
    def test_stdin_is_read_once(self, capsys, monkeypatch, files, argv):
        """Two documents named ``-`` are refused before either is read, with a message that names stdin."""
        text = Path(files["forest"]).read_text(encoding="utf-8")
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, doc = run(capsys, *(files[a[1:]] if a.startswith("@") else a for a in argv))
        message = "stdin can be read only once, so at most one document may be -"
        assert code == 2 and doc == {"error": {"code": "invalid-input", "message": message}}
        assert sys.stdin.read() == text

    def test_stdin_input(self, capsys, monkeypatch, files, three_chain_mixed):
        with open(files["forest"], "r", encoding="utf-8") as handle:
            monkeypatch.setattr("sys.stdin", handle)
            code, doc = run(capsys, "tensor", "-")
        assert code == 0
        assert doc == tensor_to_dict(tensor_from_forest(three_chain_mixed))


class TestErrorTable:
    """Each row of the error table: what a handler raises sets the printed code and the exit status."""

    ROWS = [
        (SchemaError("not a tensor"), "schema", 2, "not a tensor"),
        (NotContractibleError("no final component"), "not-contractible", 2, "no final component"),
        (SearchLimitError("over the bound"), "limit", 3, "over the bound"),
        (MemoryError(), "limit", 3, "MemoryError"),
        (ValueError("not final"), "invalid-input", 2, "not final"),
        (IndexError("out of range"), "invalid-input", 2, "out of range"),
        (OSError("unreadable"), "io", 2, "unreadable"),
    ]

    @staticmethod
    def raising(exc):
        def handler(*args):
            raise exc

        return handler

    @pytest.mark.parametrize("exc, code, status, message", ROWS, ids=[type(row[0]).__name__ for row in ROWS])
    def test_row(self, capsys, monkeypatch, files, exc, code, status, message):
        monkeypatch.setattr(cli, "diagonal", self.raising(exc))
        assert run(capsys, "diag", files["tensor"]) == (status, {"error": {"code": code, "message": message}})

    def test_other_exceptions_propagate(self, capsys, monkeypatch, files):
        monkeypatch.setattr(cli, "diagonal", self.raising(KeyError(1)))
        with pytest.raises(KeyError):
            main(["diag", files["tensor"]])
        assert capsys.readouterr().out == ""


HUGE = 2**62


class TestShortDocuments:
    """Short documents that once ended in ``MemoryError``, or ran without end, each end in one canonical line."""

    DOCUMENTS = {
        "pure": {"dimension": HUGE, "size": 1, "entries": []},
        "deep-forest": {"dimension": HUGE, "points": [{"id": 1, "degree": 1, "proximate_to": []}]},
        "wide-forest": {
            "dimension": 30,
            "points": [{"id": k, "degree": 1, "proximate_to": list(range(1, k))} for k in range(1, 32)],
        },
        "huge-size": {"dimension": 2, "size": HUGE, "entries": []},
        "one-block": {"blocks": [[1]]},
    }
    BYTES = {
        "not-utf8": b"\xff\xfe{}",
        "long-integer": b'{"dimension":2,"entries":[{"index":[1,1],"value":' + b"9" * 5000 + b'}],"size":1}',
    }
    NOT_A_PARTITION = {"error": {"code": "invalid-input", "message": f"blocks do not partition 1..{HUGE}"}}
    REFUSED = {"error": {"code": "limit", "message": "MemoryError"}}

    @staticmethod
    def over_the_bound(estimate):
        return {"error": {"code": "limit", "message": f"the tensor would hold about {estimate} index elements, over the bound 2000000"}}

    CASES = [
        (("diag", "pure"), 0, {"diagonal": [0]}),
        (("canon", "--kind", "tensor", "pure"), 0, None),
        (("orbits", "pure"), 0, {"orbits": [[1]]}),
        (("equiv", "--kind", "tensor", "pure", "pure"), 0, {"equivalent": True, "permutation": [1]}),
        (("compat", "--kind", "tensor", "pure", "one-block"), 0, {"compatible": True}),
        (("contract", "pure", "1"), 2, {"error": {"code": "invalid-input", "message": "component 1 is not final"}}),
        (("tensor", "deep-forest"), 3, over_the_bound(HUGE)),
        (("tensor", "wide-forest"), 3, over_the_bound(30 * sum(math.comb(k + 29, 30) for k in range(1, 32)))),
        (("diag", "huge-size"), 3, REFUSED),
        (("canon", "--kind", "tensor", "huge-size"), 3, REFUSED),
        (("orbits", "huge-size"), 3, REFUSED),
        (("equiv", "--kind", "tensor", "huge-size", "huge-size"), 3, REFUSED),
        (("compat", "--kind", "tensor", "huge-size", "one-block"), 2, NOT_A_PARTITION),
        (("quotient", "huge-size", "one-block"), 2, NOT_A_PARTITION),
    ]

    def measure(self, capsys, argv):
        """Exit code and document of one call, after checking it prints one canonical line in 1 s and 50 MB."""
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code = main(list(argv))
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert out == canonical_json(doc) + "\n"
        assert elapsed < 1.0 and peak < 50_000_000
        return code, doc

    @pytest.mark.parametrize("argv, status, expected", CASES, ids=[" ".join(argv) for argv, _, _ in CASES])
    def test_ends_in_one_line(self, capsys, files, argv, status, expected):
        paths = {name: files["write"](f"{name}.json", doc) for name, doc in self.DOCUMENTS.items()}
        code, doc = self.measure(capsys, [paths.get(arg, arg) for arg in argv])
        assert code == status
        assert expected is None or doc == expected

    @pytest.mark.parametrize("name", BYTES)
    def test_undecodable_document_is_a_schema_error(self, capsys, monkeypatch, files, name):
        path = files["dir"] / f"{name}.json"
        path.write_bytes(self.BYTES[name])
        code, doc = self.measure(capsys, ["diag", str(path)])
        assert code == 2 and doc["error"]["code"] == "schema"
        assert doc["error"]["message"].startswith(f"{path}: malformed JSON: ")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(self.BYTES[name]), encoding="utf-8"))
        code, doc = self.measure(capsys, ["diag", "-"])
        assert code == 2 and doc["error"]["code"] == "schema"
        assert doc["error"]["message"].startswith("-: malformed JSON: ")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=12), inner, max_size=3),
    max_leaves=8,
)
# Values that break a field's type or range; the twin sizes keep a search of n twins, O(n^2), short.
ODD_VALUES = st.sampled_from([0, -1, 1.5, True, "1", None, [], 2**63, -(2**63), 2**63 - 1])
TWIN_SIZES = st.integers(0, 64)
HUGE_SIZES = st.integers(2**40, 2**62)


@st.composite
def fuzz_documents(draw, want: str):
    """A document for ``canon``, ``orbits`` or ``equiv``, mostly of kind ``want``, spoilt or not.

    Spoilt documents break a field's type or range, or hold a defect from
    ``TENSOR_DEFECTS``.  Adversarial ones are valid but ask for work: up
    to 64 twins, or a ``size`` of 2^40 or more, too large for one list.
    Sizes in between are left out.  A class of n twins costs n search
    nodes, each reading its target cell, but the search budget charges
    each node n colours, so from n = 4,000 such a search exits 3; and a
    larger ``size`` is allocated as lists before any check, so it takes
    memory that grows with ``size`` until the host refuses it (ROADMAP
    item 5).
    """
    kind = draw(st.sampled_from([want] * 4 + ["tensor", "forest", "partition", "json"]))
    if kind == "json":
        return draw(JSON_VALUES)
    rng = random.Random(draw(st.integers(0, 10**6)))
    forest = random_forest(rng.randrange(10**6), draw(st.integers(2, 4)), draw(st.integers(0, 8)), 3)
    spoil = draw(st.sampled_from(["none", "field", "twins", "huge", "defect"]))
    if kind == "partition":
        doc = partition_to_dict(random_partition(len(forest), rng))
        if spoil != "none" and doc["blocks"]:
            block = draw(st.sampled_from(doc["blocks"]))
            block.append(draw(st.sampled_from([block[0], 0, len(forest) + 1, True, "1", 2**63])))
        return doc
    if kind == "forest":
        doc = forest_to_dict(forest)
        points = doc["points"]
        if spoil == "twins":
            points[:] = [{"id": i, "degree": 1, "proximate_to": [1] if i > 1 else []} for i in range(1, draw(TWIN_SIZES) + 1)]
        elif spoil == "huge":
            doc["dimension"] = draw(HUGE_SIZES)
        elif spoil in ("field", "defect") and points:
            point = draw(st.sampled_from(points))
            field = draw(st.sampled_from(["id", "degree", "proximate_to"]))
            if draw(st.booleans()):
                point[field] = draw(ODD_VALUES)
            else:
                point["proximate_to"].append(draw(ODD_VALUES | st.integers(0, len(points) + 1)))
        return doc
    doc = tensor_to_dict(tensor_from_forest(forest))
    if spoil == "twins":
        doc.update(size=draw(TWIN_SIZES), entries=[])
    elif spoil == "huge":
        doc["size"] = draw(HUGE_SIZES)
    elif spoil == "field":
        doc[draw(st.sampled_from(["dimension", "size", "entries"]))] = draw(ODD_VALUES)
    elif spoil == "defect" and doc["entries"]:
        choose = lambda items: items[draw(st.integers(0, len(items) - 1))]  # noqa: E731
        spoil_tensor_entry(doc, draw(st.integers(0, len(doc["entries"]) - 1)), draw(st.sampled_from(TENSOR_DEFECTS)), choose)
    return doc


class TestFuzz:
    """Each call of ``canon``, ``orbits`` or ``equiv`` on drawn documents ends in one canonical line."""

    @settings(max_examples=200, deadline=None)
    @given(command=st.sampled_from(["canon", "orbits", "equiv", "equiv-marked"]), kind=st.sampled_from(["forest", "tensor"]), data=st.data())
    def test_exit_code_line_time_and_memory(self, command, kind, data):
        """An exit code in 0-3, one canonical JSON line, under 2 s and a 50 MB ``tracemalloc`` peak."""
        first = data.draw(fuzz_documents(kind))
        # An input compared with itself reaches the search and its verification.
        second = first if data.draw(st.booleans()) else data.draw(fuzz_documents(kind))
        docs = [first, second, data.draw(fuzz_documents("partition")), data.draw(fuzz_documents("partition"))]
        with tempfile.TemporaryDirectory() as root:
            paths = []
            for k, doc in enumerate(docs):
                paths.append(os.path.join(root, f"{k}.json"))
                with open(paths[-1], "w", encoding="utf-8") as handle:
                    json.dump(doc, handle)
            argv = {
                "canon": ["canon", "--kind", kind, paths[0]],
                "orbits": ["orbits", "--kind", kind, paths[0]],
                "equiv": ["equiv", "--kind", kind, *paths[:2], "--exit-status"],
                "equiv-marked": ["equiv", "--kind", kind, *paths],
            }[command]
            code, doc = bounded_main(argv)
        assert code in (0, 1, 2, 3)
        assert code != 1 or doc.get("equivalent") is False

    @pytest.mark.parametrize("command", ["recover", "recover-all"])
    @pytest.mark.parametrize("d, n", [(2, 250), (2, 500), (2, 1000), (2, 2000), (3, 80)])
    def test_a_fan_is_refused_before_its_blow_down(self, tmp_path, command, d, n):
        """A final with ``n`` neighbours, holding its rank-one premise keys and the neighbours' pure powers.

        Blown down, it would write ``C(n + d - 1, d)`` keys: 2,001,000 at d 2 and n 2,000.
        """
        w = (-1) ** (d - 1)
        premise = {key: w * (-1) ** (d - key.count(1)) for key in itertools.combinations_with_replacement(range(1, n + 2), d)
                   if key[0] == 1}
        fan = IntersectionTensor(d, n + 1, {**premise, **{(j,) * d: w for j in range(2, n + 2)}})
        path = tmp_path / "fan.json"
        path.write_text(canonical_json(tensor_to_dict(fan)))
        code, doc = bounded_main([command, str(path)])
        message = f"final component 1 meets {n} components, at most {d} allowed"
        assert code == 2 and doc["error"] == {"code": "not-contractible", "message": message}


def bounded_main(argv: list[str]) -> tuple[int, dict]:
    """``main(argv)``'s exit code and document, which must be one canonical line, under 2 s and a 50 MB ``tracemalloc`` peak."""
    out = io.StringIO()
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = out.getvalue()
    doc = json.loads(text)
    assert text == canonical_json(doc) + "\n"
    assert elapsed < 2.0 and peak < 50_000_000
    return code, doc


class TestOrdersText:
    """``recover-all`` and ``recover --trace`` write text byte-equal to the canonical JSON of their documents."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        dimension=st.integers(2, 4),
        size=st.integers(0, 6),
        how=st.sampled_from(["none", "relabel", "entry", "negate", "isolated", "diagonal"]),
    )
    def test_output_is_the_canonical_document(self, seed, dimension, size, how):
        rng = random.Random(seed)
        forest = random_forest(seed, dimension, size, 3)
        if how == "relabel":
            forest, _ = random_relabel(forest, rng)
        tensor = tensor_from_forest(forest)
        if how not in ("none", "relabel"):
            tensor = perturb(tensor, how, rng)
        try:
            results = recover_all_orders(tensor)
        except (NotContractibleError, SearchLimitError):
            return
        _, first = recover_sequence(tensor)
        with tempfile.TemporaryDirectory() as root:
            path, trace_path = os.path.join(root, "t.json"), os.path.join(root, "trace.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(canonical_json(tensor_to_dict(tensor)))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["recover-all", path]) == 0
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["recover", path, "--trace", trace_path]) == 0
            with open(trace_path, encoding="utf-8") as handle:
                trace_text = handle.read()
        assert out.getvalue() == oracle_orders_document(results) + "\n"
        assert trace_text == canonical_json(oracle_trace_dict(first)) + "\n"

    def test_disjoint_points_share_steps_and_points(self, monkeypatch, tmp_path):
        """Six disjoint points have 720 orders: no trace derives its index maps, and every order holds one point."""
        path = tmp_path / "points.json"
        path.write_text(canonical_json(tensor_to_dict(tensor_from_forest(ProximityForest.make(2, *[(1, [])] * 6)))))
        survivors, results = [], []
        original_survivors = ContractionTrace._survivors

        def counting(trace):
            survivors.append(trace)
            return original_survivors(trace)

        def keeping(*args):
            results.extend(recover_all_orders(*args))
            return results

        monkeypatch.setattr(ContractionTrace, "_survivors", counting)
        monkeypatch.setattr(cli, "recover_all_orders", keeping)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["recover-all", str(path)]) == 0
        assert json.loads(out.getvalue())["count"] == len(results) == 720
        assert survivors == []
        assert len({id(point) for forest, _ in results for point in forest.points}) == 1


class TestOrdersCost:
    """``recover-all`` on 6 disjoint points: its 720 orders share 1,956 prefixes, and each order pays for its new steps."""

    def test_points_are_made_per_prefix_and_written_per_position(self, monkeypatch, tmp_path):
        path = tmp_path / "points.json"
        path.write_text(canonical_json(tensor_to_dict(tensor_from_forest(ProximityForest.make(2, *[(1, [])] * 6)))))
        written, looked_up = [], []

        class CountingTemplate(str):
            def __mod__(self, values):
                written.append(values[1])
                return str.__mod__(self, values)

        point = contraction._point

        def counting_point(*args):
            looked_up.append(args[1:])
            return point(*args)

        monkeypatch.setattr(blowups.io, "_POINT_JSON", CountingTemplate(blowups.io._POINT_JSON))
        monkeypatch.setattr(contraction, "_point", counting_point)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["recover-all", str(path)]) == 0
        assert json.loads(out.getvalue())["count"] == 720
        # One point at each of 6 positions, against 720 * 6 points written.
        assert sorted(written) == [1, 2, 3, 4, 5, 6]
        # A step's point is looked up once per prefix ending in it, against 720 * 6 steps.
        assert len(looked_up) <= sum(math.perm(6, k) for k in range(1, 7)) == 1956


class TestCanonText:
    """``canon`` writes its line around the canonical leaf's bytes, with no relabelling and no JSON encoder."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        dimension=st.integers(2, 4),
        size=st.integers(0, 8),
        kind=st.sampled_from(["forest", "tensor"]),
        how=st.sampled_from(["none", "relabel", "no entries", "entry", "negate", "isolated", "diagonal"]),
    )
    def test_output_is_the_old_document(self, seed, dimension, size, kind, how):
        """Byte-equal to the canonical JSON of the document built from ``relabeled``, as ``canon`` wrote it before."""
        rng = random.Random(seed)
        forest = random_forest(seed, dimension, size, 3)
        if how == "relabel":
            forest, _ = random_relabel(forest, rng)
        obj = forest
        if kind == "tensor":
            obj = tensor_from_forest(forest)
            if how == "no entries":
                obj = type(obj)(dimension, size, {})
            elif how not in ("none", "relabel"):
                obj = perturb(obj, how, rng)
        to_dict = forest_to_dict if kind == "forest" else tensor_to_dict
        calls = {"relabel": 0, "canonical_json": 0}

        def counting(name, method):
            def wrapper(*args):
                calls[name] += 1
                return method(*args)

            return wrapper

        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "input.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(canonical_json(to_dict(obj)))
            out = io.StringIO()
            with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
                for cls in (equivalence._DigraphStructure, equivalence._TensorStructure):
                    patch.setattr(cls, "relabel", counting("relabel", cls.relabel))
                patch.setattr(cli.io, "canonical_json", counting("canonical_json", cli.io.canonical_json))
                assert main(["canon", "--kind", kind, path]) == 0
        assert calls == {"relabel": 0, "canonical_json": 0}
        form = equivalence.canonical_form(obj)
        document = {"kind": kind, "hash": form.hash, "permutation": list(form.relabeling), "canonical": to_dict(form.relabeled)}
        assert out.getvalue() == canonical_json(document) + "\n"


class TestParserReuse:
    """``main`` builds its parser once per process, and no option carries from one call to the next."""

    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def test_parser_is_built_once(self, capsys, monkeypatch, files):
        built = []
        build = cli.build_parser

        def counting():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        for argv in (["diag", files["tensor"]], ["finals", files["tensor"]], ["canon", "--kind", "tensor", files["tensor"]]):
            assert main(argv) == 0
        capsys.readouterr()
        assert len(built) == 1

    def test_trace_does_not_carry(self, capsys, files):
        trace_path = files["dir"] / "trace.json"
        assert run(capsys, "recover", files["tensor"], "--trace", str(trace_path))[0] == 0
        trace_path.unlink()
        assert run(capsys, "recover", files["tensor"])[0] == 0
        assert not trace_path.exists()

    def test_exit_status_does_not_carry(self, capsys, files):
        pair = ("equiv", "--kind", "tensor", files["tensor"], files["tensor2"])
        assert run(capsys, *pair, "--exit-status") == (1, {"equivalent": False})
        assert run(capsys, *pair) == (0, {"equivalent": False})

    def test_limit_does_not_carry(self, capsys, files):
        two = files["write"](
            "two.json",
            tensor_to_dict(tensor_from_forest(ProximityForest.make(2, (1, []), (1, [])))),
        )
        code, doc = run(capsys, "recover-all", two, "--limit", "1")
        assert code == 3 and doc["error"]["code"] == "limit"
        code, doc = run(capsys, "recover-all", two)
        assert code == 0 and doc["count"] == 2

    def test_rejected_call_leaves_no_state(self, capsys, monkeypatch, files):
        """After argparse rejects a call, the next call prints what a fresh process prints."""
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line at the terminal width

        def fresh(*argv):
            return subprocess.run([sys.executable, "-m", "blowups", *argv], capture_output=True, text=True)

        rejected = ("canon", files["tensor"])
        with pytest.raises(SystemExit) as exc:
            main(list(rejected))
        assert exc.value.code == 2
        assert capsys.readouterr().err == fresh(*rejected).stderr
        valid = ("canon", "--kind", "tensor", files["tensor"])
        code = main(list(valid))
        expected = fresh(*valid)
        assert (code, capsys.readouterr().out) == (expected.returncode, expected.stdout)


class TestParserParity:
    """A call parsed by its command's sub-parser alone prints, and exits, as one parsed by the full parser."""

    ARGVS = [
        ("tensor", "@forest"),
        ("finals", "@tensor"),
        ("contract", "@tensor", "3"),
        ("recover", "@tensor"),
        ("recover-all", "@tensor", "--limit", "5"),
        ("equiv", "--kind", "tensor", "@tensor", "@tensor2", "--exit-status"),
        ("equiv", "--kind", "forest", "@forest", "@forest2", "@pairs", "@pairs"),
        ("canon", "--kind", "forest", "@forest"),
        ("orbits", "@forest", "--kind", "forest"),
        ("compat", "--kind", "tensor", "@tensor", "@pairs"),
        ("quotient", "@tensor", "@pairs"),
        ("diag", "@tensor"),
        ("validate", "--strict", "@forest"),
        ("gen", "--dim", "2", "--points", "4"),
        ("-h",),
        ("canon", "-h"),
        ("recover-all", "--help"),
        (),
        ("nope", "@tensor"),
        ("--kind", "forest", "canon", "@forest"),
        ("canon", "@forest"),
        ("canon", "--kind", "graph", "@forest"),
        ("diag", "@tensor", "x"),
        ("diag", "@tensor", "--zz"),
        ("contract", "@tensor", "three"),
        ("equiv", "--kind", "tensor"),
    ]

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("exit", exc.code)
        out, err = capsys.readouterr()
        return code, out, err

    def test_routes_agree(self, capsys, monkeypatch, files):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line at the terminal width
        cli._parser.cache_clear()
        argvs = [tuple(files[a[1:]] if a.startswith("@") else a for a in argv) for argv in self.ARGVS]
        ours = [self.outcome(capsys, argv) for argv in argvs]
        full, _ = cli._parser()
        monkeypatch.setattr(cli, "_parser", lambda: (full, {}))  # no command is known: every call takes the full parser
        assert [self.outcome(capsys, argv) for argv in argvs] == ours
        assert [code for code, _, _ in ours].count(("exit", 2)) == 9


class TestInstalledEntryPoints:
    def test_module_invocation(self, files):
        proc = subprocess.run(
            [sys.executable, "-m", "blowups", "diag", files["tensor"]],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"diagonal": [-2, -4, -3]}

    def test_console_script(self, files):
        # The script exists only after `pip install`, so check the declaration
        # in pyproject.toml and run its target the way the generated wrapper
        # does; an installed `blowups` on PATH is run as well.
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as handle:
            scripts = tomllib.load(handle)["project"]["scripts"]
        assert scripts.get("blowups") == "blowups.cli:main"
        module, attr = scripts["blowups"].split(":")
        wrapper = (
            f"import sys; from {module} import {attr}; "
            f"sys.argv[0] = 'blowups'; sys.exit({attr}())"
        )
        commands = [[sys.executable, "-c", wrapper]]
        exe = shutil.which("blowups")
        if exe is not None:
            commands.append([exe])
        for command in commands:
            proc = subprocess.run(
                [*command, "finals", files["tensor"]], capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout) == {"finals": [3]}

    def test_pipeline_via_stdin(self, files):
        gen = subprocess.run(
            [sys.executable, "-m", "blowups", "gen", "--seed", "3", "--dim", "2", "--points", "5"],
            capture_output=True,
            text=True,
        )
        tensor = subprocess.run(
            [sys.executable, "-m", "blowups", "tensor", "-"],
            input=gen.stdout,
            capture_output=True,
            text=True,
        )
        recover = subprocess.run(
            [sys.executable, "-m", "blowups", "recover", "-"],
            input=tensor.stdout,
            capture_output=True,
            text=True,
        )
        assert recover.returncode == 0
        # recovery may renumber interchangeable points, so compare up to isomorphism
        original = forest_from_dict(json.loads(gen.stdout))
        recovered = forest_from_dict(json.loads(recover.stdout))
        assert forest_isomorphic(original, recovered) is not None
