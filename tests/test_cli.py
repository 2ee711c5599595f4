from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from blowups import (
    MarkedPartition,
    ProximityForest,
    canonical_json,
    forest_from_dict,
    forest_isomorphic,
    forest_to_dict,
    partition_to_dict,
    tensor_from_forest,
    tensor_to_dict,
    trace_from_dict,
    validate_forest,
)
from blowups import cli, contraction
from blowups.cli import main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


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
        assert code == 2 and doc["error"] == {"code": "not-contractible", "message": "no final component at stage 2"}
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

    def test_search_deeper_than_recursion_limit(self, capsys, files, low_recursion_limit):
        isolated = files["write"]("isolated.json", forest_to_dict(ProximityForest.make(2, *[(1, [])] * 300)))
        code, doc = run(capsys, "canon", "--kind", "forest", isolated)
        assert code == 3 and doc["error"]["code"] == "limit"

    def test_stdin_input(self, capsys, monkeypatch, files, three_chain_mixed):
        with open(files["forest"], "r", encoding="utf-8") as handle:
            monkeypatch.setattr("sys.stdin", handle)
            code, doc = run(capsys, "tensor", "-")
        assert code == 0
        assert doc == tensor_to_dict(tensor_from_forest(three_chain_mixed))


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
