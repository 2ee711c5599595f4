"""The benchmark's tracer wraps library functions by module and name.

``perfbench/tracer.py`` replaces each name it measures with a wrapper and
puts the originals back afterwards.  A renamed or deleted library name
would otherwise break only traced benchmark runs.
"""

from __future__ import annotations

import importlib
import importlib.util
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path
from types import SimpleNamespace

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = ("cli", "contraction", "equivalence", "tensor", "io", "forest")


def _load():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    lib = SimpleNamespace(**{name: importlib.import_module(f"blowups.{name}") for name in MODULES})
    return tracing, lib


def test_instrument_patches_names_and_uninstall_restores_them():
    tracing, lib = _load()
    before = {name: dict(vars(getattr(lib, name))) for name in MODULES}
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer, lib)
        assert lib.contraction.contract is not before["contraction"]["contract"]
        assert lib.contraction.is_final is not before["contraction"]["is_final"]
    finally:
        tracer.uninstall()
    for name in MODULES:
        after = vars(getattr(lib, name))
        assert after.keys() == before[name].keys()
        for attr, original in before[name].items():
            assert after[attr] is original, f"blowups.{name}.{attr} not restored"


def test_final_set_probes_every_component_through_is_final():
    # ``contraction.is_final_calls`` and ``probes_per_stage`` count calls of the module global ``is_final``.
    tracing, lib = _load()
    chain = lib.forest.ProximityForest.make(4, (1, []), (1, [1]), (3, [2]))
    tensor = lib.tensor.tensor_from_forest(chain)
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer, lib)
        assert lib.contraction.final_set(tensor) == {3}
    finally:
        tracer.uninstall()
    assert tracer.counts["is_final"] == tensor.size
    assert tracer.counts["is_final_under_contraction.final_set"] == tensor.size


def test_reused_parser_calls_the_patched_names(tmp_path):
    # ``cli.main`` keeps one parser per process; its handlers must still look up ``canonical_form`` when they run.
    tracing, lib = _load()
    forest = lib.forest.ProximityForest.make(2, (1, []), (1, [1]), (1, [1]))
    path = tmp_path / "forest.json"
    path.write_text(lib.io.canonical_json(lib.io.forest_to_dict(forest)) + "\n", encoding="utf-8")
    argv = ["canon", "--kind", "forest", str(path)]
    with redirect_stdout(StringIO()):
        assert lib.cli.main(argv) == 0  # the parser exists before anything is patched
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer, lib)
        for calls in (1, 2):
            with redirect_stdout(StringIO()):
                assert lib.cli.main(argv) == 0
            assert tracer.counts["equivalence.canonical.calls"] == calls
    finally:
        tracer.uninstall()
