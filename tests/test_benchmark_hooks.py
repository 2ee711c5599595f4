"""The benchmark's tracer wraps library functions by module and name.

``perfbench/tracer.py`` replaces each name it measures with a wrapper and
puts the originals back afterwards.  A renamed or deleted library name
would otherwise break only traced benchmark runs.
"""

from __future__ import annotations

import importlib
import importlib.util
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
