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


def test_instrument_patches_names_and_uninstall_restores_them():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    lib = SimpleNamespace(**{name: importlib.import_module(f"blowups.{name}") for name in MODULES})
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
