"""The demos print the same bytes as when their output was last reviewed.

Each demo runs in a child process; its stdout is compared by SHA-256.
The shell pipeline finds ``blowups`` through a shim on ``PATH`` that runs
``python -m blowups`` from this checkout (``conftest`` sets ``PYTHONPATH``).
A change that alters a digest on purpose must update it here.
"""

from __future__ import annotations

import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

DIGESTS = {
    "01_intersection_tensors.py": "52735f61faf2d8fc40bedae59ae3a788a7dba5a1a35c7da3677d9618c89b0af0",
    "02_recovering_sequences.py": "e330755dd9a02dd63f5f25a776031aea161905fcc3c901b055d329575797d4be",
    "03_contraction_orders.py": "17cd92ea50ff3ec8aa66dd5ffbe5b8fa2f0ca990a8c65107ed6fc7cc8e1adca3",
    "04_marked_partitions.py": "e8580c868fe4b9a11dcff769be0ad60a12bacea82d9bb1b82a77778af15002a3",
    "05_cli_pipeline.sh": "5ad357bb162c80b0ee153a5875f8a05addbfab41b674946af9155943c4764f44",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.iterdir() if p.suffix in {".py", ".sh"}) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output(name, tmp_path):
    env = dict(os.environ)
    if name.endswith(".sh"):
        shim = tmp_path / "blowups"
        shim.write_text(f'#!/bin/sh\nexec {shlex.quote(sys.executable)} -m blowups "$@"\n')
        shim.chmod(0o755)
        env["PATH"] = os.pathsep.join([str(tmp_path), env.get("PATH", "")])
        command = ["sh", str(DEMOS / name)]
    else:
        command = [sys.executable, str(DEMOS / name)]
    proc = subprocess.run(command, capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[name]
