"""Importing the package loads no dataclass or introspection machinery.

The three records are named tuples, so ``import matroidcat`` has no use for
``dataclasses`` or the ``inspect`` module it pulls in.  The import runs in a
fresh interpreter and is compared with the modules loaded before it, so
whatever ``site`` preloads does not count.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
before = set(sys.modules)
import matroidcat
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_import_loads_no_dataclasses():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    added = set(json.loads(proc.stdout.splitlines()[-1]))
    assert "matroidcat" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)
