"""Every benchmark listing still matches its golden digest and its oracles.

``perfbench/workloads.py --check`` re-derives each workload cell's listing,
compares it byte for byte with the SHA-256 in ``perfbench/goldens.json``
(the counts table included), checks each entry's flag letters against its
class and each Tutte grid against deletion-contraction.  It runs here from
the repository root in a fresh interpreter, reading perfbench/ only.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_workload_listings_match_goldens():
    proc = subprocess.run(
        [sys.executable, "perfbench/workloads.py", "--check"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout
