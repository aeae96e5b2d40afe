"""Every benchmark listing still matches its golden digest and its oracles,
and so do the frontier cells beyond the benchmark.

``perfbench/workloads.py --check`` re-derives each workload cell's listing,
compares it byte for byte with the SHA-256 in ``perfbench/goldens.json``
(the counts table included), checks each entry's flag letters against its
class and each Tutte grid against deletion-contraction.  It runs here from
the repository root in a fresh interpreter, reading perfbench/ only.

``frontier_digests.json`` holds the SHA-256 of six larger listings, the
deepest cells of the orderly scan that tier-1 can afford.  The first three
were recorded with the scan before witness backjumping, simple rank 6 /
size 12 with the scan before the fill retried its last witnesses, and
connected-simple rank 7 / size 11 ``--regular-only --tutte`` with the
regularity walk that reduced every column against each independent subset,
so it pins the rank-7 regularity verdicts byte for byte.  Simple rank 7 /
size 11 was recorded with the search that merged each automorphism's
orbits over every label, so it pins the rank-7 simple scan byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from matroidcat.catalogue import main

ROOT = Path(__file__).resolve().parents[1]
FRONTIER = json.loads((Path(__file__).parent / "frontier_digests.json").read_text())


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


@pytest.mark.parametrize("command", sorted(FRONTIER))
def test_frontier_listing_matches_digest(command, tmp_path):
    out = tmp_path / "listing.txt"
    assert main(command.split() + ["--out", str(out)]) == 0
    data = out.read_bytes()
    assert data.count(b"\n") == FRONTIER[command]["lines"]
    assert hashlib.sha256(data).hexdigest() == FRONTIER[command]["sha256"]
