"""Every benchmark listing still matches its golden digest and its oracles,
and so do the frontier cells beyond the benchmark.

``perfbench/workloads.py --check`` re-derives each workload cell's listing,
compares it byte for byte with the SHA-256 in ``perfbench/goldens.json``
(the counts table included), checks each entry's flag letters against its
class and each Tutte grid against deletion-contraction.  It runs here from
the repository root in a fresh interpreter, reading perfbench/ only.

``frontier_digests.json`` holds the SHA-256 of eleven larger listings: seven
of the deepest cells of the orderly scan that tier-1 can afford, and four
``counts`` tables.  The first three were recorded with the scan before
witness backjumping, simple rank 6 / size 12 with the scan before the fill
retried its last witnesses, and connected-simple rank 7 / size 11
``--regular-only --tutte`` with the
regularity walk that reduced every column against each independent subset,
so it pins the rank-7 regularity verdicts byte for byte.  Simple rank 7 /
size 11 was recorded with the search that merged each automorphism's
orbits over every label, so it pins the rank-7 simple scan byte for byte.
Loopless rank 2 / size 260 ``--force`` was recorded with the scan that ran
the canonicity search on every candidate; its multiplicities reach 258, so
it pins the weight distribution's 2-byte fields.  The four whole-guard
``counts`` tables (rank <= 7, size <= 15, one per plain class, read from
stdout) were recorded with the cycle types walked one label at a time, so
they pin every cycle type of GL(k, 2) for k <= 7 that Burnside's lemma
reads.
"""

from __future__ import annotations

import hashlib
import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
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


def _listing(command: str, tmp_path: Path) -> bytes:
    """The bytes a command writes: to --out for generate, to stdout for
    counts, which takes no --out."""
    if command.startswith("counts"):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(command.split()) == 0
        return out.getvalue().encode("ascii")
    path = tmp_path / "listing.txt"
    assert main(command.split() + ["--out", str(path)]) == 0
    return path.read_bytes()


@pytest.mark.parametrize("command", sorted(FRONTIER))
def test_frontier_listing_matches_digest(command, tmp_path):
    data = _listing(command, tmp_path)
    assert data.count(b"\n") == FRONTIER[command]["lines"]
    assert hashlib.sha256(data).hexdigest() == FRONTIER[command]["sha256"]


def test_simple_counts_match_the_scan_frontier(tmp_path):
    # the simple classes that the orderly scan listed at ranks 6 and 7 (the
    # README's enumeration frontier table), against the cycle index's table
    rows = _listing("counts --max-rank 7 --max-size 15 --class simple", tmp_path)
    cells = [row.split()[1:] for row in rows.decode("ascii").splitlines()[1:]]
    assert [int(c) for c in cells[5][10:14]] == [273, 700, 1794, 4579]
    assert [int(c) for c in cells[6][9:15]] == [80, 312, 1285, 5632, 26792, 137493]
