"""Importing the package, and a CLI call, load no machinery they do not use.

The package root exports the library names of the README, so ``import
matroidcat`` loads neither the command line (``catalogue``) nor the
cycle-index counts (``orbits``).  The three records are named tuples, so it
has no use for ``dataclasses`` or the ``inspect`` module it pulls in.  The
command line is parsed from the subcommand table in ``catalogue``, so no
CLI call loads ``argparse`` or the ``gettext`` and ``locale`` modules its
messages need.  Each step runs in a fresh interpreter and is compared with
the modules loaded before it, so whatever ``site`` preloads does not count.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# prints, as its last line, the modules each step loaded: the import of the
# package, then of its command line, then one main call per argv list given
# as the first argument
SCRIPT = """
import json, sys
before = set(sys.modules)
import matroidcat
steps = [sorted(set(sys.modules) - before)]
before = set(sys.modules)
import matroidcat.catalogue
steps.append(sorted(set(sys.modules) - before))
for argv in json.loads(sys.argv[1]):
    before = set(sys.modules)
    assert matroidcat.catalogue.main(argv) == 0
    steps.append(sorted(set(sys.modules) - before))
print(json.dumps(steps))
"""


def loaded_modules(calls: list[list[str]]) -> list[set[str]]:
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(calls)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return [set(step) for step in json.loads(proc.stdout.splitlines()[-1])]


def test_import_loads_no_dataclasses():
    root, cli = loaded_modules([])
    assert "matroidcat" in root and "matroidcat.catalogue" in cli
    # the root exports the library names only: the command line and the
    # cycle-index counts are loaded by whoever imports them
    unused = {"matroidcat.catalogue", "matroidcat.orbits", "dataclasses", "inspect"}
    assert not root & unused, sorted(root)
    assert not cli & {"dataclasses", "inspect"}, sorted(cli)


def test_cli_calls_load_no_argparse(tmp_path):
    out = str(tmp_path / "cell.txt")
    calls = [
        ["generate", "--rank", "3", "--size", "4", "--class", "loopless", "--out", out],
        ["dual-listing", "--rank", "4", "--size", "6", "--class", "loopless", "--out", out],
        ["counts", "--max-rank", "2", "--max-size", "3", "--class", "loopless"],
    ]
    steps = loaded_modules(calls)
    assert len(steps) == 2 + len(calls)
    for added in steps:
        assert not added & {"argparse", "gettext", "locale"}, sorted(added)
