"""Workload cells, golden listings and the oracle cross-check.

A workload is a fixed list of CLI cells (argument vectors for
``matroidcat.catalogue.main``).  Every cell is exhaustive and deterministic,
so the benchmark seed only permutes the order of the cells within a pass;
the listing of each cell is checked against a SHA-256 recorded from the
seed commit in ``goldens.json``.

Run this file to re-derive the listings once, outside any timing, compare
them with the stored digests and cross-check them with the package's
independent oracles::

    python3 perfbench/workloads.py --check      # verify goldens.json
    python3 perfbench/workloads.py --record     # rewrite goldens.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"

WORKLOADS = ("scan", "sweep", "dual")


def _generate(k: int, n: int, cls: str, *extra: str) -> tuple[str, ...]:
    return ("generate", "--rank", str(k), "--size", str(n), "--class", cls) + extra


def _sweep(max_k: int, max_n: int) -> list[tuple[str, ...]]:
    # the acceptance criterion-8 sweep: every 1 <= k <= min(n, max_k)
    return [
        _generate(k, n, "connected-simple", "--regular-only", "--tutte")
        for n in range(1, max_n + 1)
        for k in range(1, min(n, max_k) + 1)
    ]


def cells(workload: str, tiny: bool = False) -> list[tuple[str, ...]]:
    """Cells of a workload in their canonical order.

    ``tiny`` gives the smoke-test variant, with every generated rank <= 3.
    """
    if workload == "scan":
        # both candidate paths: combinations (simple) and multiplicities
        # with ties (loopless); almost no entry reaches the later layers
        if tiny:
            return [
                _generate(3, 6, "simple"),
                ("counts", "--max-rank", "3", "--max-size", "5", "--class", "loopless"),
            ]
        return [
            _generate(5, 10, "simple"),
            ("counts", "--max-rank", "5", "--max-size", "9", "--class", "loopless"),
        ]
    if workload == "sweep":
        return _sweep(3, 6) if tiny else _sweep(5, 10)
    if workload == "dual":
        # high-rank duals of a rank-2 side: regularity on the rank-11 duals
        # is nearly all the work; enumeration and Tutte stay idle
        if tiny:
            return [("dual-listing", "--rank", "3", "--size", "5", "--class", "connected-loopless")]
        return [("dual-listing", "--rank", "11", "--size", "13", "--class", "connected-loopless")]
    raise ValueError(f"unknown workload {workload!r}")


def pass_order(workload: str, seed: int, index: int, tiny: bool = False) -> list[tuple[str, ...]]:
    """The cells of pass ``index`` of a run, permuted by the seed."""
    order = cells(workload, tiny)
    random.Random(f"{workload}:{seed}:{index}").shuffle(order)
    return order


def cell_key(cell: tuple[str, ...]) -> str:
    return " ".join(cell)


def writes_listing(cell: tuple[str, ...]) -> bool:
    """generate and dual-listing write through --out; counts prints a table."""
    return cell[0] != "counts"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_goldens() -> dict[str, dict]:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)["cells"]


# -- recording and cross-checking (outside any timing) -----------------------


def _run_cell(main, cell: tuple[str, ...]) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(list(cell))
    if rc != 0:
        raise RuntimeError(f"{cell_key(cell)} exited with {rc}")
    return buf.getvalue().encode("ascii")


def _required_flags(cell: tuple[str, ...]) -> str:
    cls = cell[cell.index("--class") + 1]
    need = "L"
    if cls.endswith("simple"):
        need += "S"
    if cls.startswith("connected-"):
        need += "C"
    if "--regular-only" in cell:
        need += "R"
    return need


def cross_check(cell: tuple[str, ...], listing: bytes) -> list[str]:
    """Problems found by the independent oracles in one cell's listing.

    Every entry must carry the flag letters its class requires, and every
    Tutte grid must equal the deletion-contraction evaluation.
    """
    from matroidcat.catalogue import CatalogueEntry, matroid_of_labels
    from matroidcat.tutte import tutte_by_deletion_contraction

    if not writes_listing(cell):
        return []
    problems = []
    need = _required_flags(cell)
    for line in listing.decode("ascii").splitlines():
        entry = CatalogueEntry.from_line(line)
        missing = [f for f in need if f not in entry.flags]
        if missing:
            problems.append(f"{line}: flags lack {''.join(missing)}")
        if entry.tutte is not None:
            m = matroid_of_labels(entry.labels, entry.rank)
            if tutte_by_deletion_contraction(m).grid != entry.tutte.grid:
                problems.append(f"{line}: Tutte grid disagrees with deletion-contraction")
    return problems


def _all_cells() -> list[tuple[str, ...]]:
    out = []
    for w in WORKLOADS:
        for tiny in (False, True):
            for c in cells(w, tiny):
                if c not in out:
                    out.append(c)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", action="store_true", help="rewrite goldens.json")
    mode.add_argument("--check", action="store_true", help="verify goldens.json")
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "matroidcat" / "__init__.py").is_file():
        print(f"error: no package at {src}/matroidcat", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from matroidcat.catalogue import main as cli_main

    stored = {} if args.record else load_goldens()
    recorded: dict[str, dict] = {}
    bad = 0
    for cell in _all_cells():
        listing = _run_cell(cli_main, cell)
        key = cell_key(cell)
        problems = cross_check(cell, listing)
        if not args.record and stored.get(key, {}).get("sha256") != digest(listing):
            problems.append("digest differs from goldens.json")
        for p in problems:
            print(f"FAIL {key}: {p}")
        bad += bool(problems)
        recorded[key] = {
            "sha256": digest(listing),
            "bytes": len(listing),
            "lines": listing.count(b"\n"),
        }
        print(f"{'ok  ' if not problems else 'bad '} {key}  lines={recorded[key]['lines']}")
    if args.record and not bad:
        with open(GOLDENS, "w", encoding="utf-8") as fh:
            json.dump({"cells": recorded}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
