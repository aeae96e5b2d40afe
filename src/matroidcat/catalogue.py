"""Catalogue assembly and the command line interface.

Each subcommand is its ``run_*`` function plus its options, each option
declared once in ``_parser``; ``main`` calls the runner with the parsed
options as keywords (``counts`` prints through ``_print_counts``).

Subcommands:

* ``generate``: orderly generation for one (rank, size) cell, optional
  connectivity/regularity filters and Tutte polynomials, written as one
  entry per line.
* ``dual-listing``: entries of a high rank obtained by dualizing the
  generated low-rank side; representatives are generally non-canonical and
  marked ``dualized``, unless ``--canonicalize`` relabels each to the
  representative ``generate`` emits for its class.
* ``counts``: table of class counts over a rank/size rectangle.

``generate`` and ``dual-listing`` run the same pipeline (``_pipeline``), in
one process and one candidate at a time, so memory does not grow with the
number of candidates.  A class is one sorted label tuple throughout: the
form ``enumeration.generate`` yields and ``canonical_form`` returns, and the
``r=(...)`` field of a line.  ``counts`` reads the four plain classes off the cycle
index of GL(k, 2) (``orbits``) without enumerating; only ``--regular-only``
counts run the pipeline.  Output is deterministic: byte-identical across
runs.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional

from .enumeration import InvalidShape, canonical_form, generate
from .gf2 import Gf2Matrix, nullspace_of_reduced, rank_of_labels
from .matroid import BinaryMatroid
from .orbits import class_counts
from .regularity import is_regular
from .tutte import TuttePolynomial, tutte_by_activities

MATROID_CLASSES = (
    "loopless",
    "simple",
    "connected-loopless",
    "connected-simple",
)

MAX_SIZE = 15
MAX_RANK = 7


class ResourceGuard(Exception):
    """Request beyond the supported scale and not forced."""


class UnwritableOutput(Exception):
    """The output file cannot be opened for writing."""


# a catalogue line: the fields, order and flag letters that to_line writes
_LINE = re.compile(
    r"k=(\d+) n=(\d+) r=\((\d+(?:,\d+)*)\) flags=(L?S?C?R?)"
    r"(?: tutte=(\d+(?:[,;]\d+)*))?( dualized)?",
    re.ASCII,
)


@dataclass(frozen=True)
class CatalogueEntry:
    rank: int
    size: int
    labels: tuple[int, ...]
    flags: str  # subset of "LSCR", in that order
    tutte: Optional[TuttePolynomial] = None
    dualized: bool = False

    def to_line(self) -> str:
        labels = ",".join(map(str, self.labels))
        line = f"k={self.rank} n={self.size} r=({labels}) flags={self.flags}"
        if self.tutte is not None:
            rows = (",".join(map(str, row)) for row in self.tutte.grid)
            line += " tutte=" + ";".join(rows)
        if self.dualized:
            line += " dualized"
        return line

    @classmethod
    def from_line(cls, line: str) -> "CatalogueEntry":
        """The entry of a line that to_line writes; ValueError on any other:
        n non-decreasing labels below 2^k (label 0 is a loop) that span
        GF(2)^k, L and S flags as the labels give them, and a Tutte grid,
        if any, of (k + 1) x (n - k + 1) coefficients."""
        match = _LINE.fullmatch(line)
        if match is None:
            raise ValueError(f"malformed catalogue line {line!r}")
        k, n, labels, flags, grid, dualized = match.groups()
        k, n, labels = int(k), int(n), tuple(map(int, labels.split(",")))
        tutte = grid and TuttePolynomial(
            tuple(tuple(map(int, row.split(","))) for row in grid.split(";"))
        )
        entry = cls(k, n, labels, flags, tutte, bool(dualized))
        if len(labels) != n or list(labels) != sorted(labels) or labels[-1] >> k:
            raise ValueError(f"{line!r} does not list {n} sorted labels below 2^{k}")
        if rank_of_labels(labels) != k:
            raise ValueError(f"{line!r} has labels that do not span GF(2)^{k}")
        if flags.rstrip("CR") != _loop_flags(labels):
            raise ValueError(f"{line!r} has L and S flags its labels contradict")
        if tutte and (tutte.max_x, tutte.max_y) != (k, n - k):
            raise ValueError(f"{line!r} has a Tutte grid of the wrong shape")
        if entry.to_line() != line:
            raise ValueError(f"{line!r} writes a number with a leading zero")
        return entry


def matroid_of_labels(labels: Iterable[int], k: int) -> BinaryMatroid:
    """Matroid whose columns are the vectors named by the labels."""
    return BinaryMatroid(Gf2Matrix.from_columns(list(labels), k))


def _loop_flags(labels: tuple[int, ...]) -> str:
    """The L and S flags of the labels: L for no loop (label 0), and S for
    no loop and no two labels equal."""
    if 0 in labels:
        return ""
    return "LS" if len(set(labels)) == len(labels) else "L"


def compute_flags(labels: tuple[int, ...], m: BinaryMatroid) -> str:
    """The L, S, C, R flags of the entry whose columns the labels list.

    L and S are read off the labels (_loop_flags).  C and R are decided on
    m, the entry's own matroid or its dual: connectivity (for two or more
    elements) and regularity are invariant under duality, so dual-listing
    passes the generated side, whose low rank keeps both checks cheap.
    """
    flags = _loop_flags(labels)
    if m.is_connected():
        flags += "C"
    if is_regular(m)[0]:
        flags += "R"
    return flags


def _split_class(matroid_class: str) -> tuple[str, bool]:
    if matroid_class not in MATROID_CLASSES:
        raise ValueError(f"unknown class {matroid_class!r}")
    connected = matroid_class.startswith("connected-")
    base = matroid_class.removeprefix("connected-")
    return base, connected


def _guard(k: int, n: int, force: bool) -> None:
    if (n > MAX_SIZE or k > MAX_RANK) and not force:
        raise ResourceGuard(
            f"rank {k}, size {n} exceeds the supported scale "
            f"(rank <= {MAX_RANK}, size <= {MAX_SIZE}); pass --force to override"
        )


def _check_out(out: Optional[str]) -> None:
    """Refuse, before any work, an output path that cannot be written: an
    existing file must be writable, and a new one needs a writable directory.
    The file is neither created nor truncated here."""
    if out is None:
        return
    if not os.path.basename(out) or os.path.isdir(out):
        raise UnwritableOutput(f"output {out!r} names no file")
    if os.path.exists(out):
        writable = os.access(out, os.W_OK)
    else:
        directory = os.path.dirname(out) or "."
        writable = os.path.isdir(directory) and os.access(directory, os.W_OK | os.X_OK)
    if not writable:
        raise UnwritableOutput(f"cannot write output {out!r}")


def _pipeline(
    k: int,
    n: int,
    matroid_class: str,
    regular_only: bool = False,
    with_tutte: bool = False,
    dualize: bool = False,
) -> Iterator[CatalogueEntry]:
    """The catalogue's one generation pipeline, one candidate at a time:
    candidate -> canonical -> matroid -> flags -> class filters -> Tutte.

    With dualize, the canonical side has rank n - k, and each representative
    that passes the connectivity filter stands for its dual.  The labels are
    the sorted columns of the null space of its reduced matrix, and L and S
    are read off them; C and R, invariant under duality, are decided on the
    generated side, and the Tutte polynomial is the generated side's with
    x and y swapped (T_M*(x, y) = T_M(y, x)).  No dual matroid is built.
    """
    base, need_connected = _split_class(matroid_class)
    side = n - k if dualize else k
    for labels in generate(side, n, base):
        tutte = None
        m = matroid_of_labels(labels, side)
        if need_connected and not m.is_connected():
            continue
        if dualize:
            labels = tuple(sorted(nullspace_of_reduced(m.reduced).columns()))
        letters = compute_flags(labels, m)
        if regular_only and "R" not in letters:
            continue
        if with_tutte:
            tutte = tutte_by_activities(m)
            if dualize:
                tutte = tutte.transpose()
        yield CatalogueEntry(k, n, labels, letters, tutte, dualize)


def run_generate(
    k: int,
    n: int,
    matroid_class: str,
    regular_only: bool = False,
    with_tutte: bool = False,
    out: Optional[str] = None,
    force: bool = False,
) -> list[CatalogueEntry]:
    """Generate one catalogue cell; write it to out when given."""
    if not 1 <= k <= n:
        raise InvalidShape(f"need 1 <= rank <= size, got rank {k}, size {n}")
    _guard(k, n, force)
    _check_out(out)
    entries = list(_pipeline(k, n, matroid_class, regular_only, with_tutte))
    _write_entries(entries, out)
    return entries


def run_dual_listing(
    k: int,
    n: int,
    matroid_class: str,
    out: Optional[str] = None,
    canonicalize: bool = False,
    force: bool = False,
) -> list[CatalogueEntry]:
    """List rank-k entries as duals of generated rank-(n-k) representatives.

    The low-rank side is generated canonically, filtered by the class, and
    dualized; the emitted label vectors are sorted but generally not the
    standard representatives, hence the dualized marker.  The class filters
    the generated side: the duals are listed whatever their own L and S.
    Connectivity and regularity are decided on the generated side, and L
    and S read off the duals' columns, so no rank-k matroid is built.  The
    cost is that of generating the rank-(n-k) side, which the same guard as
    generate's bounds.

    With canonicalize, each dual is relabelled to the representative that
    generate emits (enumeration.canonical_form), and the entries are sorted
    and unmarked.  The guard bounds k as well: an entry takes about 0.5 s
    at rank 8, 8 s at rank 9 and, for some, over 4 minutes at rank 10.
    """
    if k < 1 or not 1 <= n - k <= MAX_RANK:
        raise InvalidShape(
            f"dual listing needs 1 <= size - rank <= {MAX_RANK} "
            f"and rank >= 1, got rank {k}, size {n}"
        )
    _guard(n - k, n, force)
    if canonicalize:
        _guard(k, n, force)
    _check_out(out)
    entries = list(_pipeline(k, n, matroid_class, dualize=True))
    if canonicalize:
        entries = [
            replace(e, labels=canonical_form(e.labels, k), dualized=False)
            for e in entries
        ]
        entries.sort(key=lambda e: e.labels)
    _write_entries(entries, out)
    return entries


def run_counts(
    max_k: int,
    max_n: int,
    matroid_class: str,
    regular_only: bool = False,
    force: bool = False,
) -> str:
    """Class-count table over all cells with rank <= max_k, size <= max_n.

    The four plain classes are counted by Burnside's lemma over the cycle
    index of GL(k, 2), with no enumeration (orbits.class_counts).  Regular
    classes have no such formula: with regular_only, every cell runs the
    pipeline and counts the entries it keeps.
    """
    if max_k < 1 or max_n < 1:
        raise InvalidShape("table bounds must be at least 1")
    _guard(max_k, max_n, force)
    if regular_only:
        cells = {
            (k, n): sum(1 for _ in _pipeline(k, n, matroid_class, True))
            for k in range(1, max_k + 1)
            for n in range(k, max_n + 1)
        }
    else:
        base, connected = _split_class(matroid_class)
        cells = class_counts(max_k, max_n, base == "simple", connected)
    rows = [["k\\n", *map(str, range(1, max_n + 1))]] + [
        [f"k={k}", *(str(cells.get((k, n), 0)) for n in range(1, max_n + 1))]
        for k in range(1, max_k + 1)
    ]
    width = max(len(s) for row in rows for s in row)
    return "".join(" ".join(s.rjust(width) for s in row) + "\n" for row in rows)


def _write_entries(entries: list[CatalogueEntry], out: Optional[str]) -> None:
    text = "".join(e.to_line() + "\n" for e in entries)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)


def _print_counts(**options) -> None:
    sys.stdout.write(run_counts(**options))


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and then reused:
    parse_args starts every call from a fresh namespace.

    Each subcommand is its runner plus its options.  set_defaults binds the
    runner once, when the cached parser is first built, and the dest of
    each option is the keyword under which the runner takes it.
    """
    parser = argparse.ArgumentParser(
        prog="matroidcat",
        description="Catalogue of small binary matroids: generation, "
        "regularity, Tutte polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "--rank": dict(dest="k", metavar="RANK", type=int, required=True),
        "--size": dict(dest="n", metavar="SIZE", type=int, required=True),
        "--max-rank": dict(dest="max_k", metavar="MAX_RANK", type=int, required=True),
        "--max-size": dict(dest="max_n", metavar="MAX_SIZE", type=int, required=True),
        "--class": dict(dest="matroid_class", choices=MATROID_CLASSES, required=True),
        "--regular-only": dict(action="store_true"),
        "--tutte": dict(dest="with_tutte", action="store_true"),
        "--out": {},
        "--canonicalize": dict(action="store_true"),
        "--force": dict(action="store_true"),
    }
    helps = {
        ("dual-listing", "--class"): "class of the generated rank (size - rank) side, "
        "not of its duals",
    }
    for name, run, summary, flags in (
        (
            "generate",
            run_generate,
            "generate one (rank, size) cell",
            "--rank --size --class --regular-only --tutte --out --force",
        ),
        (
            "dual-listing",
            run_dual_listing,
            "list a high rank by dualizing the low-rank side",
            "--rank --size --class --out --canonicalize --force",
        ),
        (
            "counts",
            _print_counts,
            "print a table of class counts",
            "--max-rank --max-size --class --regular-only --force",
        ),
    ):
        command = sub.add_parser(name, help=summary)
        command.set_defaults(run=run)
        for flag in flags.split():
            command.add_argument(flag, help=helps.get((name, flag)), **options[flag])
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    options = vars(_parser().parse_args(argv))
    del options["command"]
    run = options.pop("run")
    try:
        run(**options)
    except (InvalidShape, UnwritableOutput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceGuard as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
