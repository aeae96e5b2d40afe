"""Catalogue assembly and the command line interface.

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
number of candidates.  ``counts`` reads the four plain classes off the cycle
index of GL(k, 2) (``orbits``) without enumerating; only ``--regular-only``
counts run the pipeline.  Output is deterministic: byte-identical across
runs.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .enumeration import (
    InvalidShape,
    LabelVector,
    canonical_form,
    generate,
    label_vector_of,
    multiplicity_of,
)
from .gf2 import Gf2Matrix, nullspace_of_reduced
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


@dataclass(frozen=True)
class CatalogueEntry:
    rank: int
    size: int
    labels: tuple[int, ...]
    flags: str  # subset of "LSCR", in that order
    tutte: Optional[TuttePolynomial] = None
    dualized: bool = False

    def to_line(self) -> str:
        parts = [
            f"k={self.rank}",
            f"n={self.size}",
            "r=(" + ",".join(str(r) for r in self.labels) + ")",
            f"flags={self.flags}",
        ]
        if self.tutte is not None:
            parts.append(
                "tutte="
                + ";".join(
                    ",".join(str(c) for c in row) for row in self.tutte.grid
                )
            )
        if self.dualized:
            parts.append("dualized")
        return " ".join(parts)

    @classmethod
    def from_line(cls, line: str) -> "CatalogueEntry":
        rank = size = None
        labels: tuple[int, ...] = ()
        flags = ""
        tutte = None
        dualized = False
        for token in line.split():
            if token.startswith("k="):
                rank = int(token[2:])
            elif token.startswith("n="):
                size = int(token[2:])
            elif token.startswith("r=("):
                labels = tuple(int(t) for t in token[3:-1].split(","))
            elif token.startswith("flags="):
                flags = token[6:]
            elif token.startswith("tutte="):
                grid = tuple(
                    tuple(int(c) for c in row.split(","))
                    for row in token[6:].split(";")
                )
                tutte = TuttePolynomial(grid)
            elif token == "dualized":
                dualized = True
            else:
                raise ValueError(f"unrecognized token {token!r}")
        if rank is None or size is None:
            raise ValueError("line is missing k= or n=")
        return cls(rank, size, labels, flags, tutte, dualized)


def matroid_of_labels(labels: Iterable[int], k: int) -> BinaryMatroid:
    """Matroid whose columns are the vectors named by the labels."""
    return BinaryMatroid(Gf2Matrix.from_columns(list(labels), k))


def compute_flags(labels: tuple[int, ...], m: BinaryMatroid) -> str:
    """The L, S, C, R flags of the entry whose columns the labels list.

    L and S are read off the labels: no loop (label 0), and no loop and no
    two labels equal.  C and R are decided on m, the entry's own matroid or
    its dual: connectivity (for two or more elements) and regularity are
    invariant under duality, so dual-listing passes the generated side,
    whose low rank keeps both checks cheap.
    """
    flags = ""
    loopless = 0 not in labels
    if loopless:
        flags += "L"
    if loopless and len(set(labels)) == len(labels):
        flags += "S"
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
    for lv in generate(side, n, base):
        labels, tutte = lv.labels, None
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


def _canonical_labels(labels: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Smallest label vector in the class of a spanning rank-k label vector:
    its loops, which every relabelling fixes, then the canonical rest."""
    loops = labels.count(0)
    rest = multiplicity_of(LabelVector(labels[loops:], k))
    return labels[:loops] + label_vector_of(canonical_form(rest)).labels


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
        entries = sorted(
            (
                CatalogueEntry(
                    e.rank, e.size, _canonical_labels(e.labels, k), e.flags, e.tutte
                )
                for e in entries
            ),
            key=lambda e: e.labels,
        )
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
    width = max(
        [len(str(v)) for v in cells.values()]
        + [len(str(max_n)), len(f"k={max_k}")]
    )
    header = " ".join(
        ["k\\n".rjust(width)] + [str(n).rjust(width) for n in range(1, max_n + 1)]
    )
    lines = [header]
    for k in range(1, max_k + 1):
        row = [f"k={k}".rjust(width)] + [
            str(cells.get((k, n), 0)).rjust(width) for n in range(1, max_n + 1)
        ]
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def _write_entries(entries: list[CatalogueEntry], out: Optional[str]) -> None:
    text = "".join(e.to_line() + "\n" for e in entries)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and then reused:
    parse_args starts every call from a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="matroidcat",
        description="Catalogue of small binary matroids: generation, "
        "regularity, Tutte polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate one (rank, size) cell")
    gen.add_argument("--rank", type=int, required=True)
    gen.add_argument("--size", type=int, required=True)
    gen.add_argument(
        "--class",
        dest="matroid_class",
        choices=MATROID_CLASSES,
        required=True,
    )
    gen.add_argument("--regular-only", action="store_true")
    gen.add_argument("--tutte", action="store_true")
    gen.add_argument("--out")
    gen.add_argument("--force", action="store_true")

    dl = sub.add_parser(
        "dual-listing", help="list a high rank by dualizing the low-rank side"
    )
    dl.add_argument("--rank", type=int, required=True)
    dl.add_argument("--size", type=int, required=True)
    dl.add_argument(
        "--class",
        dest="matroid_class",
        choices=MATROID_CLASSES,
        required=True,
        help="class of the generated rank (size - rank) side, not of its duals",
    )
    dl.add_argument("--out")
    dl.add_argument("--canonicalize", action="store_true")
    dl.add_argument("--force", action="store_true")

    cnt = sub.add_parser("counts", help="print a table of class counts")
    cnt.add_argument("--max-rank", type=int, required=True)
    cnt.add_argument("--max-size", type=int, required=True)
    cnt.add_argument(
        "--class",
        dest="matroid_class",
        choices=MATROID_CLASSES,
        required=True,
    )
    cnt.add_argument("--regular-only", action="store_true")
    cnt.add_argument("--force", action="store_true")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "generate":
            run_generate(
                args.rank,
                args.size,
                args.matroid_class,
                regular_only=args.regular_only,
                with_tutte=args.tutte,
                out=args.out,
                force=args.force,
            )
        elif args.command == "dual-listing":
            run_dual_listing(
                args.rank,
                args.size,
                args.matroid_class,
                out=args.out,
                canonicalize=args.canonicalize,
                force=args.force,
            )
        else:
            sys.stdout.write(
                run_counts(
                    args.max_rank,
                    args.max_size,
                    args.matroid_class,
                    regular_only=args.regular_only,
                    force=args.force,
                )
            )
    except (InvalidShape, UnwritableOutput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceGuard as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
