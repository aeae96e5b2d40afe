"""Catalogue assembly and the command line interface.

Subcommands:

* ``generate``: orderly generation for one (rank, size) cell, optional
  connectivity/regularity filters and Tutte polynomials, written as one
  entry per line.
* ``dual-listing``: entries of a high rank obtained by dualizing the
  generated low-rank side; representatives are generally non-canonical and
  marked ``dualized`` unless re-canonicalized.
* ``counts``: table of class counts over a rank/size rectangle.

All three run the same pipeline (``_pipeline``), in one process and one
candidate at a time, so memory does not grow with the number of candidates.
Output is deterministic: byte-identical across runs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .enumeration import InvalidShape, generate
from .gf2 import Gf2Matrix, gl_column_tuples, gl_group_order, transform_bits
from .matroid import BRUTEFORCE_MAX_GROUP_ORDER, BinaryMatroid
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


def compute_flags(m: BinaryMatroid, connected: Optional[bool] = None) -> str:
    """Recompute the L, S, C, R properties from scratch.

    connected, when given, is the already known connectivity of m or of its
    dual (the same property once m has two or more elements).
    """
    cols = [m.column_of(e) for e in m.ground]
    flags = ""
    loopless = all(cols)
    if loopless:
        flags += "L"
    if loopless and len(set(cols)) == len(cols):
        flags += "S"
    if m.is_connected() if connected is None else connected:
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


def _pipeline(
    k: int,
    n: int,
    matroid_class: str,
    regular_only: bool = False,
    with_tutte: bool = False,
    with_flags: bool = True,
    dualize: bool = False,
) -> Iterator[CatalogueEntry]:
    """The catalogue's one generation pipeline, one candidate at a time:
    candidate -> canonical -> matroid -> flags -> class filters -> Tutte.

    With dualize, the canonical side has rank n - k; representatives that
    pass the connectivity filter are dualized before their flags and Tutte
    polynomial are computed.  Without flags, the matroid is built only for a
    filter, only the properties the filters need are computed, and entries
    carry no flags.
    """
    base, need_connected = _split_class(matroid_class)
    side = n - k if dualize else k
    for lv in generate(side, n, base):
        labels, letters, tutte = lv.labels, "", None
        if with_flags or need_connected or regular_only:
            m = matroid_of_labels(labels, side)
            if need_connected and not m.is_connected():
                continue
            if dualize:
                m = m.dual()
                labels = tuple(sorted(m.matrix.columns()))
            if with_flags:
                letters = compute_flags(m, True if need_connected else None)
            if regular_only and not (
                "R" in letters if with_flags else is_regular(m)[0]
            ):
                continue
            if with_tutte:
                tutte = tutte_by_activities(m)
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
    entries = list(_pipeline(k, n, matroid_class, regular_only, with_tutte))
    _write_entries(entries, out)
    return entries


def _bruteforce_guard(k: int) -> None:
    if gl_group_order(k) > BRUTEFORCE_MAX_GROUP_ORDER:
        raise ResourceGuard(
            f"brute-force canonicalization at rank {k} needs {gl_group_order(k)} "
            f"group elements (bound {BRUTEFORCE_MAX_GROUP_ORDER})"
        )


def canonical_labels_bruteforce(labels: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Lexicographically smallest label vector in the isomorphism class."""
    _bruteforce_guard(k)
    best = tuple(sorted(labels))
    for g in gl_column_tuples(k):
        cand = tuple(sorted(transform_bits(g, c) for c in labels))
        if cand < best:
            best = cand
    return best


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
    standard representatives, hence the dualized marker.  The flags of each
    dual cost a closure per independent set in flats_of_corank, which grows
    quickly with k, so sizes above MAX_SIZE need force.  Canonicalization
    walks GL(k, 2) per entry and is refused, before any work, beyond the
    brute-force bound.
    """
    if k < 1 or not 1 <= n - k <= MAX_RANK:
        raise InvalidShape(
            f"dual listing needs 1 <= size - rank <= {MAX_RANK} "
            f"and rank >= 1, got rank {k}, size {n}"
        )
    if n > MAX_SIZE and not force:
        raise ResourceGuard(
            f"dual listing of size {n} exceeds the supported scale "
            f"(size <= {MAX_SIZE}); pass --force to override"
        )
    if canonicalize:
        _bruteforce_guard(k)
    entries = list(_pipeline(k, n, matroid_class, dualize=True))
    if canonicalize:
        entries = sorted(
            (
                CatalogueEntry(
                    e.rank,
                    e.size,
                    canonical_labels_bruteforce(e.labels, e.rank),
                    e.flags,
                    e.tutte,
                    False,
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
    """Class-count table over all cells with rank <= max_k, size <= max_n."""
    if max_k < 1 or max_n < 1:
        raise InvalidShape("table bounds must be at least 1")
    _guard(max_k, max_n, force)
    cells = {
        (k, n): sum(
            1 for _ in _pipeline(k, n, matroid_class, regular_only, with_flags=False)
        )
        for k in range(1, max_k + 1)
        for n in range(k, max_n + 1)
    }
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


def _build_parser() -> argparse.ArgumentParser:
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
    args = _build_parser().parse_args(argv)
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
    except InvalidShape as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceGuard as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
