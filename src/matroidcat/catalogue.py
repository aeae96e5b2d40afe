"""Catalogue assembly and the command line interface.

Each subcommand is one row of ``_COMMANDS``: its ``run_*`` function, its
summary and its options, each option declared once in ``_OPTIONS``.
``main`` reads the options with one loop over those tables, refusing a
usage error as argparse does, and calls the runner with them as keywords
(``counts`` prints through ``_print_counts``); ``--help`` is formatted from
the same tables.

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

import os
import re
import sys
from typing import Iterable, Iterator, NamedTuple, NoReturn, Optional

from .enumeration import InvalidShape, canonical_form, generate
from .gf2 import nullspace_of_reduced, rank_of_labels
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


class CatalogueEntry(NamedTuple):
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
            map(int, row.split(",")) for row in grid.split(";")
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
    return BinaryMatroid(tuple(labels), k)


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
            e._replace(labels=canonical_form(e.labels, k), dualized=False)
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
    # no cell has a rank above its size, so the guard reads the largest rank
    # that holds a cell; past MAX_SIZE a rank bound only adds rows of zeros,
    # as many as it asks for
    _guard(min(max_k, max_n), max_n, force)
    if max_k > MAX_SIZE and not force:
        raise ResourceGuard(
            f"rank {max_k} exceeds every size <= {MAX_SIZE}; pass --force to override"
        )
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


# each option: the keyword under which the runner takes it, its metavar
# (None for a flag), int or its choices, and whether it is required
_OPTIONS = {
    "--rank": ("k", "RANK", int, True),
    "--size": ("n", "SIZE", int, True),
    "--max-rank": ("max_k", "MAX_RANK", int, True),
    "--max-size": ("max_n", "MAX_SIZE", int, True),
    "--class": ("matroid_class", "{" + ",".join(MATROID_CLASSES) + "}", MATROID_CLASSES, True),
    "--regular-only": ("regular_only", None, None, False),
    "--tutte": ("with_tutte", None, None, False),
    "--out": ("out", "OUT", None, False),
    "--canonicalize": ("canonicalize", None, None, False),
    "--force": ("force", None, None, False),
}

# each subcommand: its runner, its summary and its options, in --help's order
_COMMANDS = {
    "generate": (run_generate, "generate one (rank, size) cell",
                 "--rank --size --class --regular-only --tutte --out --force".split()),
    "dual-listing": (run_dual_listing, "list a high rank by dualizing the low-rank side",
                     "--rank --size --class --out --canonicalize --force".split()),
    "counts": (_print_counts, "print a table of class counts",
               "--max-rank --max-size --class --regular-only --force".split()),
}
# what --help prints below the options of a subcommand
_NOTES = {"dual-listing": "--class is the class of the generated rank (size - rank) side, "
                          "not of its duals"}
_HELP = ("-h", "--help")


def _exit(command: Optional[str], error: str = "") -> NoReturn:
    """With an error, print the usage line and the error on stderr and exit
    2, as argparse does; without, print the help text and exit 0."""
    if command is None:
        prog, words = "matroidcat", ["{" + ",".join(_COMMANDS) + "} ..."]
        lines = ["Catalogue of small binary matroids: generation, regularity, "
                 "Tutte polynomials.", "", "commands:"]
        lines += [f"  {name:14}{summary}" for name, (_, summary, _) in _COMMANDS.items()]
    else:
        _, summary, options = _COMMANDS[command]
        spelled = {o: " ".join(filter(None, (o, _OPTIONS[o][1]))) for o in options}
        prog = f"matroidcat {command}"
        words = [s if _OPTIONS[o][3] else f"[{s}]" for o, s in spelled.items()]
        lines = [summary, "", "options:", "  -h, --help", *(f"  {s}" for s in spelled.values())]
        lines += ["", _NOTES[command]] if command in _NOTES else []
    usage = " ".join(["usage:", prog, "[-h]", *words])
    if error:
        sys.stderr.write(f"{usage}\n{prog}: error: {error}\n")
        raise SystemExit(2)
    sys.stdout.write("\n".join([usage, "", *lines, ""]))
    raise SystemExit(0)


def main(argv: Optional[list[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    command = args.pop(0) if args else ""
    if command not in _COMMANDS:
        error = f"invalid command {command!r}" if command else "a command is required"
        _exit(None, "" if command in _HELP else error)
    run, _, names = _COMMANDS[command]
    options = {}
    while args:
        option, inline, value = args.pop(0).partition("=")
        if option not in names:
            _exit(command, "" if option in _HELP else f"unrecognized argument {option}")
        keyword, metavar, kind, _ = _OPTIONS[option]
        if inline and not metavar:
            _exit(command, f"argument {option}: takes no value")
        if metavar and not inline:
            if not args or args[0].startswith("--"):
                _exit(command, f"argument {option}: expected one argument")
            value = args.pop(0)
        try:
            options[keyword] = int(value) if kind is int else value if metavar else True
        except ValueError:
            _exit(command, f"argument {option}: invalid int value: {value!r}")
        if kind not in (None, int) and value not in kind:
            _exit(command, f"argument {option}: invalid choice: {value!r}")
    missing = [o for o in names if _OPTIONS[o][3] and _OPTIONS[o][0] not in options]
    if missing:
        _exit(command, "the following arguments are required: " + ", ".join(missing))
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
