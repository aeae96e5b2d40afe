"""Catalogue assembly, file format, and CLI behaviour."""

from __future__ import annotations

import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import matroidcat.catalogue as catalogue
import matroidcat.regularity as regularity
from conftest import R10_LABELS, cycle_matroid_of_complete_graph, orbit_maximum
from matroidcat.catalogue import (
    CatalogueEntry,
    MATROID_CLASSES,
    ResourceGuard,
    compute_flags,
    main,
    matroid_of_labels,
    run_counts,
    run_dual_listing,
    run_generate,
)
from matroidcat.enumeration import canonical_form
from matroidcat.matroid import BinaryMatroid
from matroidcat.tutte import TuttePolynomial, tutte_by_activities

RANK3_SIZE4_LINES = [
    "k=3 n=4 r=(1,1,2,4) flags=LR",
    "k=3 n=4 r=(1,2,3,4) flags=LSR",
    "k=3 n=4 r=(1,2,4,7) flags=LSCR",
]


def lines_of(entries):
    return [e.to_line() for e in entries]


def test_entry_line_formats():
    entry = CatalogueEntry(2, 3, (1, 2, 3), "LSCR")
    assert entry.to_line() == "k=2 n=3 r=(1,2,3) flags=LSCR"
    with_tutte = CatalogueEntry(
        1, 2, (1, 1), "LCR", TuttePolynomial(((0, 1), (1, 0))), False
    )
    assert with_tutte.to_line() == "k=1 n=2 r=(1,1) flags=LCR tutte=0,1;1,0"
    dualized = CatalogueEntry(2, 3, (1, 2, 3), "LSCR", None, True)
    assert dualized.to_line() == "k=2 n=3 r=(1,2,3) flags=LSCR dualized"


def test_entry_round_trip():
    for entry in (
        CatalogueEntry(3, 4, (1, 2, 4, 7), "LSCR"),
        CatalogueEntry(1, 2, (1, 1), "LCR", TuttePolynomial(((0, 1), (1, 0)))),
        CatalogueEntry(4, 5, (1, 2, 4, 8, 15), "LSCR", None, True),
        CatalogueEntry(3, 4, (0, 1, 2, 4), "", None, True),
    ):
        assert CatalogueEntry.from_line(entry.to_line()) == entry
    for entries in (
        run_generate(4, 8, "loopless", with_tutte=True, out="/dev/null"),
        run_dual_listing(4, 7, "loopless", out="/dev/null"),
        run_dual_listing(7, 10, "connected-loopless", out="/dev/null", canonicalize=True),
    ):
        assert entries
        for entry in entries:
            assert CatalogueEntry.from_line(entry.to_line()) == entry


def test_records_are_immutable():
    for record, field in (
        (CatalogueEntry(2, 3, (1, 2, 3), "LSCR"), "flags"),
        (regularity.FanoWitness(frozenset(), "fano"), "kind"),
        (TuttePolynomial(((0, 1), (1, 0))), "grid"),
    ):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.note = "x"


def test_from_line_rejects_garbage():
    # each line differs from one that to_line writes in one field
    valid = "k=3 n=4 r=(1,2,4,7) flags=LSCR tutte=0,1;1,0;1,0;1,0 dualized"
    assert CatalogueEntry.from_line(valid).to_line() == valid
    for line in (
        "k=1 n=1 r=(1) flags=L wat",
        "r=(1) flags=L",
        "k=3 n=4",
        "k=3 n=4 r=(1,2) flags=LS",
        "k=3 n=4 r=(1,2,4,9) flags=LS",
        "k=3 n=4 r=(1,2,4,7) flags=XYZ",
        "k=3 n=4 r=(1,2,4,7) flags=SL",
        "k=3 n=4 r=(1,2,4,7) flags=LSCR tutte=1",
        "k=3 n=4 r=(1,2,4,7) flags=LSCR tutte=0,1;1,0;1,0;1",
        "k=3 n=4 r=(1,2,4,7) flags=LSCR k=5",
        "n=4 k=3 flags=LSCR r=(7,4,2,1)",
        "k=3 n=4 r=(7,4,2,1) flags=LSCR",
        "k=3 n=4 r=(1,2,04,7) flags=LSCR",
        "k=3 n=4 r=(1,2,4,\N{ARABIC-INDIC DIGIT SEVEN}) flags=LSCR",
        "k=3 n=4 r=(1,2,4,7) flags=LSCR dualized tutte=0,1;1,0;1,0;1,0",
        "k=3  n=4 r=(1,2,4,7) flags=LSCR",
        "k=3 n=4 r=(1,2,4,7) flags=LSCR ",
        "k=1 n=2 r=(0,1) flags=LS",
        "k=1 n=1 r=(1) flags=SC",
    ):
        with pytest.raises(ValueError):
            CatalogueEntry.from_line(line)


def test_from_line_rejects_labels_that_do_not_span():
    # to_line never writes them, and matroid_of_labels could not build them
    for line in ("k=3 n=3 r=(1,1,2) flags=", "k=3 n=1 r=(1) flags=LS"):
        with pytest.raises(ValueError, match="do not span"):
            CatalogueEntry.from_line(line)


def test_matroid_of_labels_and_flags():
    k4 = matroid_of_labels((1, 2, 3, 4, 5, 6), 3)
    assert k4.rank == 3 and k4.size == 6
    assert compute_flags((1, 2, 3, 4, 5, 6), k4) == "LSCR"
    assert compute_flags((1, 1), matroid_of_labels((1, 1), 1)) == "LCR"
    # a loop kills L, S and C, but a rank-1 matroid is still regular
    assert compute_flags((0, 1), matroid_of_labels((0, 1), 1)) == "R"
    fano = (1, 2, 3, 4, 5, 6, 7)
    assert compute_flags(fano, matroid_of_labels(fano, 3)) == "LSC"


def test_generate_rank3_size4_golden_lines():
    entries = run_generate(3, 4, "loopless", out="/dev/null")
    assert lines_of(entries) == RANK3_SIZE4_LINES


def test_generate_connected_filter():
    entries = run_generate(3, 4, "connected-loopless", out="/dev/null")
    assert lines_of(entries) == ["k=3 n=4 r=(1,2,4,7) flags=LSCR"]


def test_generate_regular_only_excludes_fano():
    entries = run_generate(3, 7, "simple", regular_only=True, out="/dev/null")
    assert entries == []
    unfiltered = run_generate(3, 7, "simple", out="/dev/null")
    assert lines_of(unfiltered) == ["k=3 n=7 r=(1,2,3,4,5,6,7) flags=LSC"]


def test_generate_with_tutte():
    entries = run_generate(1, 2, "loopless", with_tutte=True, out="/dev/null")
    assert lines_of(entries) == ["k=1 n=2 r=(1,1) flags=LCR tutte=0,1;1,0"]


def canonical_labels(m):
    return canonical_form([m.column_of(e) for e in m.ground], m.rank)


def test_regular_cell_5_15_is_exactly_k6():
    # Heller's bound: a simple regular matroid of rank 5 has at most 15
    # elements, and M(K_6) is the only one that reaches it
    k6 = cycle_matroid_of_complete_graph(6)
    (entry,) = run_generate(
        5, 15, "connected-simple", regular_only=True, with_tutte=True, out="/dev/null"
    )
    assert entry.labels == canonical_labels(k6)
    assert entry.tutte.grid == tutte_by_activities(k6).grid
    assert entry.tutte.evaluate(1, 1) == 6**4


def test_r10_is_in_the_regular_cell_5_10():
    r10 = matroid_of_labels(R10_LABELS, 5)
    labels = canonical_labels(r10)
    assert labels == (1, 2, 4, 7, 8, 11, 16, 21, 25, 31)
    # R10 is isomorphic to its dual
    assert canonical_labels(r10.dual()) == labels
    entries = run_generate(
        5, 10, "connected-simple", regular_only=True, with_tutte=True, out="/dev/null"
    )
    (entry,) = [e for e in entries if e.labels == labels]
    assert entry.flags == "LSCR"
    assert entry.tutte.grid == entry.tutte.transpose().grid
    assert entry.tutte.total() == 162


def test_generate_is_deterministic():
    first = lines_of(run_generate(3, 6, "loopless", out="/dev/null"))
    assert first == lines_of(run_generate(3, 6, "loopless", out="/dev/null"))


def test_out_file_is_ascii_with_lf(tmp_path):
    target = tmp_path / "cell.txt"
    run_generate(3, 4, "loopless", out=str(target))
    raw = target.read_bytes()
    assert raw == b"".join(line.encode() + b"\n" for line in RANK3_SIZE4_LINES)


def test_counts_table_text():
    table = run_counts(3, 5, "loopless")
    assert table == (
        "k\\n   1   2   3   4   5\n"
        "k=1   1   1   1   1   1\n"
        "k=2   0   1   2   3   4\n"
        "k=3   0   0   1   3   6\n"
    )


def test_counts_match_generate():
    # plain counts come from the cycle index, regular-only counts from the
    # pipeline without flags; both must agree with generate
    for cls in MATROID_CLASSES:
        for regular_only in (False, True):
            table = run_counts(3, 6, cls, regular_only=regular_only)
            cells = {}
            for row in table.splitlines()[1:]:
                head, *vals = row.split()
                k = int(head[2:])
                for n, v in enumerate(vals, start=1):
                    cells[k, n] = int(v)
            for k in range(1, 4):
                for n in range(k, 7):
                    entries = run_generate(
                        k, n, cls, regular_only=regular_only, out="/dev/null"
                    )
                    assert cells[k, n] == len(entries), (cls, regular_only, k, n)


def test_counts_duality_symmetry():
    # duals of connected loopless matroids are connected loopless (n >= 2)
    for n in range(2, 15):
        cells = {}
        table = run_counts(7, n, "connected-loopless")
        for row in table.splitlines()[1:]:
            head, *vals = row.split()
            cells[int(head[2:])] = int(vals[n - 1])
        for k in range(max(1, n - 7), min(n - 1, 7) + 1):
            assert cells[k] == cells[n - k], (k, n)


def test_counts_connected_loopless_row_n8():
    table = run_counts(7, 8, "connected-loopless")
    column = [int(row.split()[8]) for row in table.splitlines()[1:]]
    assert column == [1, 5, 18, 28, 18, 5, 1]


def test_dual_listing_of_rank1_parallel_class():
    entries = run_dual_listing(4, 5, "connected-loopless", out="/dev/null")
    assert lines_of(entries) == ["k=4 n=5 r=(1,2,4,8,15) flags=LSCR dualized"]


def test_dual_listing_matches_primal_side():
    primal = run_generate(2, 10, "connected-loopless", out="/dev/null")
    duals = run_dual_listing(8, 10, "connected-loopless", out="/dev/null")
    assert len(duals) == len(primal) == 8
    for p, d in zip(primal, duals):
        assert d.rank == 8 and d.size == 10 and d.dualized
        assert ("R" in p.flags) == ("R" in d.flags)
        assert "L" in d.flags and "C" in d.flags


def test_dual_listing_flags_match_direct_flags():
    # C and R come from the generated side, L and S from the duals' columns
    flags = set()
    for k, n, matroid_class in (
        (4, 7, "loopless"),
        (5, 9, "loopless"),
        (5, 9, "simple"),
        (6, 10, "connected-loopless"),
    ):
        for e in run_dual_listing(k, n, matroid_class, out="/dev/null"):
            assert e.flags == compute_flags(e.labels, matroid_of_labels(e.labels, k)), e
            flags.add(e.flags)
    assert any("R" not in f for f in flags)
    assert any("C" not in f for f in flags)


def test_dual_listing_builds_no_flats(capsys, monkeypatch):
    def no_flats(*args, **kwargs):
        raise AssertionError("flats were built")

    def no_dual(*args, **kwargs):
        raise AssertionError("a dual matroid was built")

    monkeypatch.setattr(BinaryMatroid, "flats_of_corank", no_flats)
    monkeypatch.setattr(regularity, "echelon_basis", no_flats)
    monkeypatch.setattr(BinaryMatroid, "dual", no_dual)
    argv = ["dual-listing", "--rank", "11", "--size", "13", "--class", "connected-loopless"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 14
    assert lines[0] == (
        "k=11 n=13 r=(1,2,4,8,16,32,64,128,256,512,1024,1024,2047) flags=LCR dualized"
    )
    assert all(line.endswith(" flags=LSCR dualized") for line in lines[1:])
    argv = ["dual-listing", "--rank", "17", "--size", "18", "--class", "connected-loopless"]
    assert main(argv + ["--force"]) == 0
    labels = ",".join(str(1 << j) for j in range(17)) + f",{(1 << 17) - 1}"
    assert capsys.readouterr().out == f"k=17 n=18 r=({labels}) flags=LSCR dualized\n"


def test_dualized_pipeline_tutte_is_that_of_each_listed_dual():
    # the grid is the generated side's, transposed; no caller of the
    # pipeline asks for both, so it is checked here directly
    for k, n, matroid_class in ((4, 7, "loopless"), (6, 9, "connected-loopless")):
        entries = list(
            catalogue._pipeline(k, n, matroid_class, with_tutte=True, dualize=True)
        )
        assert entries
        for e in entries:
            assert e.tutte.grid == tutte_by_activities(matroid_of_labels(e.labels, k)).grid


def test_dual_listing_canonicalize_recovers_standard_representatives():
    for k, n in ((3, 5), (5, 9), (6, 10), (7, 10)):
        canon = run_dual_listing(
            k, n, "connected-loopless", out="/dev/null", canonicalize=True
        )
        direct = run_generate(k, n, "connected-loopless", out="/dev/null")
        assert lines_of(canon) == lines_of(direct), (k, n)


def test_dual_listing_canonicalize_keeps_loops():
    # duals of matroids with coloops have loops, which every relabelling
    # fixes; the rest must be the orbit minimum over GL(4, 2)
    entries = run_dual_listing(4, 7, "loopless", out="/dev/null", canonicalize=True)
    expected = []
    for e in run_dual_listing(4, 7, "loopless", out="/dev/null"):
        top = orbit_maximum(e.labels, 4)
        labels = tuple(lbl for lbl in range(16) for _ in range(top[lbl]))
        expected.append((labels, e.flags))
    assert [(e.labels, e.flags) for e in entries] == sorted(expected)
    assert any(0 in e.labels for e in entries)
    assert not any(e.dualized for e in entries)


def test_dual_listing_shape_validation():
    from matroidcat.enumeration import InvalidShape

    with pytest.raises(InvalidShape):
        run_dual_listing(8, 16, "connected-loopless")  # size - rank = 8
    with pytest.raises(InvalidShape):
        run_dual_listing(5, 5, "connected-loopless")  # size - rank = 0


def test_resource_guard():
    with pytest.raises(ResourceGuard, match="--force"):
        run_generate(1, 16, "loopless")
    # the override must work
    entries = run_generate(1, 16, "loopless", force=True, out="/dev/null")
    assert lines_of(entries) == ["k=1 n=16 r=" + "(" + ",".join(["1"] * 16) + ") flags=LCR"]


def test_cli_generate(capsys):
    code = main(
        ["generate", "--rank", "3", "--size", "4", "--class", "loopless"]
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines() == RANK3_SIZE4_LINES


def test_cli_generate_to_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code = main(
        [
            "generate",
            "--rank", "3",
            "--size", "4",
            "--class", "simple",
            "--out", str(target),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    assert target.read_text().splitlines() == [
        "k=3 n=4 r=(1,2,3,4) flags=LSR",
        "k=3 n=4 r=(1,2,4,7) flags=LSCR",
    ]


def test_cli_counts(capsys):
    code = main(
        ["counts", "--max-rank", "2", "--max-size", "3", "--class", "loopless"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "k\\n   1   2   3",
        "k=1   1   1   1",
        "k=2   0   1   2",
    ]


def test_cli_dual_listing(capsys):
    code = main(
        ["dual-listing", "--rank", "4", "--size", "5", "--class", "connected-loopless"]
    )
    assert code == 0
    assert capsys.readouterr().out == "k=4 n=5 r=(1,2,4,8,15) flags=LSCR dualized\n"


def test_cli_invalid_shape_exit_code(capsys):
    assert main(["generate", "--rank", "4", "--size", "3", "--class", "simple"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_resource_guard_exit_code(capsys):
    assert main(["generate", "--rank", "1", "--size", "16", "--class", "loopless"]) == 3
    assert "--force" in capsys.readouterr().err
    assert main(["counts", "--max-rank", "8", "--max-size", "8", "--class", "loopless"]) == 3


def test_cli_dual_listing_resource_guard(capsys, monkeypatch):
    argv = ["dual-listing", "--rank", "15", "--size", "16", "--class", "connected-loopless"]
    assert main(argv) == 3
    assert "--force" in capsys.readouterr().err
    # a lower bound keeps the forced run short
    monkeypatch.setattr(catalogue, "MAX_SIZE", 4)
    argv = ["dual-listing", "--rank", "4", "--size", "5", "--class", "connected-loopless"]
    assert main(argv) == 3
    capsys.readouterr()
    assert main(argv + ["--force"]) == 0
    assert capsys.readouterr().out == "k=4 n=5 r=(1,2,4,8,15) flags=LSCR dualized\n"


def test_cli_counts_force(capsys):
    argv = ["counts", "--max-rank", "8", "--max-size", "8", "--class", "loopless"]
    assert main(argv) == 3
    assert "--force" in capsys.readouterr().err
    assert main(argv + ["--force"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 9
    assert rows[-1].split() == ["k=8", "0", "0", "0", "0", "0", "0", "0", "1"]


def test_cli_counts_guards_the_largest_rank_that_holds_a_cell(capsys):
    # no cell has a rank above its size, so ranks 6-8 of a size-5 table are 0
    argv = ["counts", "--max-rank", "8", "--max-size", "5", "--class", "loopless"]
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[:6] == run_counts(5, 5, "loopless").splitlines()
    assert rows[6:] == [f"k={k} " + " ".join(["  0"] * 5) for k in (6, 7, 8)]
    # a rank that holds a cell past the guard, a size past it, and a rank
    # bound past every size the guard allows
    for rank, size in (("8", "8"), ("2", "16"), ("16", "5")):
        argv = ["counts", "--max-rank", rank, "--max-size", size, "--class", "loopless"]
        assert main(argv) == 3
        assert "--force" in capsys.readouterr().err


def test_cli_dual_listing_canonicalize_refuses_before_work(capsys, monkeypatch):
    # the generated side has rank 2, but canonicalization searches rank 9
    def no_work(*args, **kwargs):
        raise AssertionError("the pipeline ran")

    monkeypatch.setattr(catalogue, "generate", no_work)
    argv = [
        "dual-listing", "--rank", "9", "--size", "11",
        "--class", "connected-loopless", "--canonicalize",
    ]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "rank 9" in err and "--force" in err


def test_cli_dual_listing_canonicalize_force(capsys):
    argv = [
        "dual-listing", "--rank", "8", "--size", "9",
        "--class", "connected-loopless", "--canonicalize",
    ]
    assert main(argv) == 3
    capsys.readouterr()
    assert main(argv + ["--force"]) == 0
    assert capsys.readouterr().out == "k=8 n=9 r=(1,2,4,8,16,32,64,128,255) flags=LSCR\n"


def test_cli_unwritable_out_refused_before_work(tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the pipeline ran")

    monkeypatch.setattr(catalogue, "generate", no_work)
    missing = tmp_path / "no-such-dir" / "x.txt"
    cell = ["--rank", "3", "--size", "4", "--class", "loopless"]
    for command in ("generate", "dual-listing"):
        for target in (missing, tmp_path, ""):
            assert main([command, *cell, "--out", str(target)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
    assert not missing.parent.exists()
    assert list(tmp_path.iterdir()) == []


def test_cli_force_override(capsys):
    code = main(
        ["generate", "--rank", "1", "--size", "16", "--class", "loopless", "--force"]
    )
    assert code == 0
    assert capsys.readouterr().out.startswith("k=1 n=16 ")


def test_cli_rejects_unknown_class(capsys):
    for command, bounds in (
        ("generate", ["--rank", "2", "--size", "2"]),
        ("dual-listing", ["--rank", "2", "--size", "3"]),
        ("counts", ["--max-rank", "2", "--max-size", "2"]),
    ):
        for cls in (["--class", "graphic"], []):
            with pytest.raises(SystemExit) as exc:
                main([command, *bounds, *cls])
            assert exc.value.code == 2, (command, cls)
            assert "--class" in capsys.readouterr().err


def help_text(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out.splitlines()


def test_cli_surface(capsys):
    # the usage line, summary and options of each subcommand, as --help
    # lists them, and the top-level usage line listing every summary
    classes = "{" + ",".join(MATROID_CLASSES) + "}"
    top = help_text(capsys)
    assert top[0] == "usage: matroidcat [-h] {generate,dual-listing,counts} ..."
    for command, summary, options in (
        (
            "generate",
            "generate one (rank, size) cell",
            f"--rank RANK --size SIZE --class {classes} [--regular-only] [--tutte] "
            "[--out OUT] [--force]",
        ),
        (
            "dual-listing",
            "list a high rank by dualizing the low-rank side",
            f"--rank RANK --size SIZE --class {classes} [--out OUT] [--canonicalize] "
            "[--force]",
        ),
        (
            "counts",
            "print a table of class counts",
            f"--max-rank MAX_RANK --max-size MAX_SIZE --class {classes} "
            "[--regular-only] [--force]",
        ),
    ):
        assert f"  {command:14}{summary}" in top
        lines = help_text(capsys, command)
        assert lines[:3] == [f"usage: matroidcat {command} [-h] {options}", "", summary]
        start = lines.index("options:") + 1
        listed = [line.strip() for line in itertools.takewhile(bool, lines[start:])]
        spelled = re.findall(r"--[a-z-]+(?: [A-Z_]+| {[a-z,-]+})?", options)
        assert listed == ["-h, --help", *spelled], command
    note = "--class is the class of the generated rank (size - rank) side, not of its duals"
    assert help_text(capsys, "dual-listing")[-1] == note


CELL = ["--rank", "3", "--size", "4", "--class", "loopless"]
USAGE_ERRORS = [
    # argv, the subcommand whose usage it prints, what the error names
    ([], None, "command"),
    (["graph"], None, "'graph'"),
    (["--rank", "3"], None, "'--rank'"),
    (["generate", *CELL, "--bogus"], "generate", "--bogus"),
    (["generate", *CELL, "--reg"], "generate", "--reg"),
    (["generate", *CELL, "--canonicalize"], "generate", "--canonicalize"),
    (["generate", *CELL, "7"], "generate", "7"),
    (["generate", *CELL, "--tutte=yes"], "generate", "--tutte"),
    (["generate", *CELL, "--out"], "generate", "--out"),
    (["counts", "--max-rank", "--max-size", "3", "--class", "simple"], "counts", "--max-rank"),
    (["generate", "--rank", "x", "--size", "4", "--class", "simple"], "generate", "--rank"),
    (["dual-listing", "--rank=2", "--size=4.0", "--class=simple"], "dual-listing", "--size"),
    (["generate", "--rank", "3", "--size", "4", "--class", "graphic"], "generate", "--class"),
    (["counts", "--max-rank", "2", "--class", "simple"], "counts", "--max-size"),
    (["dual-listing", "--size", "3"], "dual-listing", "--rank, --class"),
]


@pytest.mark.parametrize("argv, command, named", USAGE_ERRORS)
def test_cli_usage_errors(argv, command, named, capsys):
    # argparse's contract: the usage line, then the error, and exit code 2
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    prog = f"matroidcat {command}" if command else "matroidcat"
    usage, error = err.splitlines()
    assert usage.startswith(f"usage: {prog} [-h] ")
    assert error.startswith(f"{prog}: error: ") and named in error
    assert out == ""


def test_cli_help_exits_zero(capsys):
    for argv in ([], ["generate"], ["dual-listing"], ["counts"], ["counts", "--force"]):
        assert help_text(capsys, *argv)[0].startswith("usage: matroidcat ")
        with pytest.raises(SystemExit) as exc:
            main([*argv, "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.splitlines() == help_text(capsys, *argv)


def test_cli_inline_and_repeated_values(capsys):
    # --opt=value reads as --opt value, and a repeated option keeps its last value
    assert main(["generate", "--rank=3", "--size=4", "--class=loopless"]) == 0
    assert capsys.readouterr().out.splitlines() == RANK3_SIZE4_LINES
    argv = ["generate", "--rank", "2", "--class=simple", "--size", "4", "--rank=3"]
    assert main([*argv, "--class", "loopless"]) == 0
    assert capsys.readouterr().out.splitlines() == RANK3_SIZE4_LINES


def test_module_entry_point(capsys):
    # python -m matroidcat passes main's output and exit codes through
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "matroidcat", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    argv = ["generate", "--rank", "3", "--size", "5", "--class", "loopless", "--tutte"]
    proc = run(*argv)
    assert main(argv) == 0
    assert proc.returncode == 0 and proc.stdout == capsys.readouterr().out != ""
    proc = run("generate", "--rank", "4", "--size", "3", "--class", "simple")
    assert proc.returncode == 2 and proc.stderr.startswith("error: ")
    proc = run("generate", "--rank", "1", "--size", "16", "--class", "loopless")
    assert proc.returncode == 3 and "--force" in proc.stderr


def test_cli_internal_value_error_propagates(monkeypatch):
    # only usage errors become exit codes; a bug inside the pipeline surfaces
    def broken(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr(catalogue, "compute_flags", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["generate", "--rank", "3", "--size", "4", "--class", "loopless"])


def test_cli_calls_start_from_the_defaults(capsys):
    # no option of one call carries over to the next
    cell = ["--rank", "3", "--size", "7", "--class", "loopless"]
    assert main(["generate", *cell, "--regular-only", "--tutte"]) == 0
    assert main(["generate", *cell]) == 0
    assert main(["counts", "--max-rank", "3", "--max-size", "7", "--class", "loopless"]) == 0
    out = capsys.readouterr().out.splitlines()
    first = lines_of(
        run_generate(3, 7, "loopless", regular_only=True, with_tutte=True, out="/dev/null")
    )
    second = lines_of(run_generate(3, 7, "loopless", out="/dev/null"))
    assert out == first + second + run_counts(3, 7, "loopless").splitlines()
    assert len(first) < len(second) and "tutte=" not in "".join(second)
