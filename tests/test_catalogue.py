"""Catalogue assembly, file format, and CLI behaviour."""

from __future__ import annotations

import pytest

import matroidcat.catalogue as catalogue
from matroidcat.catalogue import (
    CatalogueEntry,
    MATROID_CLASSES,
    ResourceGuard,
    canonical_labels_bruteforce,
    compute_flags,
    main,
    matroid_of_labels,
    run_counts,
    run_dual_listing,
    run_generate,
)
from matroidcat.tutte import TuttePolynomial

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
    ):
        assert CatalogueEntry.from_line(entry.to_line()) == entry


def test_from_line_rejects_garbage():
    with pytest.raises(ValueError):
        CatalogueEntry.from_line("k=1 n=1 r=(1) flags=L wat")
    with pytest.raises(ValueError):
        CatalogueEntry.from_line("r=(1) flags=L")


def test_matroid_of_labels_and_flags():
    k4 = matroid_of_labels((1, 2, 3, 4, 5, 6), 3)
    assert k4.rank == 3 and k4.size == 6
    assert compute_flags(k4) == "LSCR"
    assert compute_flags(matroid_of_labels((1, 1), 1)) == "LCR"
    # a loop kills L, S and C, but a rank-1 matroid is still regular
    assert compute_flags(matroid_of_labels((0, 1), 1)) == "R"
    assert compute_flags(matroid_of_labels((1, 2, 3, 4, 5, 6, 7), 3)) == "LSC"


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
    # counts and generate share one pipeline; counts skips the flags
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
    for n in range(4, 9):
        cells = {}
        table = run_counts(7, n, "connected-loopless")
        for row in table.splitlines()[1:]:
            head, *vals = row.split()
            cells[int(head[2:])] = int(vals[n - 1])
        for k in range(1, n):
            assert cells[k] == cells[n - k]


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


def test_dual_listing_canonicalize_recovers_standard_representatives():
    canon = run_dual_listing(
        3, 5, "connected-loopless", out="/dev/null", canonicalize=True
    )
    direct = run_generate(3, 5, "connected-loopless", out="/dev/null")
    assert [e.labels for e in canon] == [e.labels for e in direct]
    assert all(not e.dualized for e in canon)


def test_dual_listing_shape_validation():
    from matroidcat.enumeration import InvalidShape

    with pytest.raises(InvalidShape):
        run_dual_listing(8, 16, "connected-loopless")  # size - rank = 8
    with pytest.raises(InvalidShape):
        run_dual_listing(5, 5, "connected-loopless")  # size - rank = 0


def test_canonical_labels_bruteforce():
    assert canonical_labels_bruteforce((1, 2, 4, 4, 7), 3) == (1, 1, 2, 4, 7)
    assert canonical_labels_bruteforce((1, 2, 4, 5, 6), 3) == (1, 2, 3, 4, 5)
    with pytest.raises(ResourceGuard):
        canonical_labels_bruteforce(tuple(1 << j for j in range(8)), 8)


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
    assert main(["counts", "--max-rank", "8", "--max-size", "4", "--class", "loopless"]) == 3


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


def test_cli_force_override(capsys):
    code = main(
        ["generate", "--rank", "1", "--size", "16", "--class", "loopless", "--force"]
    )
    assert code == 0
    assert capsys.readouterr().out.startswith("k=1 n=16 ")


def test_cli_rejects_unknown_class(capsys):
    with pytest.raises(SystemExit):
        main(["generate", "--rank", "2", "--size", "2", "--class", "graphic"])


def test_cli_internal_value_error_propagates(monkeypatch):
    # only usage errors become exit codes; a bug inside the pipeline surfaces
    def broken(m, connected=None):
        raise ValueError("internal bug")

    monkeypatch.setattr(catalogue, "compute_flags", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["generate", "--rank", "3", "--size", "4", "--class", "loopless"])
