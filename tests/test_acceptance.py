"""Acceptance gate: one test per criterion, each printing a PASS line with
its runtime and failing loudly if the content or the time budget is off.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""

from __future__ import annotations

import io
import time
from contextlib import contextmanager, redirect_stdout

from conftest import (
    CONTRACTED_BLOCK_ROWS,
    CONTRACTED_COLUMN_ORDER,
    FANO_DUAL_ROWS,
    FANO_ROWS,
    NONREGULAR_13_ROWS,
    POLYGON_CIRCUITS,
    POLYGON_ROWS,
    R10_LABELS,
    cycle_matroid_of_complete_graph,
    is_regular_by_camion,
    matroid,
    orbit_count,
)
from matroidcat.catalogue import main, matroid_of_labels, run_generate
from matroidcat.enumeration import generate
from matroidcat.gf2 import Gf2Matrix
from matroidcat.matroid import BinaryMatroid
from matroidcat.regularity import is_fano, is_regular
from matroidcat.tutte import (
    bases,
    count_independent_sets,
    count_spanning_sets,
    tutte_by_activities,
    tutte_by_deletion_contraction,
)


@contextmanager
def criterion(label: str, limit_seconds: float | None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL after {time.perf_counter() - started:.2f}s")
        raise
    elapsed = time.perf_counter() - started
    if limit_seconds is not None and elapsed >= limit_seconds:
        print(f"{label}: FAIL, took {elapsed:.2f}s (budget {limit_seconds:.0f}s)")
        raise AssertionError(
            f"{label} exceeded its {limit_seconds:.0f}s budget: {elapsed:.2f}s"
        )
    print(f"{label}: PASS in {elapsed:.2f}s")


def _corpus():
    """Every connected simple binary matroid with at most 8 elements."""
    out = []
    for n in range(1, 9):
        for k in range(1, n + 1):
            for labels in generate(k, n, "simple"):
                m = matroid_of_labels(labels, k)
                if m.is_connected():
                    out.append(m)
    return out


def test_criterion_1_generation_regression(capsys):
    with criterion("criterion 1 (rank-3 size-4 generation)", 1.0):
        assert main(
            ["generate", "--rank", "3", "--size", "4", "--class", "loopless"]
        ) == 0
        loopless = capsys.readouterr().out
        assert [ln.split()[2] for ln in loopless.splitlines()] == [
            "r=(1,1,2,4)",
            "r=(1,2,3,4)",
            "r=(1,2,4,7)",
        ]
        assert main(
            ["generate", "--rank", "3", "--size", "4", "--class", "simple"]
        ) == 0
        simple = capsys.readouterr().out
        assert [ln.split()[2] for ln in simple.splitlines()] == [
            "r=(1,2,3,4)",
            "r=(1,2,4,7)",
        ]
    print()


def test_criterion_2_contraction_regression():
    with criterion("criterion 2 (13-element contraction)", 1.0):
        m = matroid(NONREGULAR_13_ROWS)
        minor = m.contract_independent({2, 7})
        block = Gf2Matrix.from_rows(CONTRACTED_BLOCK_ROWS)
        assert minor.ground == (1, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13)
        for e, column in zip(CONTRACTED_COLUMN_ORDER, block.columns()):
            assert minor.column_of(e) == column
        assert [minor.column_of(e) for e in (1, 4, 5)] == [1, 2, 4]
        assert is_fano(minor.simplify()[0])
        assert is_regular(m)[0] is False
    print()


def test_criterion_3_polygon_regression():
    with criterion("criterion 3 (polygon circuits and bases)", 1.0):
        m = matroid(POLYGON_ROWS)
        assert m.circuits == {frozenset(c) for c in POLYGON_CIRCUITS}
        assert len(bases(m)) == 28
        assert tutte_by_activities(m).evaluate(1, 1) == 28
    print()


def test_criterion_4_isomorphism_oracle_equivalence():
    with criterion("criterion 4 (orbit counts, k <= 3, n <= 5)", 60.0):
        for k in range(1, 4):
            for n in range(k, 6):
                assert len(list(generate(k, n, "loopless"))) == orbit_count(
                    k, n, simple=False
                ), (k, n, "loopless")
                assert len(list(generate(k, n, "simple"))) == orbit_count(
                    k, n, simple=True
                ), (k, n, "simple")
    print()


def test_criterion_5_tutte_oracle_equivalence():
    with criterion("criterion 5 (activities vs deletion-contraction)", 300.0):
        fano = matroid(FANO_ROWS)
        pool = _corpus() + [fano, fano.dual()]
        for m in pool:
            assert (
                tutte_by_activities(m).grid
                == tutte_by_deletion_contraction(m).grid
            ), m
    print()


def test_criterion_6_counting_identities():
    with criterion("criterion 6 (evaluation identities and duality)", 300.0):
        fano = matroid(FANO_ROWS)
        for m in _corpus() + [fano, fano.dual()]:
            t = tutte_by_activities(m)
            assert t.evaluate(2, 2) == 1 << m.size
            assert t.evaluate(2, 1) == count_independent_sets(m)
            assert t.evaluate(1, 2) == count_spanning_sets(m)
            assert tutte_by_activities(m.dual()).grid == t.transpose().grid
    print()


def test_criterion_7_regularity_sanity():
    with criterion("criterion 7 (regularity on the small corpus)", 300.0):
        fano = matroid(FANO_ROWS)
        assert not is_regular(fano)[0]
        assert not is_regular(fano.dual())[0]
        k4 = matroid_of_labels((1, 2, 3, 4, 5, 6), 3)
        assert is_regular(k4)[0]
        for m in _corpus():
            regular = is_regular(m)[0]
            assert regular == is_regular(m.dual())[0]
            if not regular:
                continue
            for e in m.ground:
                assert is_regular(m.delete({e}))[0], (m, "delete", e)
                assert is_regular(m.contract_independent({e}))[0], (m, "contract", e)
    print()


def test_criterion_8_scale_report():
    """Report-only target: the k <= 5, n <= 10 regular sweep with Tutte
    polynomials should stay well under ten minutes."""
    started = time.perf_counter()
    entries = []
    for n in range(1, 11):
        for k in range(1, min(n, 5) + 1):
            entries.extend(
                run_generate(
                    k, n, "connected-simple",
                    regular_only=True, with_tutte=True, out="/dev/null",
                )
            )
    elapsed = time.perf_counter() - started
    for e in entries:
        assert "R" in e.flags and "S" in e.flags and "C" in e.flags
        assert e.tutte is not None and e.tutte.total() >= 1
    print(
        f"criterion 8 (scale report): {len(entries)} regular entries "
        f"with Tutte polynomials in {elapsed:.2f}s (target 600s)"
    )


def test_criterion_9_regularity_oracle():
    """is_regular agrees with Camion's signing of the reduced matrix on every
    connected simple class with n <= 10 and k <= 7."""
    with criterion("criterion 9 (Camion oracle, connected simple, n <= 10)", 60.0):
        k33 = [sum(1 << v for v in (a, b) if v < 5) for a in range(3) for b in range(3, 6)]
        anchors = {
            "F7": (matroid(FANO_ROWS), False),
            "F7*": (matroid(FANO_DUAL_ROWS), False),
            "M(K5)": (cycle_matroid_of_complete_graph(5), True),
            "M*(K3,3)": (BinaryMatroid(Gf2Matrix.from_columns(k33, 5)).dual(), True),
            "R10": (matroid_of_labels(R10_LABELS, 5), True),
        }
        for name, (m, regular) in anchors.items():
            assert is_regular_by_camion(m) == regular, name
            assert is_regular(m)[0] == regular, name
        verdicts = []
        for n in range(1, 11):
            for k in range(1, min(n, 7) + 1):
                for labels in generate(k, n, "simple"):
                    m = matroid_of_labels(labels, k)
                    if m.is_connected():
                        regular = is_regular(m)[0]
                        assert is_regular_by_camion(m) == regular, (k, labels)
                        verdicts.append(regular)
        # measured: 238 classes, 159 of them regular
        assert len(verdicts) == 238 and sum(verdicts) == 159
    print()


def test_counts_over_the_whole_guard():
    """The guard's promise for plain counts: the whole k <= 7, n <= 15
    table of every class finishes in a recorded time."""
    for cls in ("loopless", "simple", "connected-loopless", "connected-simple"):
        argv = ["counts", "--max-rank", "7", "--max-size", "15", "--class", cls]
        out = io.StringIO()
        with criterion(f"counts {cls}, k <= 7, n <= 15", 5.0):
            with redirect_stdout(out):
                assert main(argv) == 0
        rows = [row.split()[1:] for row in out.getvalue().splitlines()[1:]]
        assert len(rows) == 7 and all(len(row) == 15 for row in rows)
        assert int(rows[6][14]) > 0, cls
    print()
