"""Class counts from the cycle index of GL(k, 2), against enumeration."""

from __future__ import annotations

from collections import Counter

import pytest

import matroidcat.catalogue as catalogue
from conftest import gl_column_tuples, orbit_count
from matroidcat import enumeration
from matroidcat.catalogue import _pipeline, run_counts
from matroidcat.enumeration import generate
from matroidcat.gf2 import gl_group_order, transform_bits
from matroidcat.orbits import class_counts, cycle_index, orbit_counts


def _cycle_lengths(columns: tuple[int, ...]) -> tuple[int, ...]:
    seen, lengths = set(), []
    for v in range(1, 1 << len(columns)):
        length = 0
        while v not in seen:
            seen.add(v)
            length += 1
            v = transform_bits(columns, v)
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def test_classes_of_gl_k_2():
    for k, classes in zip(range(1, 8), (1, 3, 6, 14, 27, 60, 117)):
        index = cycle_index(k)
        assert len(index) == classes, k
        assert sum(size for size, _ in index) == gl_group_order(k), k
        for _, cycles in index:
            assert sum(length * m for length, m in cycles.items()) == (1 << k) - 1


def test_cycle_index_matches_every_group_element():
    # each cycle type, weighted by class size, against a walk of the group
    for k in range(1, 5):
        expected = Counter(_cycle_lengths(g) for g in gl_column_tuples(k))
        got: Counter = Counter()
        for size, cycles in cycle_index(k):
            got[tuple(sorted(cycles.elements()))] += size
        assert got == expected, k


def test_formula_equals_orbit_oracle():
    for simple in (False, True):
        for k in range(1, 4):
            plain = orbit_counts(k, 6, simple)
            for n in range(1, 7):
                spanning = [orbit_count(r, n, simple) for r in range(1, min(k, n) + 1)]
                assert plain[n] == sum(spanning), (simple, k, n)
        counts = class_counts(3, 6, simple, connected=False)
        for (k, n), count in counts.items():
            assert count == orbit_count(k, n, simple), (simple, k, n)


@pytest.mark.parametrize(
    "cls,max_k,max_n", [("loopless", 4, 9), ("simple", 5, 10)]
)
def test_formula_equals_generate(cls, max_k, max_n):
    counts = class_counts(max_k, max_n, cls == "simple", connected=False)
    assert set(counts) == {
        (k, n) for k in range(1, max_k + 1) for n in range(k, max_n + 1)
    }
    for (k, n), count in counts.items():
        assert count == sum(1 for _ in generate(k, n, cls)), (cls, k, n)


@pytest.mark.parametrize("cls", ["connected-loopless", "connected-simple"])
def test_connected_formula_equals_pipeline(cls):
    counts = class_counts(5, 9, cls == "connected-simple", connected=True)
    for (k, n), count in counts.items():
        assert count == sum(1 for _ in _pipeline(k, n, cls)), (k, n)


def test_frontier_counts_without_enumerating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("counts enumerated")

    monkeypatch.setattr(catalogue, "_pipeline", refuse)
    monkeypatch.setattr(catalogue, "generate", refuse)
    monkeypatch.setattr(enumeration, "generate", refuse)
    rows = {
        cls: [row.split()[1:] for row in run_counts(7, 14, cls).splitlines()[1:]]
        for cls in ("loopless", "simple")
    }
    assert int(rows["loopless"][4][11]) == 3480
    assert int(rows["loopless"][6][8]) == 35
    assert [int(c) for c in rows["simple"][5][9:14]] == [105, 273, 700, 1794, 4579]
    assert [int(c) for c in rows["simple"][6][9:12]] == [80, 312, 1285]
