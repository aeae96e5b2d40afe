"""Shared fixture matrices used across the test suite."""

from __future__ import annotations

import pytest

from matroidcat.enumeration import generate
from matroidcat.gf2 import Gf2Matrix
from matroidcat.matroid import BinaryMatroid

# The Fano plane: columns are the seven nonzero vectors of GF(2)^3.
FANO_ROWS = [
    [1, 0, 0, 0, 1, 1, 1],
    [0, 1, 0, 1, 0, 1, 1],
    [0, 0, 1, 1, 1, 0, 1],
]

# Same matroid under a different row basis (rows 2, 1+3, 2+3 of the above);
# the column multiset is again all of GF(2)^3 \ {0}.
FANO_ALT_ROWS = [
    [0, 1, 0, 1, 0, 1, 1],
    [1, 0, 1, 1, 0, 1, 0],
    [0, 1, 1, 0, 1, 1, 0],
]

# A rank-4 representation of the dual: every row below is orthogonal to
# every row of FANO_ROWS.
FANO_DUAL_ROWS = [
    [0, 1, 1, 1, 0, 0, 0],
    [0, 1, 1, 0, 1, 1, 0],
    [1, 1, 0, 0, 0, 1, 0],
    [1, 1, 1, 0, 0, 0, 1],
]

# Rank-5 matroid on 13 elements, in standard form with basis {1,...,5}.
# Contracting the independent set {2, 7} and simplifying yields the Fano
# plane, so this matroid is not regular.
NONREGULAR_13_ROWS = [
    [1, 0, 0, 0, 0, 1, 0, 1, 1, 0, 1, 1, 0],
    [0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1, 1],
    [0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 0, 1, 1],
    [0, 0, 0, 0, 1, 1, 1, 1, 0, 1, 1, 0, 0],
]

# The non-identity block of NONREGULAR_13_ROWS (columns 6..13).
STANDARD_BLOCK_ROWS = [
    [1, 0, 1, 1, 0, 1, 1, 0],
    [1, 0, 1, 0, 0, 0, 1, 1],
    [0, 1, 0, 1, 0, 1, 0, 0],
    [0, 0, 1, 1, 1, 0, 1, 1],
    [1, 1, 1, 0, 1, 1, 0, 0],
]

# STANDARD_BLOCK_ROWS pivoted at row 3, column 2: only row 5 changes,
# because rows 1, 2, 4 have a zero in column 2.
PIVOTED_BLOCK_ROWS = [
    [1, 0, 1, 1, 0, 1, 1, 0],
    [1, 0, 1, 0, 0, 0, 1, 1],
    [0, 1, 0, 1, 0, 1, 0, 0],
    [0, 0, 1, 1, 1, 0, 1, 1],
    [1, 1, 1, 1, 1, 0, 0, 0],
]

# Standard form of the contraction of NONREGULAR_13 by {2, 7}: the basis
# rows left over are those of elements 1, 4, 5, and the non-unit columns
# appear in the original column order 6, 3, 8, 9, ..., 13.
CONTRACTED_BLOCK_ROWS = [
    [1, 0, 1, 1, 0, 1, 1, 0],
    [0, 0, 1, 1, 1, 0, 1, 1],
    [1, 1, 1, 1, 1, 0, 0, 0],
]
CONTRACTED_COLUMN_ORDER = (6, 3, 8, 9, 10, 11, 12, 13)

# Vertex-edge incidence rows (one vertex dropped to keep full row rank) of
# a 6-vertex, 8-edge graph. Its cycle matroid has rank 5 and 28 bases.
POLYGON_ROWS = [
    [0, 0, 1, 1, 0, 0, 0, 0],
    [0, 0, 0, 1, 1, 0, 0, 0],
    [1, 0, 0, 0, 1, 1, 1, 0],
    [1, 1, 0, 0, 0, 0, 0, 0],
    [0, 1, 1, 0, 0, 1, 0, 1],
]

POLYGON_CIRCUITS = [
    {1, 2, 6},
    {6, 7, 8},
    {1, 2, 7, 8},
    {3, 4, 5, 6},
    {1, 2, 3, 4, 5},
    {3, 4, 5, 7, 8},
]


def matroid(rows: list[list[int]]) -> BinaryMatroid:
    return BinaryMatroid(Gf2Matrix.from_rows(rows))


def reference_cases() -> list[BinaryMatroid]:
    """Every loopless class with rank <= 4 and size <= 8, the Fano, dual
    Fano, polygon and nonregular13 matroids, and the duals of all of these."""
    primal = [
        BinaryMatroid(Gf2Matrix.from_columns(list(lv.labels), k))
        for k in range(1, 5)
        for n in range(k, 9)
        for lv in generate(k, n, "loopless")
    ]
    primal += [
        matroid(rows)
        for rows in (FANO_ROWS, FANO_DUAL_ROWS, POLYGON_ROWS, NONREGULAR_13_ROWS)
    ]
    return primal + [m.dual() for m in primal]


@pytest.fixture
def fano() -> BinaryMatroid:
    return matroid(FANO_ROWS)


@pytest.fixture
def fano_dual() -> BinaryMatroid:
    return matroid(FANO_DUAL_ROWS)


@pytest.fixture
def nonregular13() -> BinaryMatroid:
    return matroid(NONREGULAR_13_ROWS)


@pytest.fixture
def polygon() -> BinaryMatroid:
    return matroid(POLYGON_ROWS)
