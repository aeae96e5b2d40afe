"""Shared fixture matrices and oracles used across the test suite."""

from __future__ import annotations

import functools
import itertools
import operator

import pytest
from hypothesis import assume, settings
from hypothesis import strategies as st

from matroidcat.enumeration import generate
from matroidcat.gf2 import Gf2Matrix, gl_column_tuples, rank_of_labels, transform_bits
from matroidcat.matroid import BinaryMatroid

# every property test draws the same examples on every run, with no stored
# failures replayed and no time limit per example
settings.register_profile("matroidcat", deadline=None, derandomize=True, database=None)
settings.load_profile("matroidcat")

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


# R10: the ten weight-3 vectors of GF(2)^5, as column labels
R10_LABELS = tuple(v for v in range(32) if bin(v).count("1") == 3)


def matroid(rows: list[list[int]]) -> BinaryMatroid:
    return BinaryMatroid(Gf2Matrix.from_rows(rows))


def reference_cases() -> list[BinaryMatroid]:
    """Every loopless class with rank <= 4 and size <= 8, the Fano, dual
    Fano, polygon and nonregular13 matroids, and the duals of all of these."""
    primal = [
        BinaryMatroid(Gf2Matrix.from_columns(list(labels), k))
        for k in range(1, 5)
        for n in range(k, 9)
        for labels in generate(k, n, "loopless")
    ]
    primal += [
        matroid(rows)
        for rows in (FANO_ROWS, FANO_DUAL_ROWS, POLYGON_ROWS, NONREGULAR_13_ROWS)
    ]
    return primal + [m.dual() for m in primal]


def cycle_matroid_of_complete_graph(vertices: int) -> BinaryMatroid:
    """M(K_vertices): edge columns of the vertex-edge incidence matrix with
    the last vertex's row dropped, edges in lexicographic order."""
    rank = vertices - 1
    cols = [
        sum(1 << v for v in edge if v < rank)
        for edge in itertools.combinations(range(vertices), 2)
    ]
    return BinaryMatroid(Gf2Matrix.from_columns(cols, rank))


@st.composite
def binary_matroids(draw, max_k: int = 5, max_n: int = 10) -> BinaryMatroid:
    """Full-row-rank k x n matrices, rank 0 included.  Up to two coloops
    and up to two loops (zero columns), none in most draws, are added to a
    rank-(k - coloops) body of nonzero labels drawn with repetition, so
    parallel columns are likely too; then the columns are shuffled."""
    k = draw(st.integers(0, max_k))
    n = draw(st.integers(k, max_n))
    coloops = min(k, draw(st.sampled_from((0, 0, 0, 1, 2))))
    body = k - coloops
    if body:
        loops = min(n - k, draw(st.sampled_from((0, 0, 0, 1, 2))))
        labels = draw(
            st.lists(
                st.integers(1, (1 << body) - 1),
                min_size=n - coloops - loops,
                max_size=n - coloops - loops,
            )
        )
        assume(rank_of_labels(labels) == body)
        labels += [0] * loops
    else:
        labels = [0] * (n - coloops)
    cols = labels + [1 << (body + i) for i in range(coloops)]
    order = draw(st.permutations(range(n)))
    return BinaryMatroid(Gf2Matrix.from_columns([cols[j] for j in order], k))


@functools.cache
def relabellings(k: int) -> list[operator.itemgetter]:
    """The brute-force reference for GL(k, 2): one itemgetter per invertible
    matrix g, taking values indexed by label to (values[g(j)])_j."""
    return [
        operator.itemgetter(*(transform_bits(g, j) for j in range(1 << k)))
        for g in gl_column_tuples(k)
    ]


def orbit_maximum(labels, k: int) -> tuple[int, ...]:
    """The largest multiplicity function, indexed by label, in the GL(k, 2)
    orbit of the labels', by brute force."""
    values = [0] * (1 << k)
    for lbl in labels:
        values[lbl] += 1
    return max(relabel(values) for relabel in relabellings(k))


def orbit_count(k: int, n: int, simple: bool) -> int:
    """Classify all spanning candidate functions under the full group action."""
    labels = range(1, 1 << k)
    pool = (
        itertools.combinations(labels, n)
        if simple
        else itertools.combinations_with_replacement(labels, n)
    )
    funcs = set()
    for multiset in pool:
        if rank_of_labels(set(multiset)) != k:
            continue
        values = [0] * (1 << k)
        for lbl in multiset:
            values[lbl] += 1
        funcs.add(tuple(values))
    seen: set = set()
    orbits = 0
    for f in sorted(funcs):
        if f in seen:
            continue
        orbits += 1
        seen.update(relabel(f) for relabel in relabellings(k))
    return orbits


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
