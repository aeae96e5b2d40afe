"""Shared fixture matrices and oracles used across the test suite."""

from __future__ import annotations

import collections
import functools
import itertools
import operator
from typing import Iterable, Iterator

import pytest
from hypothesis import assume, settings
from hypothesis import strategies as st

from matroidcat.catalogue import matroid_of_labels
from matroidcat.enumeration import generate
from matroidcat.gf2 import Gf2Matrix, echelon_basis, rank_of_labels, transform_bits
from matroidcat.matroid import BinaryMatroid
from matroidcat.tutte import fundamental_circuit

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


def packed(rows: list[list[int]]) -> Gf2Matrix:
    """The matrix of the 0/1 rows above: entry j of a row is its bit j."""
    bits = [sum(e << j for j, e in enumerate(row)) for row in rows]
    return Gf2Matrix(bits, len(rows[0]))


def matroid(rows: list[list[int]]) -> BinaryMatroid:
    return BinaryMatroid(packed(rows).columns(), len(rows))


def reference_cases() -> list[BinaryMatroid]:
    """Every loopless class with rank <= 4 and size <= 8, the Fano, dual
    Fano, polygon and nonregular13 matroids, and the duals of all of these."""
    primal = [
        matroid_of_labels(labels, k)
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
    return matroid_of_labels(cols, rank)


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
    return matroid_of_labels([cols[j] for j in order], k)


def gl_column_tuples(k: int) -> Iterator[tuple[int, ...]]:
    """Every invertible k x k matrix over GF(2), as the tuple of its column
    bitmasks: each column is any vector outside the span of those before it."""
    size = 1 << k

    def extend(cols: tuple[int, ...], span: set[int]) -> Iterator[tuple[int, ...]]:
        if len(cols) == k:
            yield cols
            return
        for v in range(1, size):
            if v not in span:
                yield from extend(cols + (v,), span | {v ^ x for x in span})

    yield from extend((), {0})


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


def camion_signing(rows: list[int], ncols: int) -> list[list[int]]:
    """A {0, +-1} signing of the binary matrix with the given row bitmasks,
    by Camion's algorithm (Camion 1963; Truemper, Matroid Decomposition).

    The edges of the bipartite row/column graph are the 1 entries.  Those
    of a BFS spanning forest get +1.  Every other edge is then signed, the
    one whose ends are closest among the edges signed so far first, so that
    it and a shortest path between its ends sum to 0 mod 4.  Taken in that
    order, the cycle each edge closes has no chord in the whole graph, and
    a totally unimodular signing scaled to +1 on the forest sums to 0 mod 4
    on every chordless cycle.  So when the matrix has a totally unimodular
    signing, this is one.
    """
    k = len(rows)
    # rows are the vertices 0..k-1 and columns k..k+ncols-1
    edges = {(i, k + j) for i, r in enumerate(rows) for j in range(ncols) if r >> j & 1}
    graph: dict[int, list[int]] = {x: [] for x in range(k + ncols)}
    for i, c in sorted(edges):
        graph[i].append(c)
        graph[c].append(i)
    sign: dict[tuple[int, int], int] = {}
    signed: dict[int, list[int]] = {x: [] for x in graph}

    def add(u: int, v: int, s: int) -> None:
        sign[min(u, v), max(u, v)] = s
        signed[u].append(v)
        signed[v].append(u)

    seen: set[int] = set()
    for root in graph:
        if root in seen:
            continue
        seen.add(root)
        queue = collections.deque([root])
        while queue:
            x = queue.popleft()
            for y in graph[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
                    add(x, y, 1)

    def shortest_path(u: int, v: int) -> list[int]:
        # the vertices of a shortest u-v path among the signed edges
        before = {u: u}
        queue = collections.deque([u])
        while v not in before:
            x = queue.popleft()
            for y in signed[x]:
                if y not in before:
                    before[y] = x
                    queue.append(y)
        path = [v]
        while path[-1] != u:
            path.append(before[path[-1]])
        return path

    while len(sign) < len(edges):
        paths = {e: shortest_path(*e) for e in sorted(edges - sign.keys())}
        (u, v), path = min(paths.items(), key=lambda item: len(item[1]))
        total = sum(sign[min(x, y), max(x, y)] for x, y in zip(path, path[1:]))
        add(u, v, 1 if (total + 1) % 4 == 0 else -1)
    return [[sign.get((i, k + j), 0) for j in range(ncols)] for i in range(k)]


def determinant(matrix: list[list[int]]) -> int:
    """Integer determinant by Laplace expansion along the first row."""
    if not matrix:
        return 1
    return sum(
        (-1) ** j * x * determinant([row[:j] + row[j + 1 :] for row in matrix[1:]])
        for j, x in enumerate(matrix[0])
        if x
    )


def is_totally_unimodular(matrix: list[list[int]]) -> bool:
    """Every square submatrix has determinant 0, 1 or -1."""
    nrows, ncols = len(matrix), len(matrix[0]) if matrix else 0
    return all(
        abs(determinant([[matrix[i][j] for j in cols] for i in rows])) <= 1
        for size in range(1, min(nrows, ncols) + 1)
        for rows in itertools.combinations(range(nrows), size)
        for cols in itertools.combinations(range(ncols), size)
    )


def signed_free_part(m: BinaryMatroid) -> list[list[int]]:
    """Camion's signing of A, for m = M[I | A]: the reduced rows restricted
    to the non-pivot columns."""
    rows = m.reduced.rows
    pivots = {r & -r for r in rows}
    free = [1 << j for j in range(m.size) if 1 << j not in pivots]
    a_rows = [sum(1 << i for i, bit in enumerate(free) if r & bit) for r in rows]
    return camion_signing(a_rows, len(free))


def is_regular_by_camion(m: BinaryMatroid) -> bool:
    """Regularity of m = M[I | A] decided by Camion's signing of A: m is
    regular exactly when that signing is totally unimodular."""
    return is_totally_unimodular(signed_free_part(m))


def contract(m: BinaryMatroid, subset: Iterable[int]) -> BinaryMatroid:
    """Contract an independent set by reducing the columns against its own.

    Elements are processed in ascending label order.  Each one claims the
    lowest row not yet claimed that holds a 1 in its current column, and
    that column is added to every other remaining column with a 1 in the
    row: this is the pivot there, up to the claimed rows, which are dropped
    at the end with the contracted columns.  The minor keeps m's labels.
    """
    todo = frozenset(subset)
    if not todo <= set(m.ground):
        raise ValueError("contraction set must lie inside the ground set")
    if m.rank_of(todo) != len(todo):
        raise ValueError(f"{sorted(todo)} is dependent")
    if not todo:
        return m

    cols = {e: m.column_of(e) for e in m.ground}
    claimed = 0  # bitmask of consumed rows
    for e in sorted(todo):
        c = cols.pop(e)
        free = c & ~claimed
        bit = free & -free  # lowest free row holding a 1
        cols = {f: d ^ c if d & bit else d for f, d in cols.items()}
        claimed |= bit
    columns = list(cols.values())
    for i in reversed(range(m.rank)):  # drop the claimed rows, highest first
        if claimed >> i & 1:
            low = (1 << i) - 1
            columns = [c & low | c >> 1 & ~low for c in columns]
    return BinaryMatroid(columns, m.rank - len(todo), tuple(cols))


def delete(m: BinaryMatroid, subset: Iterable[int]) -> BinaryMatroid:
    """Remove elements; the rows become an echelon basis of the row space
    in case rank drops.  The minor keeps m's labels."""
    gone = frozenset(subset)
    if not gone <= set(m.ground):
        raise ValueError("deletion set must lie inside the ground set")
    survivors = tuple(e for e in m.ground if e not in gone)
    cols = [m.column_of(e) for e in survivors]
    rows = echelon_basis(Gf2Matrix.from_columns(cols, m.rank).rows)
    return BinaryMatroid(Gf2Matrix(rows, len(survivors)).columns(), len(rows), survivors)


def simplify(m: BinaryMatroid) -> tuple[BinaryMatroid, dict[int, frozenset[int]]]:
    """Drop loops and merge parallel classes onto their smallest label.

    Returns the simple matroid plus a map from each surviving element to its
    full parallel class in m.
    """
    classes: dict[int, list[int]] = {}
    for e in m.ground:
        col = m.column_of(e)
        if col:
            classes.setdefault(col, []).append(e)
    survivors = sorted(min(members) for members in classes.values())
    columns = [m.column_of(e) for e in survivors]
    mapping = {min(members): frozenset(members) for members in classes.values()}
    return BinaryMatroid(columns, m.rank, tuple(survivors)), mapping


def is_fano(m: BinaryMatroid) -> bool:
    """True iff the columns are exactly the seven nonzero vectors of GF(2)^3."""
    if m.rank != 3 or m.size != 7:
        return False
    return {m.column_of(e) for e in m.ground} == set(range(1, 8))


def is_fano_dual(m: BinaryMatroid) -> bool:
    """True iff m is the dual of the Fano plane (rank 4 on 7 elements)."""
    return m.rank == 4 and m.size == 7 and is_fano(simplify(m.dual())[0])


def bases(m: BinaryMatroid) -> list[frozenset[int]]:
    """All bases, in lexicographic order of their sorted element lists."""
    return [
        frozenset(s)
        for s in itertools.combinations(m.ground, m.rank)
        if m.rank_of(s) == m.rank
    ]


def external_activity(m: BinaryMatroid, basis: frozenset[int]) -> int:
    """Non-basis elements that are the maximum of their fundamental circuit,
    each circuit solved for on its own."""
    return sum(
        1
        for x in m.ground
        if x not in basis and x == max(fundamental_circuit(m, basis, x))
    )


def internal_activity(m: BinaryMatroid, basis: frozenset[int]) -> int:
    """Basis elements that are the maximum of their fundamental cocircuit:
    the external activity of the complementary basis in the dual."""
    return external_activity(m.dual(), frozenset(m.ground) - basis)


def _subsets(m: BinaryMatroid) -> Iterator[tuple[int, ...]]:
    return itertools.chain.from_iterable(
        itertools.combinations(m.ground, size) for size in range(m.size + 1)
    )


def count_independent_sets(m: BinaryMatroid) -> int:
    """Direct subset enumeration; cross-checks evaluate(T, 2, 1)."""
    return sum(m.rank_of(s) == len(s) for s in _subsets(m))


def count_spanning_sets(m: BinaryMatroid) -> int:
    """Direct subset enumeration; cross-checks evaluate(T, 1, 2)."""
    return sum(m.rank_of(s) == m.rank for s in _subsets(m))


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
