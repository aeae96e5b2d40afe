"""Bit-level GF(2) linear algebra."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FANO_DUAL_ROWS, FANO_ROWS, gl_column_tuples
from matroidcat.gf2 import (
    Gf2Matrix,
    NotInSpan,
    echelon_basis,
    gl_group_order,
    nullspace_of_reduced,
    rank_of_labels,
    solve_in_basis,
    span_labels,
    transform_bits,
)


def _random_matrix(rng: random.Random, nrows: int, ncols: int) -> Gf2Matrix:
    return Gf2Matrix(
        [rng.getrandbits(ncols) for _ in range(nrows)], ncols
    )


@st.composite
def gf2_matrices(draw, max_rows: int = 6, max_cols: int = 9) -> Gf2Matrix:
    """Any k x n matrix, zero rows and repeated rows included."""
    ncols = draw(st.integers(0, max_cols))
    rows = draw(st.lists(st.integers(0, (1 << ncols) - 1), max_size=max_rows))
    return Gf2Matrix(rows, ncols)


def test_matrix_constructors_agree():
    rows = [[1, 0, 1], [0, 1, 1]]
    m = Gf2Matrix.from_rows(rows)
    assert m.entries() == rows
    assert m.nrows == 2 and m.ncols == 3
    # column j packs entry (i, j) into bit i-1
    assert m.columns() == (0b01, 0b10, 0b11)
    again = Gf2Matrix.from_columns(m.columns(), 2)
    assert again == m
    assert Gf2Matrix.identity(3).entries() == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]


def test_rows_are_bitmasks():
    m = Gf2Matrix.from_rows([[1, 0, 1], [0, 1, 1]])
    assert m.rows == (0b101, 0b110)
    assert repr(m) == "Gf2Matrix(2x3:101;011)"
    assert repr(Gf2Matrix((), 4)) == "Gf2Matrix(0x4:)"
    with pytest.raises(ValueError, match="entries must be 0 or 1"):
        Gf2Matrix.from_rows([[1, 0], [2, 0]])
    with pytest.raises(ValueError, match="rows must have equal length"):
        Gf2Matrix.from_rows([[1, 0], [1]])
    with pytest.raises(ValueError, match="needs at least one row"):
        Gf2Matrix.from_rows([])


@given(gf2_matrices())
def test_columns_round_trip(m):
    assert Gf2Matrix.from_columns(m.columns(), m.nrows) == m
    entries = m.entries()
    assert m.columns() == tuple(
        sum(row[j] << i for i, row in enumerate(entries)) for j in range(m.ncols)
    )


def test_constructors_reject_negative_dimensions():
    with pytest.raises(ValueError, match="ncols must be non-negative"):
        Gf2Matrix((), -1)
    with pytest.raises(ValueError, match="nrows must be non-negative"):
        Gf2Matrix.from_columns([], -1)


def test_rank_examples():
    assert rank_of_labels(Gf2Matrix.from_rows(FANO_ROWS).rows) == 3
    assert rank_of_labels(Gf2Matrix([0, 0], 5).rows) == 0
    assert rank_of_labels(Gf2Matrix.identity(5).rows) == 5


def test_rref_prefers_leftmost_pivots():
    m = Gf2Matrix.from_rows([[0, 1, 1], [1, 1, 0]])
    reduced, pivots = m.rref()
    assert pivots == (1, 2)
    assert reduced.entries() == [[1, 0, 1], [0, 1, 1]]


@given(gf2_matrices())
def test_rref_is_idempotent_with_unit_pivot_columns(m):
    reduced, pivots = m.rref()
    assert reduced.rref() == (reduced, pivots)
    assert span_labels(reduced.rows) == span_labels(m.rows)
    assert rank_of_labels(m.rows) == len(pivots) and list(pivots) == sorted(pivots)
    for r, p in enumerate(pivots):
        assert reduced.columns()[p - 1] == 1 << r
        # leftmost: the pivot is the row's first nonzero entry
        assert reduced.rows[r] & ((1 << (p - 1)) - 1) == 0
    assert not any(reduced.rows[len(pivots):])


def test_nullspace_is_orthogonal_complement():
    m = Gf2Matrix.from_rows(FANO_ROWS)
    ns = nullspace_of_reduced(m.rref()[0])
    assert ns.nrows == 4 and ns.ncols == 7
    for v in ns.rows:
        for r in m.rows:
            assert (v & r).bit_count() & 1 == 0
    # spans the same space as the known dual representation
    assert span_labels(ns.rows) == span_labels(Gf2Matrix.from_rows(FANO_DUAL_ROWS).rows)


@given(gf2_matrices())
def test_nullspace_basis_is_orthogonal_of_full_size(m):
    ns = nullspace_of_reduced(m.rref()[0])
    assert ns.ncols == m.ncols
    assert ns.nrows == rank_of_labels(ns.rows) == m.ncols - rank_of_labels(m.rows)
    # its span is every vector orthogonal to all the rows
    orthogonal = {
        v
        for v in range(1 << m.ncols)
        if not any((v & r).bit_count() & 1 for r in m.rows)
    }
    assert span_labels(ns.rows) == orthogonal


def test_nullspace_trivial_cases():
    assert nullspace_of_reduced(Gf2Matrix.identity(5)).nrows == 0
    ns = nullspace_of_reduced(Gf2Matrix.from_rows([[1, 1]]).rref()[0])
    assert ns.entries() == [[1, 1]]


def test_row_space():
    assert span_labels(Gf2Matrix.from_rows([[1, 0, 1]]).rows) == {0b000, 0b101}
    assert len(span_labels(Gf2Matrix.from_rows(FANO_ROWS).rows)) == 8
    assert span_labels(Gf2Matrix.identity(2).rows) == {0b00, 0b01, 0b10, 0b11}


@given(gf2_matrices())
def test_row_space_is_the_span_of_the_rows(m):
    # an echelon basis: distinct leading bits in decreasing order, same span
    basis = echelon_basis(m.rows)
    leading = [b.bit_length() for b in basis]
    assert leading == sorted(set(leading), reverse=True)
    assert span_labels(basis) == span_labels(m.rows)
    assert len(span_labels(m.rows)) == 1 << len(basis)


def test_row_space_closed_under_xor():
    rng = random.Random(1337)
    for _ in range(20):
        m = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 6))
        space = span_labels(m.rows)
        assert 0 in space
        assert all(0 <= v < 1 << m.ncols for v in space)
        for a in space:
            for b in space:
                assert a ^ b in space


def test_solve_in_basis_identity():
    assert solve_in_basis(Gf2Matrix.identity(3), 0b101) == 0b101


def test_solve_in_basis_fano_column():
    fano = Gf2Matrix.from_rows(FANO_ROWS)
    basis = Gf2Matrix.from_columns(fano.columns()[:3], 3)
    target = 0b111  # column 7
    assert solve_in_basis(basis, target) == 0b111


def test_solve_in_basis_rejects_outside_span():
    basis = Gf2Matrix.from_columns([0b11], 2)  # single column (1,1)
    with pytest.raises(NotInSpan):
        solve_in_basis(basis, 0b10)


def test_solve_in_basis_rejects_dependent_columns():
    # (1,1,0) + (0,1,1) + (1,0,1) = 0, and a repeated column; each is tried
    # with a target inside the span and one outside it, where the dependence
    # is still what gets reported (NotInSpan is not a ValueError)
    cases = [
        ([0b011, 0b110, 0b101], 3, (0b011, 0b001)),
        ([0b10, 0b10], 2, (0b10, 0b01)),
    ]
    for cols, nrows, targets in cases:
        basis = Gf2Matrix.from_columns(cols, nrows)
        for target in targets:
            with pytest.raises(ValueError, match="not linearly independent"):
                solve_in_basis(basis, target)


def test_solve_in_basis_rejects_targets_wider_than_the_rows():
    # a target that does not fit is reported before a dependence
    for cols in ([0b01, 0b10], [0b10, 0b10]):
        basis = Gf2Matrix.from_columns(cols, 2)
        for target in (0b100, 0b111, -1):
            with pytest.raises(ValueError, match="does not fit in 2 rows"):
                solve_in_basis(basis, target)


def test_solve_in_basis_random_round_trip():
    rng = random.Random(2718)
    for _ in range(30):
        k = rng.randint(1, 5)
        cols = []
        span = {0}
        while len(cols) < k:
            c = rng.getrandbits(k)
            if c not in span:
                span |= {c ^ s for s in span}
                cols.append(c)
        basis = Gf2Matrix.from_columns(cols, k)
        coeff = rng.getrandbits(k)
        target = 0
        for idx, c in enumerate(cols):
            if coeff >> idx & 1:
                target ^= c
        assert solve_in_basis(basis, target) == coeff


@settings(max_examples=300)
@given(gf2_matrices(max_rows=4, max_cols=4), st.data())
def test_solve_in_basis_matches_its_definition(basis, data):
    target = data.draw(st.integers(0, (1 << basis.nrows) - 1))
    cols = basis.columns()
    if rank_of_labels(cols) < len(cols):
        # dependence is reported first, whether or not the target is in span
        with pytest.raises(ValueError, match="not linearly independent"):
            solve_in_basis(basis, target)
    elif target in span_labels(cols):
        coeffs = solve_in_basis(basis, target)
        assert 0 <= coeffs < 1 << len(cols)
        assert transform_bits(cols, coeffs) == target
    else:
        with pytest.raises(NotInSpan):
            solve_in_basis(basis, target)


def test_rank_plus_nullity_is_ncols():
    rng = random.Random(4)
    for _ in range(30):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 8))
        ns = nullspace_of_reduced(m.rref()[0])
        assert rank_of_labels(m.rows) + rank_of_labels(ns.rows) == m.ncols
        assert ns.nrows == m.ncols - rank_of_labels(m.rows)


def test_span_and_rank_of_labels():
    assert span_labels([1, 2]) == {0, 1, 2, 3}
    assert span_labels([]) == {0}
    assert rank_of_labels([1, 2, 3]) == 2
    assert rank_of_labels([0]) == 0
    assert rank_of_labels([1, 2, 4, 7]) == 3


def test_gl_group_order():
    assert gl_group_order(1) == 1
    assert gl_group_order(2) == 6
    assert gl_group_order(3) == 168


def test_gl_column_tuples_enumerates_whole_group():
    tuples = list(gl_column_tuples(2))
    assert len(tuples) == 6
    assert len(set(tuples)) == 6
    for cols in tuples:
        assert rank_of_labels(cols) == 2
    assert len(list(gl_column_tuples(3))) == 168


def test_transform_bits_is_linear():
    cols = (0b011, 0b110, 0b101)  # images of the three unit vectors
    assert transform_bits(cols, 0b001) == 0b011
    assert transform_bits(cols, 0b110) == 0b110 ^ 0b101
    for v in range(8):
        for w in range(8):
            assert transform_bits(cols, v ^ w) == transform_bits(
                cols, v
            ) ^ transform_bits(cols, w)
