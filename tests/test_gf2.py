"""Bit-level GF(2) linear algebra."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FANO_DUAL_ROWS, FANO_ROWS, gl_column_tuples, packed, transform_bits
from matroidcat.gf2 import (
    Gf2Matrix,
    NotInSpan,
    echelon_basis,
    gl_group_order,
    nullspace_of_reduced,
    rank_of_labels,
    solve_in_basis,
    span_labels,
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
    m = Gf2Matrix((0b101, 0b110), 3)
    assert m.nrows == 2 and m.ncols == 3
    # column j packs entry (i, j) into bit i-1
    assert m.columns() == (0b01, 0b10, 0b11)
    assert Gf2Matrix.from_columns(m.columns(), 2).rows == m.rows


def test_rows_are_bitmasks():
    m = Gf2Matrix.from_columns([0b01, 0b10, 0b11], 2)
    assert m.rows == (0b101, 0b110)
    assert repr(m) == "Gf2Matrix(2x3:101;011)"
    assert repr(Gf2Matrix((), 4)) == "Gf2Matrix(0x4:)"


@given(gf2_matrices())
def test_columns_round_trip(m):
    again = Gf2Matrix.from_columns(m.columns(), m.nrows)
    assert (again.rows, again.ncols) == (m.rows, m.ncols)
    assert m.columns() == tuple(
        sum((r >> j & 1) << i for i, r in enumerate(m.rows)) for j in range(m.ncols)
    )


def test_constructors_reject_negative_dimensions():
    with pytest.raises(ValueError, match="ncols must be non-negative"):
        Gf2Matrix((), -1)
    with pytest.raises(ValueError, match="nrows must be non-negative"):
        Gf2Matrix.from_columns([], -1)


def test_rank_examples():
    assert rank_of_labels(packed(FANO_ROWS).rows) == 3
    assert rank_of_labels(Gf2Matrix([0, 0], 5).rows) == 0
    assert rank_of_labels([1 << i for i in range(5)]) == 5


def test_rref_prefers_leftmost_pivots():
    # rows 011 and 110 reduce to 101 and 011, with pivots in columns 1 and 2
    reduced = Gf2Matrix([0b110, 0b011], 3).rref()
    assert reduced.rows == (0b101, 0b110)
    assert [r & -r for r in reduced.rows] == [0b001, 0b010]


@given(gf2_matrices())
def test_rref_is_idempotent_with_unit_pivot_columns(m):
    reduced = m.rref()
    assert (reduced.nrows, reduced.ncols) == (m.nrows, m.ncols)
    assert reduced.rref().rows == reduced.rows
    assert set(span_labels(reduced.rows)) == set(span_labels(m.rows))
    # the pivot of a nonzero row is its lowest set bit, in a unit column
    pivots = [(r & -r).bit_length() - 1 for r in reduced.rows if r]
    assert rank_of_labels(m.rows) == len(pivots) and pivots == sorted(pivots)
    for r, p in enumerate(pivots):
        assert reduced.columns()[p] == 1 << r
    assert not any(reduced.rows[len(pivots):])


@settings(max_examples=300)
@given(gf2_matrices(), st.data())
def test_rref_pivots_are_the_leftmost_independent_columns(m, data):
    # repeat some rows, so that eliminating them must leave zero rows
    extra = data.draw(st.lists(st.sampled_from(m.rows), max_size=3)) if m.rows else []
    m = Gf2Matrix(m.rows + tuple(extra), m.ncols)
    columns = m.columns()
    leftmost = [
        j
        for j in range(m.ncols)
        if rank_of_labels(columns[: j + 1]) > rank_of_labels(columns[:j])
    ]
    reduced = m.rref()
    nonzero = [r for r in reduced.rows if r]
    # increasing pivot order, each pivot the lowest bit of its row, zero rows last
    assert [(r & -r).bit_length() - 1 for r in nonzero] == leftmost
    assert reduced.rows == tuple(nonzero) + (0,) * (m.nrows - len(nonzero))
    reduced_columns = reduced.columns()
    for i, j in enumerate(leftmost):
        assert reduced_columns[j] == 1 << i
    assert set(span_labels(reduced.rows)) == set(span_labels(m.rows))


def test_nullspace_is_orthogonal_complement():
    m = packed(FANO_ROWS)
    ns = nullspace_of_reduced(m.rref())
    assert ns.nrows == 4 and ns.ncols == 7
    for v in ns.rows:
        for r in m.rows:
            assert (v & r).bit_count() & 1 == 0
    # spans the same space as the known dual representation
    assert set(span_labels(ns.rows)) == set(span_labels(packed(FANO_DUAL_ROWS).rows))


@given(gf2_matrices())
def test_nullspace_basis_is_orthogonal_of_full_size(m):
    ns = nullspace_of_reduced(m.rref())
    assert ns.ncols == m.ncols
    assert ns.nrows == rank_of_labels(ns.rows) == m.ncols - rank_of_labels(m.rows)
    # its span is every vector orthogonal to all the rows
    orthogonal = {
        v
        for v in range(1 << m.ncols)
        if not any((v & r).bit_count() & 1 for r in m.rows)
    }
    assert set(span_labels(ns.rows)) == orthogonal


def test_nullspace_trivial_cases():
    assert nullspace_of_reduced(Gf2Matrix([1 << i for i in range(5)], 5)).nrows == 0
    ns = nullspace_of_reduced(Gf2Matrix([0b11], 2).rref())
    assert ns.rows == (0b11,)


def test_row_space():
    assert set(span_labels([0b101])) == {0b000, 0b101}
    assert len(span_labels(packed(FANO_ROWS).rows)) == 8
    assert set(span_labels([0b01, 0b10])) == {0b00, 0b01, 0b10, 0b11}


@given(gf2_matrices())
def test_row_space_is_the_span_of_the_rows(m):
    # an echelon basis: distinct leading bits in decreasing order, same span
    basis = echelon_basis(m.rows)
    leading = [b.bit_length() for b in basis]
    assert leading == sorted(set(leading), reverse=True)
    assert set(span_labels(basis)) == set(span_labels(m.rows))
    assert len(set(span_labels(m.rows))) == 1 << len(basis)


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
    assert solve_in_basis(Gf2Matrix.from_columns([1, 2, 4], 3), 0b101) == 0b101


def test_solve_in_basis_fano_column():
    fano = packed(FANO_ROWS)
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
        ns = nullspace_of_reduced(m.rref())
        assert rank_of_labels(m.rows) + rank_of_labels(ns.rows) == m.ncols
        assert ns.nrows == m.ncols - rank_of_labels(m.rows)


def test_span_and_rank_of_labels():
    assert set(span_labels([1, 2])) == {0, 1, 2, 3}
    assert span_labels([]) == [0]
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


def test_span_labels_lists_every_combination_by_coefficient_vector():
    # entry c is the combination with coefficient vector c, so dependent
    # vectors give repeats: 2^m entries for m vectors, whatever their rank
    assert span_labels([0b011, 0b110]) == [0b000, 0b011, 0b110, 0b101]
    assert span_labels([0b11, 0b11]) == [0b00, 0b11, 0b11, 0b00]
    assert span_labels([0, 0b10, 0b10]) == [0, 0, 0b10, 0b10, 0b10, 0b10, 0, 0]


@given(st.lists(st.integers(0, 63), max_size=6))
def test_span_labels_is_the_image_table_of_the_columns(vectors):
    # any vectors, dependent or zero included, against the reference that
    # applies the matrix one bit of the coefficient vector at a time
    table = span_labels(vectors)
    assert table == [transform_bits(vectors, c) for c in range(1 << len(vectors))]
    assert len(set(table)) == 1 << rank_of_labels(vectors)
