"""Bit-level GF(2) linear algebra."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FANO_DUAL_ROWS, FANO_ROWS, PIVOTED_BLOCK_ROWS, STANDARD_BLOCK_ROWS
from matroidcat.gf2 import (
    Gf2Matrix,
    Gf2Vector,
    NotInSpan,
    PivotOnZero,
    gl_column_tuples,
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


def test_vector_entries_round_trip():
    v = Gf2Vector.from_entries([1, 0, 1, 1])
    assert v.entries() == (1, 0, 1, 1)
    assert v.entry(1) == 1 and v.entry(2) == 0
    assert v.support() == frozenset({1, 3, 4})
    assert v.weight() == 3
    assert not v.is_zero()
    assert Gf2Vector(0, 4).is_zero()


def test_vector_dot_and_xor():
    a = Gf2Vector.from_entries([1, 1, 0])
    b = Gf2Vector.from_entries([0, 1, 1])
    assert a.dot(b) == 1
    assert a.dot(a) == 0  # even weight
    assert (a ^ b).entries() == (1, 0, 1)
    assert a + b == a ^ b


def test_matrix_constructors_agree():
    rows = [[1, 0, 1], [0, 1, 1]]
    m = Gf2Matrix.from_rows(rows)
    assert m.entries() == rows
    assert m.nrows == 2 and m.ncols == 3
    # column j packs entry (i, j) into bit i-1
    assert m.column_bits(1) == 0b01
    assert m.column_bits(3) == 0b11
    again = Gf2Matrix.from_columns(m.columns(), 2)
    assert again == m
    assert Gf2Matrix.identity(3).entries() == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]


def test_entry_checks_both_indices():
    m = Gf2Matrix.from_rows([[1, 0, 1], [0, 1, 1]])
    assert m.entry(1, 3) == 1 and m.entry(2, 1) == 0
    for i, j in ((0, 2), (-1, 2), (3, 1), (1, 0), (1, 4)):
        with pytest.raises(IndexError, match="out of range"):
            m.entry(i, j)


@given(gf2_matrices())
def test_columns_round_trip(m):
    assert Gf2Matrix.from_columns(m.columns(), m.nrows) == m
    assert m.columns() == tuple(m.column_bits(j) for j in range(1, m.ncols + 1))


def test_rank_examples():
    assert Gf2Matrix.from_rows(FANO_ROWS).rank() == 3
    assert Gf2Matrix([0, 0], 5).rank() == 0
    assert Gf2Matrix.identity(5).rank() == 5


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
    assert m.rank() == len(pivots) and list(pivots) == sorted(pivots)
    for r, p in enumerate(pivots):
        assert reduced.column_bits(p) == 1 << r
        # leftmost: the pivot is the row's first nonzero entry
        assert reduced.rows[r] & ((1 << (p - 1)) - 1) == 0
    assert not any(reduced.rows[len(pivots):])


def test_nullspace_is_orthogonal_complement():
    m = Gf2Matrix.from_rows(FANO_ROWS)
    ns = m.nullspace_basis()
    assert ns.nrows == 4 and ns.ncols == 7
    for i in range(1, ns.nrows + 1):
        for j in range(1, m.nrows + 1):
            assert ns.row(i).dot(m.row(j)) == 0
    # spans the same space as the known dual representation
    dual = Gf2Matrix.from_rows(FANO_DUAL_ROWS)
    assert set(ns.row_space()) == set(dual.row_space())


@given(gf2_matrices())
def test_nullspace_basis_is_orthogonal_of_full_size(m):
    ns = m.nullspace_basis()
    assert ns.ncols == m.ncols
    assert ns.nrows == ns.rank() == m.ncols - m.rank()
    for v in ns.rows:
        for r in m.rows:
            assert not bin(v & r).count("1") & 1
    assert ns == nullspace_of_reduced(m.rref()[0])


def test_nullspace_trivial_cases():
    assert Gf2Matrix.identity(5).nullspace_basis().nrows == 0
    ns = Gf2Matrix.from_rows([[1, 1]]).nullspace_basis()
    assert ns.entries() == [[1, 1]]


def test_row_space():
    single = Gf2Matrix.from_rows([[1, 0, 1]])
    assert {v.entries() for v in single.row_space()} == {(0, 0, 0), (1, 0, 1)}
    assert len(Gf2Matrix.from_rows(FANO_ROWS).row_space()) == 8
    eye = Gf2Matrix.identity(2)
    assert {v.entries() for v in eye.row_space()} == {
        (0, 0), (0, 1), (1, 0), (1, 1),
    }


@given(gf2_matrices())
def test_row_space_is_the_span_of_the_rows(m):
    space = m.row_space()
    assert space[0] == Gf2Vector(0, m.ncols)
    assert len(space) == 1 << m.rank()
    assert set(space) == {Gf2Vector(x, m.ncols) for x in span_labels(m.rows)}


def test_row_space_closed_under_xor():
    rng = random.Random(1337)
    for _ in range(20):
        m = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 6))
        space = set(m.row_space())
        assert Gf2Vector(0, m.ncols) in space
        for a in space:
            for b in space:
                assert a ^ b in space


def test_pivot_block_regression():
    """All 40 entries of the worked 5x8 pivot, checked bit for bit."""
    m = Gf2Matrix.from_rows(STANDARD_BLOCK_ROWS)
    assert m.pivot(3, 2) == Gf2Matrix.from_rows(PIVOTED_BLOCK_ROWS)


def test_pivot_keeps_pivot_column_except_formula_cells():
    m = Gf2Matrix.from_rows(STANDARD_BLOCK_ROWS)
    p = m.pivot(3, 2)
    # column beta and row alpha are copied verbatim
    assert p.column_bits(2) == m.column_bits(2)
    assert p.row(3) == m.row(3)


def test_pivot_identity_is_fixed():
    eye = Gf2Matrix.identity(4)
    for i in range(1, 5):
        assert eye.pivot(i, i) == eye


def test_pivot_all_ones_two_by_two():
    # only the (2,2) cell satisfies gamma != alpha and delta != beta,
    # so it flips to 1 + 1*1 = 0 and everything else is copied
    m = Gf2Matrix.from_rows([[1, 1], [1, 1]])
    assert m.pivot(1, 1).entries() == [[1, 1], [1, 0]]


def test_pivot_involution():
    rng = random.Random(99)
    for _ in range(50):
        m = _random_matrix(rng, rng.randint(2, 5), rng.randint(2, 7))
        ones = [
            (i, j)
            for i in range(1, m.nrows + 1)
            for j in range(1, m.ncols + 1)
            if m.entry(i, j)
        ]
        if not ones:
            continue
        i, j = rng.choice(ones)
        assert m.pivot(i, j).pivot(i, j) == m


def test_pivot_on_zero_raises():
    m = Gf2Matrix.from_rows([[1, 0], [0, 1]])
    with pytest.raises(PivotOnZero):
        m.pivot(1, 2)


def test_solve_in_basis_identity():
    sol = solve_in_basis(Gf2Matrix.identity(3), Gf2Vector.from_entries([1, 0, 1]))
    assert sol.entries() == (1, 0, 1)


def test_solve_in_basis_fano_column():
    fano = Gf2Matrix.from_rows(FANO_ROWS)
    basis = Gf2Matrix.from_columns(
        [fano.column_bits(j) for j in (1, 2, 3)], 3
    )
    target = Gf2Vector.from_entries([1, 1, 1])  # column 7
    assert solve_in_basis(basis, target).entries() == (1, 1, 1)


def test_solve_in_basis_rejects_outside_span():
    basis = Gf2Matrix.from_columns([0b11], 2)  # single column (1,1)
    with pytest.raises(NotInSpan):
        solve_in_basis(basis, Gf2Vector.from_entries([0, 1]))


def test_solve_in_basis_rejects_dependent_columns():
    # (1,1,0) + (0,1,1) + (1,0,1) = 0, and a repeated column; each is tried
    # with a target inside the span and one outside it, where the dependence
    # is still what gets reported (NotInSpan is not a ValueError)
    cases = [
        ([0b011, 0b110, 0b101], ([1, 1, 0], [1, 0, 0])),
        ([0b10, 0b10], ([0, 1], [1, 0])),
    ]
    for cols, targets in cases:
        basis = Gf2Matrix.from_columns(cols, len(targets[0]))
        for entries in targets:
            with pytest.raises(ValueError, match="not linearly independent"):
                solve_in_basis(basis, Gf2Vector.from_entries(entries))


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
        sol = solve_in_basis(basis, Gf2Vector(target, k))
        assert sol.bits == coeff


@settings(max_examples=300)
@given(gf2_matrices(max_rows=4, max_cols=4), st.data())
def test_solve_in_basis_matches_its_definition(basis, data):
    target = data.draw(st.integers(0, (1 << basis.nrows) - 1))
    cols = basis.columns()
    if rank_of_labels(cols) < len(cols):
        # dependence is reported first, whether or not the target is in span
        with pytest.raises(ValueError, match="not linearly independent"):
            solve_in_basis(basis, Gf2Vector(target, basis.nrows))
    elif target in span_labels(cols):
        coeffs = solve_in_basis(basis, Gf2Vector(target, basis.nrows))
        assert coeffs.length == len(cols)
        assert transform_bits(cols, coeffs.bits) == target
    else:
        with pytest.raises(NotInSpan):
            solve_in_basis(basis, Gf2Vector(target, basis.nrows))


def test_rank_plus_nullity_is_ncols():
    rng = random.Random(4)
    for _ in range(30):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 8))
        assert m.rank() + m.nullspace_basis().rank() == m.ncols
        assert m.nullspace_basis().nrows == m.ncols - m.rank()


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
