"""BinaryMatroid structure: circuits, flats, minors, duality, isomorphism."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    CONTRACTED_BLOCK_ROWS,
    CONTRACTED_COLUMN_ORDER,
    FANO_ALT_ROWS,
    FANO_ROWS,
    POLYGON_CIRCUITS,
    binary_matroids,
    contract,
    delete,
    matroid,
    orbit_maximum,
    packed,
    reference_cases,
    simplify,
)
from matroidcat.catalogue import matroid_of_labels
from matroidcat.enumeration import canonical_form, generate
from matroidcat.gf2 import Gf2Matrix, nullspace_of_reduced, rank_of_labels, span_labels
from matroidcat.matroid import BinaryMatroid, CircuitSpaceTooLarge, CorankTooLarge


PARALLEL_PAIR = matroid_of_labels([1, 1], 1)  # matrix (1 1)


def columns_of(m):
    return [m.column_of(e) for e in m.ground]


def test_rejects_rank_deficient_matrix():
    with pytest.raises(ValueError):
        BinaryMatroid([0b11, 0b11], 2)


@settings(max_examples=200)
@given(st.data())
def test_constructor_keeps_its_columns(data):
    k = data.draw(st.integers(0, 5))
    n = data.draw(st.integers(k, 10))
    columns = data.draw(
        st.lists(st.integers(0, (1 << k) - 1), min_size=n, max_size=n)
    )
    assume(rank_of_labels(columns) == k)
    ground = tuple(
        sorted(data.draw(st.sets(st.integers(-20, 20), min_size=n, max_size=n)))
    )
    m = BinaryMatroid(columns, k, ground)
    assert [m.column_of(e) for e in ground] == columns
    assert m.reduced.rows == Gf2Matrix.from_columns(columns, k).rref().rows
    assert BinaryMatroid(columns, k).ground == tuple(range(1, n + 1))
    with pytest.raises(ValueError, match="does not fit"):
        BinaryMatroid(columns + [1 << k], k)
    with pytest.raises(ValueError, match="span"):
        BinaryMatroid(columns, k + 1)
    with pytest.raises(ValueError, match="ground size"):
        BinaryMatroid(columns, k, ground + (21,))
    if n >= 2:
        with pytest.raises(ValueError, match="increasing"):
            BinaryMatroid(columns, k, ground[::-1])


def test_ground_defaults_to_one_through_n(fano):
    assert fano.ground == (1, 2, 3, 4, 5, 6, 7)
    assert fano.rank == 3 and fano.size == 7


# the cocircuits of a matroid are the circuits of its dual


def test_cocircuits_two_coloops():
    eye = matroid_of_labels([1, 2], 2)
    assert eye.dual().circuits == {frozenset({1}), frozenset({2})}


def test_cocircuits_parallel_pair():
    assert PARALLEL_PAIR.dual().circuits == {frozenset({1, 2})}


def test_cocircuits_fano(fano):
    cocircuits = fano.dual().circuits
    assert len(cocircuits) == 7
    assert all(len(d) == 4 for d in cocircuits)


@settings(max_examples=200)
@given(binary_matroids())
def test_cocircuits_are_the_minimal_supports_of_the_row_space(m):
    # the row-space definition, which the dual's circuits are not computed by;
    # in order of weight, a support comes before every support containing it
    minimal = []
    for v in sorted(span_labels(m.reduced.rows) - {0}, key=int.bit_count):
        if not any(u & v == u for u in minimal):
            minimal.append(v)
    assert m.dual().circuits == {
        frozenset(e for i, e in enumerate(m.ground) if v >> i & 1) for v in minimal
    }


def test_circuits_free_matroid_has_none():
    assert matroid_of_labels([1, 2, 4], 3).circuits == frozenset()


def test_circuits_parallel_pair():
    assert PARALLEL_PAIR.circuits == {frozenset({1, 2})}


def test_circuits_polygon(polygon):
    assert polygon.circuits == {frozenset(c) for c in POLYGON_CIRCUITS}


def test_circuits_fano_count(fano):
    # 7 three-element lines plus their 7 four-element complements
    sizes = sorted(len(c) for c in fano.circuits)
    assert sizes == [3] * 7 + [4] * 7


def test_circuit_families_are_antichains(fano, polygon):
    for fam in (fano.circuits, fano.dual().circuits, polygon.circuits):
        for a, b in itertools.permutations(fam, 2):
            assert not a < b


def test_circuit_cocircuit_intersection_never_single(fano, polygon):
    for m in (fano, polygon):
        for c in m.circuits:
            for d in m.dual().circuits:
                assert len(c & d) != 1


def span_closure(m, subset):
    """Closure as the elements whose columns lie in the full span."""
    span = span_labels([m.column_of(e) for e in subset])
    return frozenset(e for e in m.ground if m.column_of(e) in span)


def test_hyperplanes_fano_are_the_lines(fano):
    lines = fano.flats_of_corank(1)
    assert len(lines) == 7
    for line in lines:
        assert len(line) == 3
        assert fano.rank_of(line) == 2
        assert span_closure(fano, line) == line


def test_flats_of_corank(fano):
    assert fano.flats_of_corank(2) == {frozenset({e}) for e in fano.ground}
    assert fano.flats_of_corank(3) == {frozenset()}
    eye = matroid_of_labels([1, 2, 4], 3)
    assert eye.flats_of_corank(1) == {
        frozenset({2, 3}), frozenset({1, 3}), frozenset({1, 2}),
    }


def test_flats_of_corank_properties(polygon):
    for c in (1, 2, 3):
        for flat in polygon.flats_of_corank(c):
            assert span_closure(polygon, flat) == flat
            assert polygon.rank_of(flat) == polygon.rank - c


def flats_by_corank_bruteforce(m):
    """Every flat, from all 2^n subsets, keyed by corank."""
    flats = {c: set() for c in range(1, m.rank + 1)}
    for size in range(m.size + 1):
        for subset in itertools.combinations(m.ground, size):
            f = frozenset(subset)
            if span_closure(m, f) == f and m.rank_of(f) < m.rank:
                flats[m.rank - m.rank_of(f)].add(f)
    return flats


def test_flats_of_corank_are_all_the_flats(fano, polygon):
    cases = [
        matroid_of_labels(labels, k)
        for k in range(1, 5)
        for n in range(k, 8)
        for labels in generate(k, n, "loopless")
    ]
    # two loops, parallel classes {2, 3, 7} and {4, 5}, rank 3
    cases.append(matroid_of_labels([0, 1, 1, 2, 2, 4, 1, 0], 3))
    cases += [
        matroid_of_labels(labels, 2).dual()
        for n in range(2, 9)
        for labels in generate(2, n, "loopless")
    ]
    cases += [fano, polygon]
    for m in cases:
        expected = flats_by_corank_bruteforce(m)
        for c in range(1, m.rank + 1):
            assert m.flats_of_corank(c) == expected[c], (m, c)


def test_closure_by_reduction_matches_span_closure():
    for k in range(1, 5):
        for n in range(k, 9):
            for labels in generate(k, n, "simple"):
                m = matroid_of_labels(labels, k)
                independent = {c: set() for c in range(1, k + 1)}
                for size in range(k):
                    for s in itertools.combinations(m.ground, size):
                        if m.rank_of(s) == size:
                            independent[k - size].add(span_closure(m, s))
                for c in range(1, k + 1):
                    assert m.flats_of_corank(c) == independent[c], (m, c)


def test_circuit_spaces_beyond_the_bound_are_refused():
    # circuits walk all 2^corank null-space vectors, those of the dual 2^rank;
    # one bound, 2^20, refuses both at dimension 21
    with pytest.raises(CircuitSpaceTooLarge, match="null space"):
        matroid_of_labels([1] * 22, 1).circuits
    with pytest.raises(CircuitSpaceTooLarge, match="null space"):
        matroid_of_labels([1 << i for i in range(21)], 21).dual().circuits


def test_flats_of_corank_bounds(fano):
    with pytest.raises(CorankTooLarge):
        fano.flats_of_corank(4)
    with pytest.raises(ValueError):
        fano.flats_of_corank(0)


def test_rank_refuses_elements_outside_the_ground_set(fano):
    for subset in ([99], {1, 2, 99}, [0]):
        with pytest.raises(ValueError, match="must lie inside the ground set"):
            fano.rank_of(subset)


def test_closure_picks_up_loops():
    # the flat of rank 0, the closure of the empty set, is the loops
    assert matroid_of_labels([0, 1, 2], 2).flats_of_corank(2) == {frozenset({1})}


def test_simplify_drops_loops_and_merges_parallel():
    m = matroid_of_labels([0, 3, 3, 2], 2)
    simple, classes = simplify(m)
    assert simple.ground == (2, 4)
    assert columns_of(simple) == [3, 2]
    assert classes == {2: frozenset({2, 3}), 4: frozenset({4})}


def test_simplify_of_simple_matroid_is_identity(fano):
    simple, classes = simplify(fano)
    assert simple.ground == fano.ground and columns_of(simple) == columns_of(fano)
    assert classes == {e: frozenset({e}) for e in fano.ground}


def test_simplify_is_idempotent(polygon):
    once, _ = simplify(polygon)
    twice, _ = simplify(once)
    assert twice.ground == once.ground and columns_of(twice) == columns_of(once)


def test_contract_block_regression(nonregular13):
    """Contracting {2, 7} reproduces the hand-computed standard form."""
    minor = contract(nonregular13, {2, 7})
    assert minor.rank == 3
    assert minor.ground == (1, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13)
    block = packed(CONTRACTED_BLOCK_ROWS)
    for e, column in zip(CONTRACTED_COLUMN_ORDER, block.columns()):
        assert minor.column_of(e) == column
    # the surviving basis elements 1, 4, 5 keep unit columns
    assert [minor.column_of(e) for e in (1, 4, 5)] == [1, 2, 4]


def test_contract_parallel_classes(nonregular13):
    minor = contract(nonregular13, {2, 7})
    simple, classes = simplify(minor)
    assert simple.size == 7
    assert classes[8] == frozenset({8, 9})
    assert classes[3] == frozenset({3, 5})


def test_contract_empty_set_is_identity(fano):
    minor = contract(fano, set())
    assert minor.ground == fano.ground and columns_of(minor) == columns_of(fano)


def test_contract_basis_element_of_free_matroid():
    eye = matroid_of_labels([1, 2, 4], 3)
    minor = contract(eye, {1})
    assert minor.ground == (2, 3)
    assert columns_of(minor) == [1, 2]


def test_contract_rejects_dependent_set(fano):
    with pytest.raises(ValueError, match="dependent"):
        contract(fano, {1, 2, 6})


def test_contract_rank_drop(polygon):
    minor = contract(polygon, {1, 3})
    assert minor.rank == polygon.rank - 2
    assert minor.size == polygon.size - 2


def test_contract_in_two_steps_matches_one_step(fano):
    both = contract(fano, {1, 2})
    stepped = contract(contract(fano, {1}), {2})
    assert stepped.circuits == both.circuits
    assert stepped.ground == both.ground


@settings(max_examples=300)
@given(binary_matroids(max_k=6, max_n=11), st.data())
def test_contraction_circuits_are_the_minimal_circuit_remainders(m, data):
    # the circuits of M/S are the minimal nonempty sets C - S, C a circuit of
    # M (Oxley, Prop. 3.1.11); S is grown greedily from a drawn order
    order = data.draw(st.permutations(m.ground))
    s: set[int] = set()
    for e in order[: data.draw(st.integers(0, m.size))]:
        if m.rank_of(s | {e}) == len(s) + 1:
            s.add(e)
    remainders = {c - s for c in m.circuits}
    minimal = {c for c in remainders if c and not any(d < c for d in remainders if d)}
    assert contract(m, s).circuits == minimal


def test_delete(fano):
    smaller = delete(fano, {7})
    assert smaller.ground == (1, 2, 3, 4, 5, 6)
    assert smaller.rank == 3
    # deleting a coloop drops the rank
    eye = matroid_of_labels([1, 2], 2)
    assert delete(eye, {1}).rank == 1


@given(binary_matroids())
def test_contraction_is_deletion_in_the_dual(m):
    dual = m.dual()
    for e in filter(m.column_of, m.ground):  # every element but the loops
        contracted, deleted = contract(m, {e}).dual(), delete(dual, {e})
        assert contracted.ground == deleted.ground
        assert contracted.circuits == deleted.circuits


def test_dual_fano(fano):
    d = fano.dual()
    assert d.rank == 4 and d.size == 7
    for v in d.reduced.rows:
        for r in fano.reduced.rows:
            assert (v & r).bit_count() & 1 == 0


def test_dual_free_matroid_is_all_loops():
    d = matroid_of_labels([1, 2, 4], 3).dual()
    assert d.rank == 0
    assert columns_of(d) == [0, 0, 0]


def test_dual_parallel_pair_is_self_dual():
    d = PARALLEL_PAIR.dual()
    assert d.ground == (1, 2) and columns_of(d) == [1, 1]


@settings(max_examples=300)
@given(binary_matroids())
def test_dual_reads_the_null_space_off_the_reduced_matrix(m):
    # the same columns as a fresh elimination of m's columns, so every dual
    # listing keeps its bytes
    fresh = nullspace_of_reduced(Gf2Matrix.from_columns(columns_of(m), m.rank).rref())
    assert columns_of(m.dual()) == list(fresh.columns())


def test_double_dual_keeps_circuits(fano, polygon):
    for m in (fano, polygon, PARALLEL_PAIR):
        assert m.dual().dual().circuits == m.circuits


def test_is_connected():
    assert PARALLEL_PAIR.is_connected()
    assert not matroid_of_labels([1, 2], 2).is_connected()
    assert matroid(FANO_ROWS).is_connected()
    # one element: connected iff it is not a loop
    assert BinaryMatroid([1], 1).is_connected()
    assert not BinaryMatroid([0], 0).is_connected()
    # the empty matroid is not connected
    assert not BinaryMatroid([], 0).is_connected()


def test_is_connected_with_coloop(polygon):
    # adding a coloop disconnects
    columns = columns_of(polygon) + [1 << polygon.rank]
    assert not matroid_of_labels(columns, polygon.rank + 1).is_connected()


def linked_by_circuits(m):
    component = {m.ground[0]}
    grew = True
    while grew:
        grew = False
        for c in m.circuits:
            if c & component and not c <= component:
                component |= c
                grew = True
    return component == set(m.ground)


def test_is_connected_agrees_on_both_sides():
    walked = set()
    for m in reference_cases():
        if m.size < 2:
            continue
        assert m.is_connected() == m.dual().is_connected() == linked_by_circuits(m), m
        walked.add(m.rank < m.size - m.rank)
    # the cases lie on both sides of the middle rank
    assert walked == {True, False}


@settings(max_examples=300)
@given(binary_matroids())
def test_is_connected_matches_linked_circuits(m):
    assume(m.size >= 2)
    assert m.is_connected() == linked_by_circuits(m)


def test_isomorphic_fano_representations():
    # binary matroids are uniquely representable, so isomorphism is equality
    # of canonical forms, which the brute-force orbit maxima confirm
    fano, alt = (packed(rows).columns() for rows in (FANO_ROWS, FANO_ALT_ROWS))
    assert canonical_form(fano, 3) == canonical_form(alt, 3)
    assert orbit_maximum(fano, 3) == orbit_maximum(alt, 3)


def test_non_isomorphic_same_shape():
    a, b = (1, 2, 3, 4), (1, 2, 4, 7)
    assert canonical_form(a, 3) != canonical_form(b, 3)
    assert orbit_maximum(a, 3) != orbit_maximum(b, 3)


@given(binary_matroids())
def test_double_dual_isomorphic_small(m):
    double = m.dual().dual()
    assert double.ground == m.ground
    assert double.reduced.rows == m.reduced.rows
