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
    matroid,
    orbit_maximum,
    reference_cases,
)
from matroidcat.catalogue import matroid_of_labels
from matroidcat.enumeration import canonical_form, generate
from matroidcat.gf2 import Gf2Matrix, nullspace_of_reduced, span_labels
from matroidcat.matroid import (
    BinaryMatroid,
    CircuitSpaceTooLarge,
    CorankTooLarge,
    DependentContractionSet,
)


PARALLEL_PAIR = matroid_of_labels([1, 1], 1)  # matrix (1 1)


def test_rejects_rank_deficient_matrix():
    with pytest.raises(ValueError):
        BinaryMatroid(Gf2Matrix.from_rows([[1, 1], [1, 1]]))


def test_ground_defaults_to_one_through_n(fano):
    assert fano.ground == (1, 2, 3, 4, 5, 6, 7)
    assert fano.rank == 3 and fano.size == 7


def test_cocircuits_two_coloops():
    eye = BinaryMatroid(Gf2Matrix.identity(2))
    assert eye.cocircuits == {frozenset({1}), frozenset({2})}


def test_cocircuits_parallel_pair():
    assert PARALLEL_PAIR.cocircuits == {frozenset({1, 2})}


def test_cocircuits_fano(fano):
    assert len(fano.cocircuits) == 7
    assert all(len(d) == 4 for d in fano.cocircuits)


def test_circuits_free_matroid_has_none():
    assert BinaryMatroid(Gf2Matrix.identity(3)).circuits == frozenset()


def test_circuits_parallel_pair():
    assert PARALLEL_PAIR.circuits == {frozenset({1, 2})}


def test_circuits_polygon(polygon):
    assert polygon.circuits == {frozenset(c) for c in POLYGON_CIRCUITS}


def test_circuits_fano_count(fano):
    # 7 three-element lines plus their 7 four-element complements
    sizes = sorted(len(c) for c in fano.circuits)
    assert sizes == [3] * 7 + [4] * 7


def test_circuit_families_are_antichains(fano, polygon):
    for fam in (fano.circuits, fano.cocircuits, polygon.circuits):
        for a, b in itertools.permutations(fam, 2):
            assert not a < b


def test_circuit_cocircuit_intersection_never_single(fano, polygon):
    for m in (fano, polygon):
        for c in m.circuits:
            for d in m.cocircuits:
                assert len(c & d) != 1


def test_hyperplanes():
    eye = BinaryMatroid(Gf2Matrix.identity(2))
    assert eye.hyperplanes() == {frozenset({1}), frozenset({2})}
    assert PARALLEL_PAIR.hyperplanes() == {frozenset()}


def test_hyperplanes_fano_are_the_lines(fano):
    lines = fano.hyperplanes()
    assert len(lines) == 7
    for line in lines:
        assert len(line) == 3
        assert fano.rank_of(line) == 2
        assert fano.closure(line) == line


def test_flats_of_corank(fano):
    assert fano.flats_of_corank(1) == fano.hyperplanes()
    assert fano.flats_of_corank(2) == {frozenset({e}) for e in fano.ground}
    assert fano.flats_of_corank(3) == {frozenset()}
    eye = BinaryMatroid(Gf2Matrix.identity(3))
    assert eye.flats_of_corank(1) == {
        frozenset({2, 3}), frozenset({1, 3}), frozenset({1, 2}),
    }


def test_flats_of_corank_properties(polygon):
    for c in (1, 2, 3):
        for flat in polygon.flats_of_corank(c):
            assert polygon.closure(flat) == flat
            assert polygon.rank_of(flat) == polygon.rank - c


def flats_by_corank_bruteforce(m):
    """Every flat, from all 2^n subsets, keyed by corank."""
    flats = {c: set() for c in range(1, m.rank + 1)}
    for size in range(m.size + 1):
        for subset in itertools.combinations(m.ground, size):
            f = frozenset(subset)
            if m.closure(f) == f and m.rank_of(f) < m.rank:
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


def span_closure(m, subset):
    """Closure as the elements whose columns lie in the full span."""
    span = span_labels([m.column_of(e) for e in subset])
    return frozenset(e for e in m.ground if m.column_of(e) in span)


def test_closure_by_reduction_matches_span_closure():
    for k in range(1, 5):
        for n in range(k, 9):
            for labels in generate(k, n, "simple"):
                m = matroid_of_labels(labels, k)
                independent = {c: set() for c in range(1, k + 1)}
                for size in range(n + 1):
                    for s in itertools.combinations(m.ground, size):
                        closure = span_closure(m, s)
                        assert m.closure(s) == closure, (m, s)
                        if size < k and m.rank_of(s) == size:
                            independent[k - size].add(closure)
                for c in range(1, k + 1):
                    assert m.flats_of_corank(c) == independent[c], (m, c)


def test_circuit_spaces_beyond_the_bound_are_refused():
    # circuits walk all 2^corank null-space vectors, cocircuits all 2^rank
    # row-space vectors; one bound, 2^20, refuses both at dimension 21
    with pytest.raises(CircuitSpaceTooLarge, match="null space"):
        matroid_of_labels([1] * 22, 1).circuits
    with pytest.raises(CircuitSpaceTooLarge, match="row space"):
        BinaryMatroid(Gf2Matrix.identity(21)).cocircuits


def test_flats_of_corank_bounds(fano):
    with pytest.raises(CorankTooLarge):
        fano.flats_of_corank(4)
    with pytest.raises(ValueError):
        fano.flats_of_corank(0)


def test_closure(fano):
    assert fano.closure({1, 2}) == {1, 2, 6}  # column 6 = col 1 + col 2
    assert fano.closure(fano.ground) == frozenset(fano.ground)
    assert fano.closure(set()) == frozenset()


def test_rank_and_closure_refuse_elements_outside_the_ground_set(fano):
    for call in (fano.rank_of, fano.closure):
        for subset in ([99], {1, 2, 99}, [0]):
            with pytest.raises(ValueError, match="must lie inside the ground set"):
                call(subset)


def test_closure_picks_up_loops():
    m = matroid_of_labels([0, 1, 2], 2)
    assert m.loops() == {1}
    assert m.closure(set()) == {1}


def test_simplify_drops_loops_and_merges_parallel():
    m = matroid_of_labels([0, 3, 3, 2], 2)
    simple, classes = m.simplify()
    assert simple.ground == (2, 4)
    assert simple.matrix.columns() == (3, 2)
    assert classes == {2: frozenset({2, 3}), 4: frozenset({4})}


def test_simplify_of_simple_matroid_is_identity(fano):
    simple, classes = fano.simplify()
    assert simple.matrix == fano.matrix
    assert classes == {e: frozenset({e}) for e in fano.ground}


def test_simplify_is_idempotent(polygon):
    once, _ = polygon.simplify()
    twice, _ = once.simplify()
    assert once.matrix == twice.matrix


def test_contract_block_regression(nonregular13):
    """Contracting {2, 7} reproduces the hand-computed standard form."""
    minor = nonregular13.contract_independent({2, 7})
    assert minor.rank == 3
    assert minor.ground == (1, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13)
    block = Gf2Matrix.from_rows(CONTRACTED_BLOCK_ROWS)
    for e, column in zip(CONTRACTED_COLUMN_ORDER, block.columns()):
        assert minor.column_of(e) == column
    # the surviving basis elements 1, 4, 5 keep unit columns
    assert [minor.column_of(e) for e in (1, 4, 5)] == [1, 2, 4]


def test_contract_parallel_classes(nonregular13):
    minor = nonregular13.contract_independent({2, 7})
    simple, classes = minor.simplify()
    assert simple.size == 7
    assert classes[8] == frozenset({8, 9})
    assert classes[3] == frozenset({3, 5})


def test_contract_empty_set_is_identity(fano):
    minor = fano.contract_independent(set())
    assert minor.matrix == fano.matrix
    assert minor.ground == fano.ground


def test_contract_basis_element_of_free_matroid():
    eye = BinaryMatroid(Gf2Matrix.identity(3))
    minor = eye.contract_independent({1})
    assert minor.ground == (2, 3)
    assert minor.matrix == Gf2Matrix.identity(2)


def test_contract_rejects_dependent_set(fano):
    with pytest.raises(DependentContractionSet):
        fano.contract_independent({1, 2, 6})


def test_contract_rank_drop(polygon):
    minor = polygon.contract_independent({1, 3})
    assert minor.rank == polygon.rank - 2
    assert minor.size == polygon.size - 2


def test_contract_in_two_steps_matches_one_step(fano):
    both = fano.contract_independent({1, 2})
    stepped = fano.contract_independent({1}).contract_independent({2})
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
    assert m.contract_independent(s).circuits == minimal


def test_delete(fano):
    smaller = fano.delete({7})
    assert smaller.ground == (1, 2, 3, 4, 5, 6)
    assert smaller.rank == 3
    # deleting a coloop drops the rank
    eye = BinaryMatroid(Gf2Matrix.identity(2))
    assert eye.delete({1}).rank == 1


@given(binary_matroids())
def test_contraction_is_deletion_in_the_dual(m):
    dual = m.dual()
    for e in set(m.ground) - m.loops():
        contracted, deleted = m.contract_independent({e}).dual(), dual.delete({e})
        assert contracted.ground == deleted.ground
        assert contracted.circuits == deleted.circuits


def test_dual_fano(fano):
    d = fano.dual()
    assert d.rank == 4 and d.size == 7
    for v in d.matrix.rows:
        for r in fano.matrix.rows:
            assert (v & r).bit_count() & 1 == 0


def test_dual_free_matroid_is_all_loops():
    d = BinaryMatroid(Gf2Matrix.identity(3)).dual()
    assert d.rank == 0
    assert d.loops() == {1, 2, 3}


def test_dual_parallel_pair_is_self_dual():
    assert PARALLEL_PAIR.dual().matrix == Gf2Matrix.from_rows([[1, 1]])


@settings(max_examples=300)
@given(binary_matroids())
def test_dual_reads_the_null_space_off_the_reduced_matrix(m):
    # the same rows as a fresh elimination, so every dual listing keeps its bytes
    assert m.dual().matrix == nullspace_of_reduced(m.matrix.rref()[0])


def test_dual_swaps_circuits_and_cocircuits(fano, polygon):
    for m in (fano, polygon, PARALLEL_PAIR):
        assert m.circuits == m.dual().cocircuits
        assert m.cocircuits == m.dual().circuits


def test_double_dual_keeps_circuits(fano, polygon):
    for m in (fano, polygon):
        assert m.dual().dual().circuits == m.circuits


def test_is_connected():
    assert PARALLEL_PAIR.is_connected()
    assert not BinaryMatroid(Gf2Matrix.identity(2)).is_connected()
    assert matroid(FANO_ROWS).is_connected()
    # one element: connected iff it is not a loop
    assert BinaryMatroid(Gf2Matrix.from_rows([[1]])).is_connected()
    assert not BinaryMatroid(Gf2Matrix([], 1)).is_connected()
    # the empty matroid is not connected
    assert not BinaryMatroid(Gf2Matrix([], 0)).is_connected()


def test_is_connected_with_coloop(polygon):
    # adding a coloop disconnects
    rows = [row + [0] for row in polygon.matrix.entries()]
    rows.append([0] * polygon.size + [1])
    assert not BinaryMatroid(Gf2Matrix.from_rows(rows)).is_connected()


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
    fano, alt = (matroid(rows).matrix.columns() for rows in (FANO_ROWS, FANO_ALT_ROWS))
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
    assert double.reduced == m.reduced
