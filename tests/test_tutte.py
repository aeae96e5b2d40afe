"""Tutte polynomials: activities expansion against deletion-contraction."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings

from conftest import (
    FANO_ROWS,
    R10_LABELS,
    binary_matroids,
    cycle_matroid_of_complete_graph,
    matroid,
    reference_cases,
)
from matroidcat.catalogue import matroid_of_labels
from matroidcat.gf2 import Gf2Matrix, NotInSpan
from matroidcat.matroid import BinaryMatroid
from matroidcat.tutte import (
    TuttePolynomial,
    bases,
    count_independent_sets,
    count_spanning_sets,
    external_activity,
    fundamental_circuit,
    internal_activity,
    tutte_by_activities,
    tutte_by_deletion_contraction,
)


PARALLEL_PAIR = matroid_of_labels([1, 1], 1)
SINGLE_COLOOP = matroid_of_labels([1], 1)
SINGLE_LOOP = BinaryMatroid(Gf2Matrix([], 1))

R10 = matroid_of_labels(R10_LABELS, 5)

# the textbook coefficient grid of the Fano plane,
# x^3 + 4x^2 + 3x + 7xy + 3y + 6y^2 + 3y^3 + y^4
FANO_GRID = (
    (0, 3, 6, 3, 1),
    (3, 7, 0, 0, 0),
    (4, 0, 0, 0, 0),
    (1, 0, 0, 0, 0),
)


def test_bases_polygon(polygon):
    all_bases = bases(polygon)
    assert len(all_bases) == 28
    for b in all_bases:
        assert len(b) == 5
        assert polygon.rank_of(b) == 5


def test_bases_order_and_trivial_cases():
    eye = BinaryMatroid(Gf2Matrix.identity(3))
    assert bases(eye) == [frozenset({1, 2, 3})]
    assert bases(PARALLEL_PAIR) == [frozenset({1}), frozenset({2})]
    listed = [tuple(sorted(b)) for b in bases(matroid(FANO_ROWS))]
    assert listed == sorted(listed)
    assert len(listed) == 28


def test_fundamental_circuit(polygon):
    b = next(b for b in bases(polygon) if {1, 2} <= b)
    assert fundamental_circuit(polygon, b, 6) == {1, 2, 6}
    fano = matroid(FANO_ROWS)
    assert fundamental_circuit(fano, frozenset({1, 2, 3}), 7) == {1, 2, 3, 7}
    assert fundamental_circuit(PARALLEL_PAIR, frozenset({1}), 2) == {1, 2}


def test_fundamental_circuit_is_a_circuit(polygon):
    for b in bases(polygon)[:5]:
        for x in sorted(set(polygon.ground) - b):
            c = fundamental_circuit(polygon, b, x)
            assert c in polygon.circuits
            assert x in c


def external_activity_reference(m, basis):
    """Non-basis elements that are the maximum of their fundamental circuit,
    each circuit solved for on its own."""
    return sum(
        1
        for x in m.ground
        if x not in basis and x == max(fundamental_circuit(m, basis, x))
    )


def test_external_activity_matches_fundamental_circuits():
    for m in reference_cases():
        for b in bases(m):
            assert external_activity(m, b) == external_activity_reference(m, b), (m, b)


def test_external_activity_refuses_non_bases(polygon):
    # {1, 2, 6} is a circuit; {1, 2, 3} is independent of rank 3 < 5
    for dependent in ({1, 2, 6}, {1, 2, 3, 4, 6}):
        with pytest.raises(ValueError):
            external_activity(polygon, frozenset(dependent))
    with pytest.raises(NotInSpan):
        external_activity(polygon, frozenset({1, 2, 3}))


def test_basis_methods_refuse_elements_outside_the_ground_set(fano):
    calls = [
        lambda: fundamental_circuit(fano, frozenset({1, 2, 4}), 99),
        lambda: fundamental_circuit(fano, frozenset({1, 2, 99}), 3),
        lambda: external_activity(fano, {1, 2, 99}),
        lambda: internal_activity(fano, {1, 2, 99}),
        lambda: external_activity(fano, {1, 2, 4, 99}),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="must lie inside the ground set"):
            call()


def test_fundamental_circuit_refuses_an_element_of_the_basis(fano):
    with pytest.raises(ValueError, match="outside the basis"):
        fundamental_circuit(fano, frozenset({1, 2, 4}), 1)
    for b in bases(fano):
        for x in b:
            with pytest.raises(ValueError, match="outside the basis"):
                fundamental_circuit(fano, b, x)


def test_basis_methods_refuse_non_bases_alike(fano):
    # each raises what external_activity raises, naming the set it was given
    with pytest.raises(NotInSpan, match=r"^\[1, 2\] does not span$"):
        internal_activity(fano, frozenset({1, 2}))
    with pytest.raises(ValueError, match=r"^\[1, 2, 4, 5\] is dependent$"):
        internal_activity(fano, frozenset({1, 2, 4, 5}))
    refused = 0
    for size in range(fano.size + 1):
        for subset in itertools.combinations(fano.ground, size):
            s = frozenset(subset)
            rank = fano.rank_of(s)
            if rank == len(s) == fano.rank:
                continue
            if rank < len(s):
                expected = ValueError, f"{sorted(s)} is dependent"
            else:
                expected = NotInSpan, f"{sorted(s)} does not span"
            calls = [external_activity, internal_activity]
            outside = sorted(set(fano.ground) - s)
            if outside:
                calls.append(lambda m, b: fundamental_circuit(m, b, outside[0]))
            for call in calls:
                with pytest.raises(Exception) as info:
                    call(fano, s)
                assert (info.type, str(info.value)) == expected, (call, s)
                refused += 1
    # 128 - 28 non-bases; all but the whole ground set leave an x outside
    assert refused == 3 * 100 - 1


def test_external_activity_parallel_pair():
    assert external_activity(PARALLEL_PAIR, frozenset({1})) == 1
    assert external_activity(PARALLEL_PAIR, frozenset({2})) == 0


def test_internal_activity():
    eye = BinaryMatroid(Gf2Matrix.identity(4))
    assert internal_activity(eye, frozenset({1, 2, 3, 4})) == 4
    assert internal_activity(PARALLEL_PAIR, frozenset({2})) == 1
    assert internal_activity(PARALLEL_PAIR, frozenset({1})) == 0


def test_activity_bounds(polygon):
    k, n = polygon.rank, polygon.size
    for b in bases(polygon):
        assert 0 <= internal_activity(polygon, b) <= k
        assert 0 <= external_activity(polygon, b) <= n - k


def test_tutte_single_coloop_is_x():
    t = tutte_by_activities(SINGLE_COLOOP)
    assert t.grid == ((0,), (1,))
    assert t.evaluate(5, 9) == 5


def test_tutte_single_loop_is_y():
    t = tutte_by_activities(SINGLE_LOOP)
    assert t.grid == ((0, 1),)
    assert tutte_by_deletion_contraction(SINGLE_LOOP).grid == t.grid


def test_tutte_parallel_pair_is_x_plus_y():
    t = tutte_by_activities(PARALLEL_PAIR)
    assert t.grid == ((0, 1), (1, 0))
    assert t.evaluate(1, 2) == 3
    assert tutte_by_deletion_contraction(PARALLEL_PAIR).grid == t.grid


def test_tutte_fano_grid():
    assert tutte_by_activities(matroid(FANO_ROWS)).grid == FANO_GRID


def test_tutte_polygon(polygon):
    t = tutte_by_activities(polygon)
    assert t.total() == 28
    assert t.evaluate(1, 1) == 28
    assert tutte_by_deletion_contraction(polygon).grid == t.grid


def test_deletion_contraction_agrees_on_fano_both_ways():
    fano = matroid(FANO_ROWS)
    for m in (fano, fano.dual()):
        assert (
            tutte_by_deletion_contraction(m).grid
            == tutte_by_activities(m).grid
        )


def test_counting_identities(polygon):
    fano = matroid(FANO_ROWS)
    for m in (polygon, fano, fano.dual(), PARALLEL_PAIR):
        t = tutte_by_activities(m)
        assert t.evaluate(1, 1) == len(bases(m))
        assert t.evaluate(2, 2) == 1 << m.size
        assert t.evaluate(2, 1) == count_independent_sets(m)
        assert t.evaluate(1, 2) == count_spanning_sets(m)


def test_dual_grid_is_transpose(polygon):
    fano = matroid(FANO_ROWS)
    for m in (polygon, fano):
        t = tutte_by_activities(m)
        td = tutte_by_activities(m.dual())
        assert td.grid == t.transpose().grid


def test_relabelling_leaves_polynomial_invariant(polygon):
    rng = random.Random(555)
    reference = tutte_by_activities(polygon).grid
    cols = list(polygon.matrix.columns())
    for _ in range(5):
        rng.shuffle(cols)
        shuffled = BinaryMatroid(Gf2Matrix.from_columns(cols, polygon.rank))
        assert tutte_by_activities(shuffled).grid == reference


def test_grid_validation():
    with pytest.raises(ValueError):
        TuttePolynomial(((0, 1), (1,)))  # ragged
    with pytest.raises(ValueError):
        TuttePolynomial(((0, -1),))


def test_polynomial_accessors():
    t = TuttePolynomial(FANO_GRID)
    assert t.max_x == 3 and t.max_y == 4
    assert t.grid[1][1] == 7
    assert t.grid[0][4] == 1
    assert t.total() == 28


def test_loops_and_coloops_mix():
    # one coloop and two loops: T = x * y^2
    m = BinaryMatroid(Gf2Matrix.from_rows([[0, 1, 0]]))
    t = tutte_by_activities(m)
    assert t.evaluate(2, 3) == 2 * 9
    assert t.grid == tutte_by_deletion_contraction(m).grid
    assert t.grid[1][2] == 1 and t.total() == 1


def tutte_by_definition(m):
    """Sum of x^internal_activity y^external_activity over bases(m)."""
    grid = [[0] * (m.size - m.rank + 1) for _ in range(m.rank + 1)]
    for b in bases(m):
        grid[internal_activity(m, b)][external_activity(m, b)] += 1
    return tuple(tuple(row) for row in grid)


@settings(max_examples=200)
@given(binary_matroids())
def test_activities_walk_matches_the_definitions(m):
    t = tutte_by_activities(m)
    assert t.grid == tutte_by_deletion_contraction(m).grid
    assert t.grid == tutte_by_definition(m)
    assert tutte_by_activities(m.dual()).grid == t.transpose().grid


@pytest.mark.parametrize("r, spanning_trees", [(2, 3), (3, 16), (4, 125), (5, 1296)])
def test_complete_graph_spanning_trees(r, spanning_trees):
    # Cayley's formula: K_{r+1} has (r+1)^(r-1) spanning trees
    m = cycle_matroid_of_complete_graph(r + 1)
    assert (m.rank, m.size) == (r, r * (r + 1) // 2)
    t = tutte_by_activities(m)
    assert t.evaluate(1, 1) == len(bases(m)) == spanning_trees
    if r <= 4:
        assert t.grid == tutte_by_deletion_contraction(m).grid


def test_r10_is_self_dual_in_its_tutte_polynomial():
    t = tutte_by_activities(R10)
    assert t.total() == len(bases(R10)) == 162
    assert t.grid == t.transpose().grid
    assert tutte_by_activities(R10.dual()).grid == t.grid
