"""Tutte polynomials: activities expansion against deletion-contraction."""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings

from conftest import (
    FANO_ROWS,
    R10_LABELS,
    bases,
    binary_matroids,
    count_independent_sets,
    count_spanning_sets,
    cycle_matroid_of_complete_graph,
    determinant,
    evaluate,
    external_activity,
    internal_activity,
    matroid,
    signed_free_part,
)
from matroidcat.catalogue import matroid_of_labels, run_generate
from matroidcat.gf2 import NotInSpan, rank_of_labels, span_labels
from matroidcat.matroid import BinaryMatroid
from matroidcat.tutte import (
    TuttePolynomial,
    fundamental_circuit,
    tutte_by_activities,
    tutte_by_deletion_contraction,
)


PARALLEL_PAIR = matroid_of_labels([1, 1], 1)
SINGLE_COLOOP = matroid_of_labels([1], 1)
SINGLE_LOOP = BinaryMatroid([0], 0)

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
    eye = matroid_of_labels([1, 2, 4], 3)
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


def test_external_activity_refuses_non_bases(polygon):
    # {1, 2, 6} is a circuit; {1, 2, 3} is independent of rank 3 < 5
    for dependent in ({1, 2, 6}, {1, 2, 3, 4, 6}):
        with pytest.raises(ValueError):
            external_activity(polygon, frozenset(dependent))
    with pytest.raises(NotInSpan):
        external_activity(polygon, frozenset({1, 2, 3}))


def test_basis_methods_refuse_elements_outside_the_ground_set(fano):
    for basis, x in (({1, 2, 4}, 99), ({1, 2, 99}, 3), ({1, 2, 4, 99}, 3)):
        with pytest.raises(ValueError, match="must lie inside the ground set"):
            fundamental_circuit(fano, frozenset(basis), x)


def test_fundamental_circuit_refuses_an_element_of_the_basis(fano):
    with pytest.raises(ValueError, match="outside the basis"):
        fundamental_circuit(fano, frozenset({1, 2, 4}), 1)
    for b in bases(fano):
        for x in b:
            with pytest.raises(ValueError, match="outside the basis"):
                fundamental_circuit(fano, b, x)


def test_basis_methods_refuse_non_bases_alike(fano):
    # what fundamental_circuit raises names the set it was given
    refused = 0
    for size in range(fano.size):
        for subset in itertools.combinations(fano.ground, size):
            s = frozenset(subset)
            rank = fano.rank_of(s)
            if rank == len(s) == fano.rank:
                continue
            if rank < len(s):
                expected = ValueError, f"{sorted(s)} is dependent"
            else:
                expected = NotInSpan, f"{sorted(s)} does not span"
            with pytest.raises(Exception) as info:
                fundamental_circuit(fano, s, min(set(fano.ground) - s))
            assert (info.type, str(info.value)) == expected, s
            refused += 1
    # the 128 - 28 non-bases, but for the whole ground set, which leaves no x
    assert refused == 99


def test_external_activity_parallel_pair():
    assert external_activity(PARALLEL_PAIR, frozenset({1})) == 1
    assert external_activity(PARALLEL_PAIR, frozenset({2})) == 0


def test_internal_activity():
    eye = matroid_of_labels([1, 2, 4, 8], 4)
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
    assert evaluate(t, 5, 9) == 5


def test_tutte_single_loop_is_y():
    t = tutte_by_activities(SINGLE_LOOP)
    assert t.grid == ((0, 1),)
    assert tutte_by_deletion_contraction(SINGLE_LOOP).grid == t.grid


def test_tutte_parallel_pair_is_x_plus_y():
    t = tutte_by_activities(PARALLEL_PAIR)
    assert t.grid == ((0, 1), (1, 0))
    assert evaluate(t, 1, 2) == 3
    assert tutte_by_deletion_contraction(PARALLEL_PAIR).grid == t.grid


def test_tutte_fano_grid():
    assert tutte_by_activities(matroid(FANO_ROWS)).grid == FANO_GRID


def test_tutte_polygon(polygon):
    t = tutte_by_activities(polygon)
    assert t.total() == 28
    assert evaluate(t, 1, 1) == 28
    assert tutte_by_deletion_contraction(polygon).grid == t.grid


def test_deletion_contraction_agrees_on_fano_both_ways():
    fano = matroid(FANO_ROWS)
    for m in (fano, fano.dual()):
        assert (
            tutte_by_deletion_contraction(m).grid
            == tutte_by_activities(m).grid
        )


def test_deletion_contraction_builds_no_matroid(polygon, monkeypatch):
    # seven drawn columns, then five unit columns so that they span
    rng = random.Random(27)
    labels = [rng.randrange(32) for _ in range(7)] + [1, 2, 4, 8, 16]
    drawn = matroid_of_labels(labels, 5)
    expected = [tutte_by_activities(m) for m in (polygon, drawn)]
    built = []
    init = BinaryMatroid.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BinaryMatroid, "__init__", counting_init)
    assert [tutte_by_deletion_contraction(m) for m in (polygon, drawn)] == expected
    assert built == []


def test_counting_identities(polygon):
    fano = matroid(FANO_ROWS)
    for m in (polygon, fano, fano.dual(), PARALLEL_PAIR):
        t = tutte_by_activities(m)
        assert evaluate(t, 1, 1) == len(bases(m))
        assert evaluate(t, 2, 2) == 1 << m.size
        assert evaluate(t, 2, 1) == count_independent_sets(m)
        assert evaluate(t, 1, 2) == count_spanning_sets(m)


def test_dual_grid_is_transpose(polygon):
    fano = matroid(FANO_ROWS)
    for m in (polygon, fano):
        t = tutte_by_activities(m)
        td = tutte_by_activities(m.dual())
        assert td.grid == t.transpose().grid


def test_relabelling_leaves_polynomial_invariant(polygon):
    rng = random.Random(555)
    reference = tutte_by_activities(polygon).grid
    cols = [polygon.column_of(e) for e in polygon.ground]
    for _ in range(5):
        rng.shuffle(cols)
        shuffled = BinaryMatroid(cols, polygon.rank)
        assert tutte_by_activities(shuffled).grid == reference


def test_grid_validation():
    with pytest.raises(ValueError):
        TuttePolynomial(((0, 1), (1,)))  # ragged
    with pytest.raises(ValueError):
        TuttePolynomial(((0, -1),))
    # rows with no entries write an empty tutte= field, which no line reads
    for empty in ([[]], [[], []]):
        with pytest.raises(ValueError, match="non-empty"):
            TuttePolynomial(empty)


def test_grid_given_as_lists_is_kept_as_tuples():
    t = TuttePolynomial([[0, 1], [1, 0]])
    assert t.grid == ((0, 1), (1, 0))
    assert t == TuttePolynomial(((0, 1), (1, 0)))
    assert hash(t) == hash(TuttePolynomial(((0, 1), (1, 0))))
    with pytest.raises(TypeError):
        t.grid[0][0] = 9


def test_make_and_replace_check_the_grid():
    # _replace builds through _make; both must refuse what the constructor does
    t = TuttePolynomial(((0, 1), (1, 0)))
    assert t._replace(grid=((1,),)) == TuttePolynomial(((1,),))
    with pytest.raises(ValueError, match="non-empty"):
        t._replace(grid=())
    with pytest.raises(ValueError, match="cannot be negative"):
        TuttePolynomial._make([((0, -1),)])


def test_polynomial_accessors():
    t = TuttePolynomial(FANO_GRID)
    assert (len(t.grid), len(t.grid[0])) == (4, 5)
    assert t.grid[1][1] == 7
    assert t.grid[0][4] == 1
    assert t.total() == 28


def test_loops_and_coloops_mix():
    # one coloop and two loops: T = x * y^2
    m = BinaryMatroid([0, 1, 0], 1)
    t = tutte_by_activities(m)
    assert evaluate(t, 2, 3) == 2 * 9
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


@settings(max_examples=200)
@given(binary_matroids())
def test_rosenstiehl_read_identity(m):
    # T(-1, -1) = (-1)^n (-2)^d (Rosenstiehl and Read 1978), d the dimension
    # of the bicycle space, the row space inside the null space: the kernel
    # of the Gram matrix of the independent rows
    rows = m.reduced.rows
    gram = [
        sum(((r & s).bit_count() & 1) << j for j, s in enumerate(rows)) for r in rows
    ]
    d = m.rank - rank_of_labels(gram)
    assert evaluate(tutte_by_activities(m), -1, -1) == (-1) ** m.size * (-2) ** d


@settings(max_examples=200)
@given(binary_matroids())
def test_greene_weight_enumerator(m):
    # W(x, y), the sum of x^(n - wt) y^wt over the codewords of the row
    # space, is y^(n-k) (x - y)^k T((x + y)/(x - y), x/y) (Greene 1976), that
    # is the sum of t_ij (x + y)^i (x - y)^(k - i) x^j y^(n - k - j).  Both
    # sides are homogeneous of degree n: each is its coefficients of y^0..y^n
    k, n = m.rank, m.size
    weights = [0] * (n + 1)
    for word in span_labels(m.reduced.rows):
        weights[word.bit_count()] += 1

    def times(p, q):
        product = [0] * (len(p) + len(q) - 1)
        for a, u in enumerate(p):
            for b, v in enumerate(q):
                product[a + b] += u * v
        return product

    expansion = [0] * (n + 1)
    for i, row in enumerate(tutte_by_activities(m).grid):
        plus = [math.comb(i, a) for a in range(i + 1)]
        minus = [(-1) ** b * math.comb(k - i, b) for b in range(k - i + 1)]
        for j, t in enumerate(row):
            shift = [0] * (n - k - j) + [t]
            for power, c in enumerate(times(times(plus, minus), shift)):
                expansion[power] += c
    assert expansion == weights


def _signed_gram_determinant(m):
    """det(S S^T), where S is m's reduced matrix [I | A] (up to the order of
    its columns) with A signed by Camion's algorithm."""
    s = [[int(i == j) for j in range(m.rank)] + a for i, a in enumerate(signed_free_part(m))]
    return determinant([[sum(x * y for x, y in zip(u, v)) for v in s] for u in s])


def test_binet_cauchy_on_the_regular_classes():
    # det(S S^T) is the sum of det(S_B)^2 over the rank-sized column sets B
    # (Binet-Cauchy), so it counts the bases when S is totally unimodular,
    # as Camion's signing of a regular matroid is
    entries = [
        e
        for n in range(1, 11)
        for k in range(1, min(n, 5) + 1)
        for e in run_generate(
            k, n, "connected-simple", regular_only=True, with_tutte=True, out="/dev/null"
        )
    ]
    assert len(entries) == 56
    for e in entries:
        m = matroid_of_labels(e.labels, e.rank)
        assert evaluate(e.tutte, 1, 1) == _signed_gram_determinant(m), e
    # F7 has no totally unimodular signing: a basis determinant of +-2 shows
    fano = matroid(FANO_ROWS)
    assert evaluate(tutte_by_activities(fano), 1, 1) == 28
    assert _signed_gram_determinant(fano) == 32


@pytest.mark.parametrize("r, spanning_trees", [(2, 3), (3, 16), (4, 125), (5, 1296)])
def test_complete_graph_spanning_trees(r, spanning_trees):
    # Cayley's formula: K_{r+1} has (r+1)^(r-1) spanning trees
    m = cycle_matroid_of_complete_graph(r + 1)
    assert (m.rank, m.size) == (r, r * (r + 1) // 2)
    t = tutte_by_activities(m)
    assert evaluate(t, 1, 1) == len(bases(m)) == spanning_trees
    if r <= 4:
        assert t.grid == tutte_by_deletion_contraction(m).grid


def test_r10_is_self_dual_in_its_tutte_polynomial():
    t = tutte_by_activities(R10)
    assert t.total() == len(bases(R10)) == 162
    assert t.grid == t.transpose().grid
    assert tutte_by_activities(R10.dual()).grid == t.grid
