"""Orderly generation of isomorphism-class representatives."""

from __future__ import annotations

import functools
import itertools
import random

import pytest

from matroidcat.enumeration import (
    InvalidShape,
    LabelOutOfRange,
    LabelVector,
    MultiplicityFunction,
    SingularMatrix,
    _lex_larger_witness_columns,
    candidate_functions,
    generate,
    is_canonical,
    label_of_vector,
    label_vector_of,
    lex_larger_witness,
    multiplicity_of,
    transform_label,
    vector_of_label,
)
from matroidcat.gf2 import Gf2Matrix, Gf2Vector, rank_of_labels


def mf(values, k):
    return MultiplicityFunction(tuple(values), k)


def test_label_of_unit_vectors():
    assert label_of_vector(Gf2Vector.from_entries([1, 0, 0])) == 1
    assert label_of_vector(Gf2Vector.from_entries([0, 1, 0])) == 2
    assert label_of_vector(Gf2Vector.from_entries([0, 0, 1])) == 4
    assert label_of_vector(Gf2Vector.from_entries([0, 0, 0])) == 0
    assert label_of_vector(Gf2Vector.from_entries([1, 1, 1])) == 7


def test_vector_of_label_round_trip():
    assert vector_of_label(7, 3).entries() == (1, 1, 1)
    assert vector_of_label(1, 5).entries() == (1, 0, 0, 0, 0)
    for label in range(16):
        assert label_of_vector(vector_of_label(label, 4)) == label


def test_vector_of_label_range_check():
    with pytest.raises(LabelOutOfRange):
        vector_of_label(8, 3)
    with pytest.raises(LabelOutOfRange):
        vector_of_label(-1, 3)


def test_transform_label():
    eye = Gf2Matrix.identity(3)
    for j in range(8):
        assert transform_label(eye, j) == j
    g = Gf2Matrix.from_rows([[1, 1], [0, 1]])  # e1 -> e1, e2 -> e1+e2
    assert transform_label(g, 0) == 0
    assert transform_label(g, 2) == 3


def test_transform_label_is_permutation():
    g = Gf2Matrix.from_rows([[0, 1, 1], [1, 1, 0], [0, 1, 0]])
    images = [transform_label(g, j) for j in range(8)]
    assert sorted(images) == list(range(8))
    assert images[0] == 0


def test_transform_label_rejects_singular():
    g = Gf2Matrix.from_rows([[1, 1], [1, 1]])
    with pytest.raises(SingularMatrix):
        transform_label(g, 1)


def test_multiplicity_function_validation():
    mf([0, 2, 1, 1], 2)  # fine: spanning, loopless, sums to 4
    with pytest.raises(InvalidShape):
        mf([0, 2, 1], 2)  # wrong length
    with pytest.raises(InvalidShape):
        mf([1, 2, 1, 0], 2)  # loops present
    with pytest.raises(InvalidShape):
        mf([0, 4, 0, 0], 2)  # does not span
    with pytest.raises(InvalidShape):
        mf([0, -1, 1, 1], 2)
    assert mf([0, 2, 1, 1], 2).n == 4


def test_label_vector_validation():
    LabelVector((1, 2, 2, 3), 2)
    with pytest.raises(InvalidShape):
        LabelVector((2, 1), 2)  # decreasing
    with pytest.raises(LabelOutOfRange):
        LabelVector((0, 1), 2)
    with pytest.raises(LabelOutOfRange):
        LabelVector((1, 4), 2)


def test_conversions_match_known_pairs():
    assert label_vector_of(mf([0, 1, 1, 1, 1, 0, 0, 0], 3)).labels == (1, 2, 3, 4)
    f = multiplicity_of(LabelVector((1, 2, 4, 7), 3))
    assert f.values == (0, 1, 1, 0, 1, 0, 0, 1)


def test_conversions_are_inverse():
    rng = random.Random(8128)
    for _ in range(25):
        k = rng.randint(1, 4)
        labels = sorted(
            [1 << j for j in range(k)]
            + [rng.randint(1, (1 << k) - 1) for _ in range(rng.randint(0, 4))]
        )
        r = LabelVector(tuple(labels), k)
        assert label_vector_of(multiplicity_of(r)) == r


def test_is_canonical_known_representatives():
    assert is_canonical(mf([0, 2, 1, 0, 1, 0, 0, 0], 3))
    assert is_canonical(mf([0, 1, 1, 1, 1, 0, 0, 0], 3))
    assert is_canonical(mf([0, 1, 1, 0, 1, 0, 0, 1], 3))


def test_is_canonical_rejects_unit_dominance_violation():
    # f(2) > f(1) cannot be lexicographically largest
    assert not is_canonical(mf([0, 1, 2, 0, 1, 0, 0, 0], 3))


def test_witness_image_is_lex_larger():
    f = mf([0, 1, 2, 0, 1, 0, 0, 0], 3)
    w = lex_larger_witness(f)
    assert w is not None
    image = tuple(f.values[transform_label(w, j)] for j in range(8))
    assert image > f.values
    # the scan only keeps the image prefix; its completion must still work
    cells = [(k, n, "loopless") for k in range(1, 4) for n in range(k, 7)]
    cells += [(4, n, "simple") for n in range(4, 9)]
    for k, n, cls in cells:
        rejected = 0
        for values in candidate_functions(k, n, cls):
            f = mf(values, k)
            w = lex_larger_witness(f)
            if w is None:
                continue
            rejected += 1
            assert w.nrows == w.ncols == k and w.rank() == k
            image = tuple(f.values[transform_label(w, j)] for j in range(1 << k))
            assert image > f.values
        assert rejected == len(list(candidate_functions(k, n, cls))) - len(
            list(generate(k, n, cls))
        )


def test_witness_absent_for_canonical():
    assert lex_larger_witness(mf([0, 2, 1, 0, 1, 0, 0, 0], 3)) is None


def test_generate_rank3_size4():
    assert [r.labels for r in generate(3, 4, "loopless")] == [
        (1, 1, 2, 4),
        (1, 2, 3, 4),
        (1, 2, 4, 7),
    ]
    assert [r.labels for r in generate(3, 4, "simple")] == [
        (1, 2, 3, 4),
        (1, 2, 4, 7),
    ]


def test_generate_square_cell_is_free_matroid():
    for k in range(1, 5):
        for cls in ("loopless", "simple"):
            out = [r.labels for r in generate(k, k, cls)]
            assert out == [tuple(1 << j for j in range(k))]


def test_generate_rejects_bad_shape():
    with pytest.raises(InvalidShape):
        list(generate(4, 3, "loopless"))
    with pytest.raises(InvalidShape):
        list(generate(0, 3, "loopless"))


def test_generate_output_is_strictly_increasing():
    for k in range(1, 4):
        for n in range(k, 7):
            out = [r.labels for r in generate(k, n, "loopless")]
            assert out == sorted(set(out))


def test_generate_emits_spanning_canonical_functions():
    for k in range(1, 4):
        for n in range(k, 6):
            for r in generate(k, n, "loopless"):
                assert rank_of_labels(set(r.labels)) == k
                assert is_canonical(multiplicity_of(r))


def test_generate_simple_has_distinct_labels():
    for r in generate(3, 5, "simple"):
        assert len(set(r.labels)) == r.n


def test_candidates_descend_lexicographically():
    cands = list(candidate_functions(3, 4, "loopless"))
    assert cands == sorted(cands, reverse=True)
    simple = list(candidate_functions(3, 5, "simple"))
    assert simple == sorted(simple, reverse=True)
    for values in simple:
        assert max(values) <= 1


def test_candidates_respect_necessary_conditions():
    for values in candidate_functions(3, 5, "loopless"):
        assert values[0] == 0
        assert sum(values) == 5
        for unit in (1, 2, 4):
            assert values[unit] > 0
            assert all(values[unit] >= values[r] for r in range(unit + 1, 8))


def _orbit_count(k: int, n: int, simple: bool) -> int:
    """Classify all spanning candidate functions under the full group action."""
    from matroidcat.gf2 import gl_column_tuples, transform_bits

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
    group = list(gl_column_tuples(k))
    seen: set = set()
    orbits = 0
    for f in sorted(funcs):
        if f in seen:
            continue
        orbits += 1
        for g in group:
            image = [0] * (1 << k)
            for j in range(1 << k):
                image[transform_bits(g, j)] = f[j]
            seen.add(tuple(image))
    return orbits


def test_one_representative_per_orbit_small():
    for k in (1, 2):
        for n in range(k, 5):
            assert len(list(generate(k, n, "loopless"))) == _orbit_count(
                k, n, simple=False
            )
            if n < 1 << k:
                assert len(list(generate(k, n, "simple"))) == _orbit_count(
                    k, n, simple=True
                )


# -- pruning against the unpruned scan ----------------------------------------


def _reference_candidates(k: int, n: int, matroid_class: str):
    """The scan without pruning: every tuple that meets the necessary
    conditions, largest first (simple: unit labels pinned to 1 and the other
    labels picked in ascending combination order)."""
    size = 1 << k
    units = [1 << j for j in range(k)]
    if matroid_class == "simple":
        if not k <= n <= size - 1:
            return
        others = [v for v in range(1, size) if v not in units]
        for extra in itertools.combinations(others, n - k):
            values = [0] * size
            for lbl in units + list(extra):
                values[lbl] = 1
            yield tuple(values)
        return
    values = [0] * size

    def fill(pos, remaining, cap, units_left):
        if pos == size:
            if remaining == 0:
                yield tuple(values)
            return
        if remaining < units_left or remaining > cap * (size - pos):
            return
        if pos in units:
            for v in range(min(cap, remaining - (units_left - 1)), 0, -1):
                values[pos] = v
                yield from fill(pos + 1, remaining - v, v, units_left - 1)
        else:
            for v in range(min(cap, remaining - units_left), -1, -1):
                values[pos] = v
                yield from fill(pos + 1, remaining - v, cap, units_left)
        values[pos] = 0

    yield from fill(1, n, n, k)


REFERENCE_CELLS = [(k, n, "loopless") for k in range(1, 5) for n in range(k, 8)] + [
    (k, n, "simple") for k in range(1, 6) for n in range(k, 10)
]


@functools.cache
def _reference_scan(k: int, n: int, matroid_class: str):
    """Candidates of the unpruned scan and the canonical ones among them."""
    cands = tuple(_reference_candidates(k, n, matroid_class))
    canonical = tuple(v for v in cands if _lex_larger_witness_columns(v, k) is None)
    return cands, canonical


def test_pruned_scan_keeps_every_canonical_tuple():
    visited = reference = 0
    for k, n, cls in REFERENCE_CELLS:
        cands, canonical = _reference_scan(k, n, cls)
        pruned = list(candidate_functions(k, n, cls))
        rest = iter(cands)
        assert all(values in rest for values in pruned), (k, n, cls)
        kept = [v for v in pruned if _lex_larger_witness_columns(v, k) is None]
        assert kept == list(canonical), (k, n, cls)
        visited += len(pruned)
        reference += len(cands)
    assert visited < reference


def test_restriction_of_canonical_tuple_is_canonical():
    # the lemma the pruning rests on: a canonical function restricted to
    # <e_1, ..., e_t> is canonical under GL(t)
    for k, n, cls in REFERENCE_CELLS:
        for values in _reference_scan(k, n, cls)[1]:
            for t in range(2, k):
                assert _lex_larger_witness_columns(values[: 1 << t], t) is None
