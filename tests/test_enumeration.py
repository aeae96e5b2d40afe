"""Orderly generation of isomorphism-class representatives."""

from __future__ import annotations

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import orbit_count
from matroidcat import enumeration
from matroidcat.enumeration import (
    InvalidShape,
    LabelOutOfRange,
    _complete_to_basis,
    _lex_larger_witness_columns,
    candidate_functions,
    canonical_form,
    generate,
    label_vector_of,
)
from matroidcat.gf2 import rank_of_labels, transform_bits


def test_transform_label_is_permutation():
    g = (2, 7, 1)  # the columns of an invertible 3 x 3 matrix
    images = [transform_bits(g, j) for j in range(8)]
    assert sorted(images) == list(range(8))
    assert images[0] == 0


def test_multiplicity_function_validation():
    # canonical_form builds the multiplicities of its labels and checks them
    assert canonical_form((1, 1, 2, 3), 2) == (1, 1, 2, 3)
    assert canonical_form((0, 0, 3, 3, 2), 2) == (0, 0, 1, 1, 2)  # loops allowed
    for not_spanning, k in (((1, 1, 1, 1), 2), ((), 1), ((0, 3, 3), 2)):
        with pytest.raises(InvalidShape):
            canonical_form(not_spanning, k)


def test_negative_rank_is_an_invalid_shape():
    with pytest.raises(InvalidShape, match="negative"):
        canonical_form([1], -1)


def test_huge_rank_is_rejected_before_its_multiplicities_are_allocated():
    # at k = 64 a list of 2^64 multiplicities cannot even be requested, so
    # the labels are checked first: one label spans no GF(2)^64
    with pytest.raises(InvalidShape, match="do not span"):
        canonical_form([1], 64)


def test_label_vector_validation():
    for bad in ((1, 4), (-1, 1, 2), (1, 2, 3, 7)):
        with pytest.raises(LabelOutOfRange):
            canonical_form(bad, 2)


def test_conversions_match_known_pairs():
    assert label_vector_of((0, 1, 1, 1, 1, 0, 0, 0)) == (1, 2, 3, 4)
    assert label_vector_of((2, 0, 3, 1)) == (0, 0, 2, 2, 2, 3)


def test_known_representatives_are_canonical():
    # canonical labels are exactly the fixed points of canonical_form
    for labels in ((1, 1, 2, 4), (1, 2, 3, 4), (1, 2, 4, 7)):
        assert canonical_form(labels, 3) == labels


def test_unit_dominance_violation_is_not_canonical():
    # f(2) > f(1) cannot be lexicographically largest
    assert canonical_form((1, 2, 2, 4), 3) != (1, 2, 2, 4)


def relabelled(values, w):
    """The multiplicity function label -> values[w(label)]."""
    return tuple(values[transform_bits(w, j)] for j in range(len(values)))


def completed_witness(values, k):
    """The search's witness columns completed to a basis, or None."""
    hit = _lex_larger_witness_columns(values, k)
    return None if hit is None else _complete_to_basis(hit[0], k)


def test_witness_image_is_lex_larger():
    f = (0, 1, 2, 0, 1, 0, 0, 0)
    w = completed_witness(f, 3)
    assert w is not None
    assert relabelled(f, w) > f
    # the scan only keeps the image prefix; its completion must still work
    cells = [(k, n, "loopless") for k in range(1, 4) for n in range(k, 7)]
    cells += [(4, n, "simple") for n in range(4, 9)]
    for k, n, cls in cells:
        rejected = 0
        for values in candidate_functions(k, n, cls, [None]):
            w = completed_witness(values, k)
            if w is None:
                continue
            rejected += 1
            assert len(w) == k and rank_of_labels(w) == k
            assert relabelled(values, w) > values
        assert rejected == len(list(candidate_functions(k, n, cls, [None]))) - len(
            list(generate(k, n, cls))
        )


def test_witness_absent_for_canonical():
    # the multiplicities of (1, 1, 2, 4)
    assert _lex_larger_witness_columns((0, 2, 1, 0, 1, 0, 0, 0), 3) is None


def test_complete_to_basis_appends_least_labels_outside_span():
    def by_span(cols, k):
        span = {0}
        for c in cols:
            span |= {c ^ x for x in span}
        out = list(cols)
        for v in range(1, 1 << k):
            if len(out) < k and v not in span:
                out.append(v)
                span |= {v ^ x for x in span}
        return out

    for k in range(1, 5):
        for s in range(k + 1):
            for cols in itertools.permutations(range(1, 1 << k), s):
                if rank_of_labels(cols) == s:
                    assert _complete_to_basis(cols, k) == by_span(cols, k), cols


def test_canonical_form_worked_examples():
    for labels, canonical in (
        ((1, 2, 4, 4, 7), (1, 1, 2, 4, 7)),
        ((1, 2, 4, 5, 6), (1, 2, 3, 4, 5)),
    ):
        assert canonical_form(labels, 3) == canonical


def test_canonical_form_keeps_loops_in_front():
    # every relabelling fixes label 0, so the loops stay and the rest is
    # canonicalized on its own
    rng = random.Random(496)
    for _ in range(200):
        k = rng.randint(1, 4)
        rest = [1 << j for j in range(k)]
        rest += [rng.randint(1, (1 << k) - 1) for _ in range(rng.randint(0, 5))]
        rng.shuffle(rest)
        loops = (0,) * rng.randint(1, 3)
        expected = loops + canonical_form(rest, k)
        assert canonical_form(loops + tuple(rest), k) == expected, (rest, k)


def test_generate_rank3_size4():
    assert list(generate(3, 4, "loopless")) == [
        (1, 1, 2, 4),
        (1, 2, 3, 4),
        (1, 2, 4, 7),
    ]
    assert list(generate(3, 4, "simple")) == [
        (1, 2, 3, 4),
        (1, 2, 4, 7),
    ]


def test_generate_square_cell_is_free_matroid():
    for k in range(1, 5):
        for cls in ("loopless", "simple"):
            out = list(generate(k, k, cls))
            assert out == [tuple(1 << j for j in range(k))]


def test_generate_rejects_bad_shape():
    with pytest.raises(InvalidShape):
        list(generate(4, 3, "loopless"))
    with pytest.raises(InvalidShape):
        list(generate(0, 3, "loopless"))


def test_generate_output_is_strictly_increasing():
    for k in range(1, 4):
        for n in range(k, 7):
            out = list(generate(k, n, "loopless"))
            assert out == sorted(set(out))


def test_generate_emits_spanning_canonical_functions():
    for k in range(1, 4):
        for n in range(k, 6):
            for r in generate(k, n, "loopless"):
                assert rank_of_labels(set(r)) == k
                assert canonical_form(r, k) == r


def test_generate_simple_has_distinct_labels():
    for r in generate(3, 5, "simple"):
        assert len(set(r)) == len(r) == 5


def test_candidates_descend_lexicographically():
    cands = list(candidate_functions(3, 4, "loopless", [None]))
    assert cands == sorted(cands, reverse=True)
    simple = list(candidate_functions(3, 5, "simple", [None]))
    assert simple == sorted(simple, reverse=True)
    for values in simple:
        assert max(values) <= 1


def test_candidates_reject_an_unknown_class():
    with pytest.raises(ValueError, match="unknown class"):
        next(candidate_functions(3, 4, "connected-simple", [None]))


def test_candidates_respect_necessary_conditions():
    for values in candidate_functions(3, 5, "loopless", [None]):
        assert values[0] == 0
        assert sum(values) == 5
        for unit in (1, 2, 4):
            assert values[unit] > 0
            assert all(values[unit] >= values[r] for r in range(unit + 1, 8))


def test_one_representative_per_orbit_small():
    for k in (1, 2):
        for n in range(k, 5):
            assert len(list(generate(k, n, "loopless"))) == orbit_count(
                k, n, simple=False
            )
            if n < 1 << k:
                assert len(list(generate(k, n, "simple"))) == orbit_count(
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


def _witness_columns(values, k):
    """The columns of the witness the canonicity search returns, or None."""
    hit = _lex_larger_witness_columns(values, k)
    return None if hit is None else hit[0]


def _unpruned_witness_columns(values, k):
    """The canonicity search without automorphism pruning: every tie is
    searched to the end.  Returns what _witness_columns returns."""
    size = 1 << k
    in_span = bytearray(size)
    in_span[0] = 1
    span_list = [0]
    images = [0] * size
    chosen = []

    def search(t):
        base = 1 << t
        for h in range(1, size):
            if in_span[h]:
                continue
            verdict = 0
            for m in range(base):
                got = values[h ^ images[m]]
                want = values[base + m]
                if got != want:
                    verdict = 1 if got > want else -1
                    break
            if verdict < 0:
                continue
            if verdict > 0:
                return tuple(chosen + [h])
            if t + 1 == k:
                continue
            for m in range(base):
                images[base + m] = h ^ images[m]
            added = [h ^ x for x in span_list]
            for a in added:
                in_span[a] = 1
            span_list.extend(added)
            chosen.append(h)
            hit = search(t + 1)
            if hit is not None:
                return hit
            chosen.pop()
            del span_list[base:]
            for a in added:
                in_span[a] = 0
        return None

    return search(0)


@functools.cache
def _reference_scan(k: int, n: int, matroid_class: str):
    """Candidates of the unpruned scan and the canonical ones among them."""
    cands = tuple(_reference_candidates(k, n, matroid_class))
    canonical = tuple(v for v in cands if _unpruned_witness_columns(v, k) is None)
    return cands, canonical


def test_pruned_scan_keeps_every_canonical_tuple():
    visited = reference = 0
    for k, n, cls in REFERENCE_CELLS:
        cands, canonical = _reference_scan(k, n, cls)
        pruned = list(candidate_functions(k, n, cls, [None]))
        rest = iter(cands)
        assert all(values in rest for values in pruned), (k, n, cls)
        kept = [v for v in pruned if _lex_larger_witness_columns(v, k) is None]
        assert kept == list(canonical), (k, n, cls)
        visited += len(pruned)
        reference += len(cands)
    assert visited < reference


def test_canonical_form_fixes_exactly_the_canonical_candidates():
    fixed = 0
    for k, n, cls in REFERENCE_CELLS:
        if k > 4:
            continue
        for values in _reference_scan(k, n, cls)[0]:
            labels = label_vector_of(values)
            is_fixed = canonical_form(labels, k) == labels
            verdict = _lex_larger_witness_columns(values, k) is None
            assert is_fixed == verdict, (values, k)
            fixed += is_fixed
    assert fixed


def test_backjumping_scan_keeps_every_canonical_tuple(monkeypatch):
    # generate reports each witness back to the fill, which skips every
    # candidate the same relabelling rejects; the channel is an argument, so
    # a wrapper that forwards it and draws with next(), as a tracer does,
    # still sees the backjumping scan
    tested = []

    def counting_test(values, k):
        tested.append(values)
        return _lex_larger_witness_columns(values, k)

    def forwarding(*args):
        for values in candidate_functions(*args):
            yield values

    monkeypatch.setattr(enumeration, "_lex_larger_witness_columns", counting_test)
    monkeypatch.setattr(enumeration, "candidate_functions", forwarding)
    skipped = 0
    for k, n, cls in REFERENCE_CELLS:
        tested.clear()
        out = list(generate(k, n, cls))
        canonical = _reference_scan(k, n, cls)[1]
        assert out == [label_vector_of(v) for v in canonical], (k, n, cls)
        # the fill without reports jumps only over rejected restrictions
        candidates = list(candidate_functions(k, n, cls, [None]))
        rest = iter(candidates)
        assert all(values in rest for values in tested), (k, n, cls)
        skipped += len(candidates) - len(tested)
    assert skipped > 0


@pytest.mark.parametrize(
    "k, n, classes, full_tests, searches",
    [(5, 10, 46, 280, 87), (6, 11, 273, 1364, 449)],
)
def test_scan_retries_the_last_witness_before_it_searches(
    monkeypatch, k, n, classes, full_tests, searches
):
    # each tested label walks its last witness on the new prefix first, so
    # few full tuples reach the canonicity test and few restrictions are
    # searched; the counts are exact, as the search returns the exhaustive
    # search's first witness however it prunes, so they pin the fill's path
    searched = 0

    def counting_search(values, t):
        nonlocal searched
        searched += 1
        return _lex_larger_witness_columns(values, t)

    monkeypatch.setattr(enumeration, "_restriction_witness", counting_search)
    witness = [None]
    tests = kept = 0
    for values in candidate_functions(k, n, "simple", witness):
        tests += 1
        witness[0] = _lex_larger_witness_columns(values, k)
        kept += witness[0] is None
    assert kept == classes
    assert tests == full_tests
    assert searched == searches


def test_restriction_of_canonical_tuple_is_canonical():
    # the lemma the pruning rests on: a canonical function restricted to
    # <e_1, ..., e_t> is canonical under GL(t)
    for k, n, cls in REFERENCE_CELLS:
        for values in _reference_scan(k, n, cls)[1]:
            for t in range(2, k):
                assert _unpruned_witness_columns(values[: 1 << t], t) is None


def test_pruned_search_matches_unpruned_search():
    # automorphism pruning skips only subtrees without a witness, so the
    # search returns the same first witness, or None, as the full search
    inputs = {
        (values[: 1 << t], t)
        for k, n, cls in REFERENCE_CELLS
        for values in _reference_scan(k, n, cls)[0]
        for t in range(1, k + 1)
    }
    # deeper tie trees, where orbits prune below the root
    cells = [(6, n, "simple") for n in range(6, 10)]
    cells += [(6, n, "loopless") for n in range(6, 9)]
    inputs.update(
        (values, k)
        for k, n, cls in cells
        for values in candidate_functions(k, n, cls, [None])
    )
    canonical = 0
    for values, k in inputs:
        expected = _unpruned_witness_columns(values, k)
        assert _witness_columns(values, k) == expected, (values, k)
        canonical += expected is None
    assert 0 < canonical < len(inputs)


@settings(max_examples=400)
@given(st.integers(1, 5), st.data())
def test_pruned_search_matches_unpruned_search_on_any_function(k, data):
    # not only scan candidates: any values, loops and non-spanning supports
    # included; and a search on GF(2)^t reads no label at or above 2^t
    size = 1 << k
    values = tuple(data.draw(st.lists(st.integers(0, 2), min_size=size, max_size=size)))
    if len(set(values[1:])) == 1:
        # every relabelling ties, and the unpruned search would walk all
        # |GL(k, 2)| leaves to find that out (about 10^7 at k = 5)
        expected = None
    else:
        expected = _unpruned_witness_columns(values, k)
    assert _witness_columns(values, k) == expected
    t = data.draw(st.integers(1, k))
    if t < k:
        assert _lex_larger_witness_columns(values, t) == _lex_larger_witness_columns(
            values[: 1 << t], t
        )


class CountingTuple(tuple):
    """A tuple that counts the reads of its items."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)


def test_search_on_projective_geometry_stays_small():
    # every relabelling of PG(k-1, 2) ties, so the unpruned search walks all
    # |GL(k, 2)| leaves (about 1.6e14 at k = 7); the pruned one makes 6,587
    # reads at k = 7, and a search without either rule exceeds the bound
    for k in range(2, 8):
        values = CountingTuple((0,) + (1,) * ((1 << k) - 1))
        assert _lex_larger_witness_columns(values, k) is None
        assert values.reads <= k * 4**k, k


def test_search_merges_the_orbits_of_every_level_heads():
    # the hyperplane <e_1, ..., e_(k-1)> once and its complement twice: the
    # unit values differ, so level k-1 has fewer heads than the levels below
    # it. The automorphisms found below those levels move labels of the
    # hyperplane, whose orbits the siblings there read; merged over level
    # k-1's heads alone, those orbits stay apart and the search walks their
    # subtrees again (530, 1,890 and 6,978 reads). The verdict cannot tell,
    # as the orbit rule only prunes, so the reads are pinned as measured.
    for k, reads in [(5, 405), (6, 952), (7, 2191)]:
        half = 1 << (k - 1)
        values = CountingTuple((0,) + (1,) * (half - 1) + (2,) * half)
        # the first witness maps e_(k-1) onto e_k, larger at label 2^(k-2)
        cols = tuple(1 << i for i in range(k - 2)) + (half,)
        assert _lex_larger_witness_columns(values, k) == (cols, half)
        assert values.reads == reads, k
