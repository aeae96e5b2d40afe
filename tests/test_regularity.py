"""Regularity via forbidden Fano and dual-Fano contractions."""

from __future__ import annotations

from hypothesis import given, settings

import matroidcat.regularity as regularity
from conftest import (
    FANO_ALT_ROWS,
    FANO_DUAL_ROWS,
    FANO_ROWS,
    binary_matroids,
    contract,
    delete,
    is_fano,
    is_fano_dual,
    matroid,
    reference_cases,
    simplify,
)
from matroidcat.catalogue import matroid_of_labels
from matroidcat.gf2 import echelon_basis
from matroidcat.matroid import BinaryMatroid
from matroidcat.regularity import FanoWitness, is_regular


# cycle matroid of the complete graph on 4 vertices
K4 = matroid_of_labels([1, 2, 3, 4, 5, 6], 3)


def test_is_fano_on_both_representations():
    assert is_fano(matroid(FANO_ROWS))
    assert is_fano(matroid(FANO_ALT_ROWS))


def test_is_fano_rejects_other_shapes():
    assert not is_fano(matroid_of_labels([1, 2, 3, 4], 3))
    assert not is_fano(K4)
    # seven columns but with a repeat
    assert not is_fano(matroid_of_labels([1, 2, 3, 4, 5, 6, 6], 3))
    assert not is_fano(matroid(FANO_DUAL_ROWS))


def test_is_fano_dual():
    assert is_fano_dual(matroid(FANO_DUAL_ROWS))
    assert not is_fano_dual(matroid(FANO_ROWS))
    assert not is_fano_dual(matroid_of_labels([1, 2, 4, 8, 15, 15, 15], 4))


def test_fano_recognizers_swap_under_duality():
    fano = matroid(FANO_ROWS)
    assert is_fano_dual(fano.dual())
    f7d = matroid(FANO_DUAL_ROWS)
    assert is_fano(simplify(f7d.dual())[0])


def test_fano_is_not_regular():
    ok, witness = is_regular(matroid(FANO_ROWS))
    assert not ok
    assert witness is not None
    assert witness.kind == "fano"
    assert witness.flat == frozenset()


def test_fano_dual_is_not_regular():
    ok, witness = is_regular(matroid(FANO_DUAL_ROWS))
    assert not ok
    assert witness.kind == "fano-dual"
    assert witness.flat == frozenset()


def test_k4_is_regular():
    ok, witness = is_regular(K4)
    assert ok and witness is None


def test_low_rank_is_always_regular():
    assert is_regular(matroid_of_labels([1, 1], 1)) == (True, None)
    assert is_regular(matroid_of_labels([1, 2, 3, 3], 2))[0]


def test_nonregular13(nonregular13):
    ok, witness = is_regular(nonregular13)
    assert not ok
    assert witness.kind == "fano"
    # the witness is a corank-3 flat whose contraction simplifies to Fano
    assert witness.flat in nonregular13.flats_of_corank(3)
    recheck = contract(nonregular13, _spanning_subset(nonregular13, witness.flat))
    assert is_fano(simplify(recheck)[0])


def test_nonregular13_hand_worked_flat(nonregular13):
    """{2, 7} spans a corank-3 flat and certifies non-regularity on its own."""
    assert frozenset({2, 7}) in nonregular13.flats_of_corank(3)
    minor = contract(nonregular13, {2, 7})
    assert is_fano(simplify(minor)[0])


def _spanning_subset(m, flat):
    picked = []
    for e in sorted(flat):
        if m.rank_of(picked + [e]) > len(picked):
            picked.append(e)
    return picked


def test_regularity_is_self_dual():
    samples = [
        matroid(FANO_ROWS),
        matroid(FANO_DUAL_ROWS),
        K4,
        matroid_of_labels([1, 2, 3, 4, 5, 6, 7, 7], 3),
        matroid_of_labels([1, 2, 4, 8, 3, 12], 4),
    ]
    for m in samples:
        assert is_regular(m)[0] == is_regular(m.dual())[0]


def test_regular_survives_single_element_minors():
    for e in K4.ground:
        assert is_regular(delete(K4, {e}))[0]
        assert is_regular(contract(K4, {e}))[0]


def test_polygon_is_regular(polygon):
    # cycle matroids of graphs are regular
    assert is_regular(polygon) == (True, None)
    assert is_regular(polygon.dual()) == (True, None)


def test_witness_rechecks_for_both_kinds(nonregular13):
    cases = [matroid(FANO_ROWS), matroid(FANO_DUAL_ROWS), nonregular13]
    for m in cases:
        ok, witness = is_regular(m)
        assert not ok
        minor = contract(m, _spanning_subset(m, witness.flat))
        simple = simplify(minor)[0]
        if witness.kind == "fano":
            assert is_fano(simple)
        else:
            assert is_fano_dual(simple)


def is_regular_reference(m):
    """The same flat scan, deciding each flat on the built minor: contract a
    spanning subset, simplify, and ask is_fano or is_fano_dual."""
    checks = ((3, "fano", is_fano), (4, "fano-dual", is_fano_dual))
    for corank, kind, recognize in checks:
        if m.rank < corank:
            continue
        for flat in sorted(m.flats_of_corank(corank), key=sorted):
            if m.size - len(flat) < 7:
                continue
            minor = contract(m, _spanning_subset(m, flat))
            if recognize(simplify(minor)[0]):
                return False, FanoWitness(flat=flat, kind=kind)
    return True, None


def test_is_regular_matches_built_minors():
    verdicts = set()
    for m in reference_cases():
        expected = is_regular_reference(m)
        assert is_regular(m) == expected, m
        verdicts.add(expected[1].kind if expected[1] else "regular")
    assert verdicts == {"fano", "fano-dual", "regular"}


@settings(max_examples=300)
@given(binary_matroids(max_k=6, max_n=12))
def test_is_regular_matches_built_minors_on_draws(m):
    # shuffled columns, loops, parallel classes and coloops; the duals give
    # the dual-Fano witnesses
    for side in (m, m.dual()):
        assert is_regular(side) == is_regular_reference(side), side


def test_is_regular_walks_no_subset_without_seven_survivors(monkeypatch):
    # a corank-c flat keeps at most (size - rank) + c elements outside it
    walked = []
    for m in reference_cases():

        def recording(subset, m=m):
            corank = m.rank - len(subset)
            walked.append((m.size - m.rank + corank, corank))
            return echelon_basis(subset)

        monkeypatch.setattr(regularity, "echelon_basis", recording)
        is_regular(m)
    assert all(survivors >= 7 for survivors, _ in walked)
    assert {c for _, c in walked} == {3, 4}


def test_is_regular_stops_at_the_witness_basis(monkeypatch, nonregular13):
    # no family is built, and no subset after the witness's lex-first basis
    # is reduced
    walked = []

    def recording(subset):
        walked.append(subset)
        return echelon_basis(subset)

    def no_family(*args):
        raise AssertionError("a family of flats was built")

    monkeypatch.setattr(regularity, "echelon_basis", recording)
    monkeypatch.setattr(BinaryMatroid, "flats_of_corank", no_family)
    _, witness = is_regular(nonregular13)
    basis = _spanning_subset(nonregular13, witness.flat)
    assert walked[-1] == tuple(nonregular13.column_of(e) for e in basis)
