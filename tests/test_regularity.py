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
    cycle_matroid_of_complete_graph,
    delete,
    is_fano,
    is_fano_dual,
    matroid,
    reference_cases,
    simplify,
)
from matroidcat.catalogue import matroid_of_labels
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


def test_is_regular_reads_no_column_without_seven_survivors(monkeypatch):
    # rank <= 2 leaves no corank-3 flat, and size - rank <= 2 leaves at most
    # six elements outside any flat of corank 4 or less
    def no_column(self, e):
        raise AssertionError("a column was read")

    cases = [m for m in reference_cases() if m.rank <= 2 or m.size - m.rank <= 2]
    monkeypatch.setattr(BinaryMatroid, "column_of", no_column)
    assert {m.rank for m in cases} >= {0, 1, 2, 3, 4}
    for m in cases:
        assert is_regular(m) == (True, None)


def _recorded_walks(monkeypatch, m):
    """is_regular(m) and the nodes its walk enters, one list per corank, in
    the order entered: each node's flat, its points (the distinct nonzero
    residues) and the picks it has left."""
    walks = {}
    current = []
    walk = regularity._first_basis

    def recording(residues, start, left, kind):
        if start == 0:
            # a walk starts at its root, whose residues are the distinct
            # nonzero columns
            current[:] = [residues, walks.setdefault(m.rank - left, [])]
        columns, nodes = current
        spanned = {0} | {c for c, r in zip(columns, residues) if not r}
        flat = frozenset(e for e in m.ground if m.column_of(e) in spanned)
        nodes.append((flat, len(set(residues) - {0}), left))
        return walk(residues, start, left, kind)

    with monkeypatch.context() as patch:
        patch.setattr(regularity, "_first_basis", recording)
        return is_regular(m), walks


def _walked_cases():
    """reference_cases() with M(K5), M(K6) and their duals, whose walks
    make up to seven picks, so that one flat has many independent bases."""
    graphic = [cycle_matroid_of_complete_graph(v) for v in (5, 6)]
    return reference_cases() + graphic + [m.dual() for m in graphic]


def test_is_regular_enters_each_flat_once_within_the_bound(monkeypatch):
    walked = set()
    for m in _walked_cases():
        _, walks = _recorded_walks(monkeypatch, m)
        for corank, nodes in walks.items():
            walked.add(corank)
            flats = [flat for flat, _, _ in nodes]
            assert len(set(flats)) == len(flats), m
            for flat, points, left in nodes:
                # each pick still to make removes at least one point
                assert points - left >= 7, m
                assert m.rank_of(flat) + left == m.rank - corank, m
    assert walked == {3, 4}


def test_is_regular_meets_the_seven_point_flats_in_sorted_order(monkeypatch):
    # the leaves of each walk are the flats of its corank whose simplified
    # contraction keeps seven points, in sorted order, up to the witness
    for m in _walked_cases():
        (_, witness), walks = _recorded_walks(monkeypatch, m)
        for corank, kind in ((3, "fano"), (4, "fano-dual")):
            if m.rank < corank:
                continue
            expected = [
                flat
                for flat in sorted(m.flats_of_corank(corank), key=sorted)
                if simplify(contract(m, _spanning_subset(m, flat)))[0].size >= 7
            ]
            stopped = witness is not None and witness.kind == kind
            if stopped:
                expected = expected[: expected.index(witness.flat) + 1]
            leaves = [flat for flat, _, left in walks.get(corank, []) if not left]
            assert leaves == expected, m
            if stopped:
                break


def test_is_regular_stops_at_the_witness_basis(monkeypatch, nonregular13):
    # no family is built, and the last node entered is the witness, reached
    # through the closures of its lex-first basis's prefixes
    def no_family(*args):
        raise AssertionError("a family of flats was built")

    monkeypatch.setattr(BinaryMatroid, "flats_of_corank", no_family)
    (_, witness), walks = _recorded_walks(monkeypatch, nonregular13)
    nodes = walks[3]
    basis = _spanning_subset(nonregular13, witness.flat)
    path = {left: flat for flat, _, left in nodes}
    assert nodes[-1] == (witness.flat, 7, 0)
    for picked in range(len(basis) + 1):
        prefix = basis[:picked]
        closure = frozenset(
            e for e in nonregular13.ground if nonregular13.rank_of(prefix + [e]) == picked
        )
        assert path[len(basis) - picked] == closure
