"""Property tests of the canonicity test on random spanning functions."""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import relabellings, transform_bits
from matroidcat.enumeration import (
    _complete_to_basis,
    _lex_larger_witness_columns,
    _witness_reach,
    canonical_form,
    label_vector_of,
)
from matroidcat.gf2 import rank_of_labels, span_labels


@st.composite
def spanning_label_tuples(draw, max_k=4):
    """(labels, k, values): a sorted spanning label tuple of GF(2)^k, loops
    included, and its multiplicities indexed by label."""
    k = draw(st.integers(1, max_k))
    labels = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=k, max_size=8))
    assume(rank_of_labels(labels) == k)
    values = [0] * (1 << k)
    for lbl in labels:
        values[lbl] += 1
    return tuple(sorted(labels)), k, tuple(values)


@settings(max_examples=300)
@given(spanning_label_tuples())
def test_canonical_exactly_when_orbit_maximum(case):
    labels, k, values = case
    orbit_max = max(relabel(values) for relabel in relabellings(k))
    # the search's verdict: no witness exactly at the orbit maximum
    assert (_lex_larger_witness_columns(values, k) is None) == (values == orbit_max)
    assert _lex_larger_witness_columns(orbit_max, k) is None
    top = label_vector_of(orbit_max)
    assert canonical_form(labels, k) == top
    assert canonical_form(top, k) == top


@settings(max_examples=300)
@given(spanning_label_tuples(max_k=5), st.data())
def test_witness_rejects_every_function_that_agrees_up_to_its_reach(case, data):
    # the lemma the scan's backjumping rests on
    _, k, f = case
    hit = _lex_larger_witness_columns(f, k)
    assume(hit is not None)
    cols, reach = hit
    size = 1 << k
    tail = data.draw(
        st.lists(st.integers(0, 3), min_size=size - 1 - reach, max_size=size - 1 - reach)
    )
    values = f[: reach + 1] + tuple(tail)
    g = _complete_to_basis(cols, k)
    assert tuple(values[transform_bits(g, j)] for j in range(size)) > values


@settings(max_examples=300)
@given(st.integers(1, 5), st.data())
def test_witness_reach_exactly_when_the_relabelling_is_larger(k, data):
    size = 1 << k
    values = tuple(data.draw(st.lists(st.integers(0, 2), min_size=size, max_size=size)))
    cols: list[int] = []
    for _ in range(data.draw(st.integers(0, k))):
        span = span_labels(cols)
        cols.append(data.draw(st.sampled_from([x for x in range(size) if x not in span])))
    # the walk's table is the relabelling on the labels below 2^s
    head = 1 << len(cols)
    table = span_labels(cols)
    assert table == [transform_bits(cols, x) for x in range(head)]
    reach = _witness_reach(values, table)
    g = _complete_to_basis(cols, k)
    image = tuple(values[transform_bits(g, x)] for x in range(size))
    # the columns fix the relabelling on the labels below 2^s; with s = k
    # that is the whole completed relabelling
    assert (reach is not None) == (image[:head] > values[:head])
    if reach is not None:
        assert image > values
        # every function that agrees with values up to the reach is
        # rejected by the same relabelling
        tail = data.draw(
            st.lists(st.integers(0, 2), min_size=size - 1 - reach, max_size=size - 1 - reach)
        )
        other = values[: reach + 1] + tuple(tail)
        assert tuple(other[transform_bits(g, x)] for x in range(size)) > other


@settings(max_examples=400)
@given(st.integers(1, 5), st.data())
def test_search_returns_the_reach_of_its_witness(k, data):
    # the reach the search returns is the one _witness_reach walks: for a
    # full test, and for a restriction to GF(2)^t read off a longer list
    size = 1 << k
    values = tuple(data.draw(st.lists(st.integers(0, 2), min_size=size, max_size=size)))
    for t in {k, data.draw(st.integers(1, k))}:
        hit = _lex_larger_witness_columns(values, t)
        if hit is not None:
            cols, reach = hit
            assert reach == _witness_reach(values, span_labels(cols))
            assert reach < 1 << t
