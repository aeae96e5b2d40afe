"""Property tests of the canonicity test on random spanning functions."""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import relabellings
from matroidcat.enumeration import (
    _complete_to_basis,
    _lex_larger_witness_columns,
    _witness_reach,
    canonical_form,
    is_canonical,
    label_vector_of,
    lex_larger_witness,
)
from matroidcat.gf2 import rank_of_labels, span_labels, transform_bits


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
    assert is_canonical(labels, k) == (values == orbit_max)
    top = label_vector_of(orbit_max)
    assert is_canonical(top, k)
    assert canonical_form(labels, k) == top
    assert canonical_form(top, k) == top
    w = lex_larger_witness(labels, k)
    if w is not None:
        assert tuple(values[transform_bits(w, j)] for j in range(1 << k)) > values


@settings(max_examples=300)
@given(spanning_label_tuples(max_k=5), st.data())
def test_witness_rejects_every_function_that_agrees_up_to_its_reach(case, data):
    # the lemma the scan's backjumping rests on
    _, k, f = case
    cols = _lex_larger_witness_columns(f, k)
    assume(cols is not None)
    reach = _witness_reach(f, cols)
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
    reach = _witness_reach(values, cols)
    g = _complete_to_basis(cols, k)
    image = tuple(values[transform_bits(g, x)] for x in range(size))
    # the columns fix the relabelling on the labels below 2^s; with s = k
    # that is the whole completed relabelling
    head = 1 << len(cols)
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
