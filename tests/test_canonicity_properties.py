"""Property tests of the canonicity test on random spanning functions."""

from __future__ import annotations

import functools
import operator

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from matroidcat.enumeration import (
    MultiplicityFunction,
    is_canonical,
    lex_larger_witness,
    transform_label,
)
from matroidcat.gf2 import gl_column_tuples, rank_of_labels, transform_bits


@functools.cache
def _relabellings(k: int):
    """One itemgetter per invertible matrix g: values -> (values[g(j)])_j."""
    return [
        operator.itemgetter(*(transform_bits(g, j) for j in range(1 << k)))
        for g in gl_column_tuples(k)
    ]


@st.composite
def spanning_functions(draw):
    k = draw(st.integers(1, 4))
    labels = draw(st.lists(st.integers(1, (1 << k) - 1), min_size=k, max_size=8))
    assume(rank_of_labels(set(labels)) == k)
    values = [0] * (1 << k)
    for lbl in labels:
        values[lbl] += 1
    return MultiplicityFunction(tuple(values), k)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(spanning_functions())
def test_canonical_exactly_when_orbit_maximum(f):
    orbit_max = max(relabel(f.values) for relabel in _relabellings(f.k))
    assert is_canonical(f) == (f.values == orbit_max)
    assert is_canonical(MultiplicityFunction(orbit_max, f.k))
    w = lex_larger_witness(f)
    if w is not None:
        image = tuple(f.values[transform_label(w, j)] for j in range(1 << f.k))
        assert image > f.values
