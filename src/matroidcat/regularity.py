"""Regularity of binary matroids via excluded Fano minors.

A binary matroid is regular exactly when no corank-3 flat contracts (after
simplification) to the Fano plane and no corank-4 flat contracts to its
dual.  No minor is built: si(M/F) is the set of nonzero residues of the
columns modulo the span of F, and the zero residues are F itself.  Seven
such points at rank 3 are all of PG(2, 2), the Fano plane; seven at rank 4
with none the XOR of two others (no three on a line) are the dual Fano
plane.  The tests check each witness on the built minor, with recognizers
of both planes kept in ``tests/conftest.py``.

One depth-first walk per corank picks the distinct nonzero columns in
label order.  Each pick v reduces every residue that holds v's top bit
(``r ^ v if r & top(v) else r``), so a node costs one pass over the
columns and no subset is eliminated again.  The walk enters each flat
once, at its lex-first basis, and cuts a node whose points, less the picks
still to make, fall below seven: each pick removes at least one point.
The witness's flat is computed once, by an echelon basis of its picks,
when the walk stops.

A corank is only walked when it can hold a flat with seven survivors.  A
flat of corank c has rank (rank - c), hence at least that many elements, so
at most (size - rank) + c elements survive its contraction.  The Fano walk
(c = 3) therefore needs size - rank >= 4 and the dual Fano walk (c = 4)
needs size - rank >= 3, besides rank >= c.  Regularity is invariant under
duality, and these bounds make the dual of a matroid of rank at most 2
regular without reading a single column.
"""

from __future__ import annotations

from itertools import combinations
from typing import Literal, NamedTuple

from .gf2 import echelon_basis, reduce_bits
from .matroid import BinaryMatroid


class FanoWitness(NamedTuple):
    """A flat whose simplified contraction is the named obstruction."""

    flat: frozenset[int]
    kind: Literal["fano", "fano-dual"]


def is_regular(m: BinaryMatroid) -> tuple[bool, FanoWitness | None]:
    """Decide regularity; on failure also return the offending flat.

    For corank 3, then 4, ``_first_basis`` walks the flats of that corank
    in lexicographic order of their lex-first bases, picked from the
    distinct nonzero columns, each at its smallest label, and the first
    flat whose contraction is the obstruction is returned.  Flats of one
    rank are ordered by their sorted element tuples as by those bases:
    where the tuples of F and G first differ, F holding x and G a larger
    label, x is independent of the common prefix (else the flat G would
    hold it), so F's greedy basis takes x where G's takes a larger label.
    The witness is thus the first such flat in ascending order of sorted
    element tuples.
    """
    checks = [
        (corank, kind)
        for corank, kind in ((3, "fano"), (4, "fano-dual"))
        if m.rank >= corank and m.size - m.rank + corank >= 7
    ]
    if not checks:
        return True, None
    cols = [m.column_of(e) for e in m.ground]
    # dicts keep insertion order, so the first label of each column is its
    # smallest and the columns come in label order
    representatives = list(dict.fromkeys(c for c in cols if c))
    for corank, kind in checks:
        picks = m.rank - corank
        if len(representatives) - picks < 7:
            continue
        basis = _first_basis(representatives, 0, picks, kind)
        if basis is not None:
            echelon = echelon_basis([representatives[j] for j in basis])
            flat = frozenset(e for e, c in zip(m.ground, cols) if not reduce_bits(c, echelon))
            return False, FanoWitness(flat=flat, kind=kind)
    return True, None


def _first_basis(
    residues: list[int], start: int, left: int, kind: Literal["fano", "fano-dual"]
) -> list[int] | None:
    """Positions of the first ``left`` further picks, all from ``start`` on,
    that complete the current picks to a lex-first basis of a flat whose
    contraction is the obstruction ``kind``, or None.

    ``residues`` holds each distinct column reduced against the picks so far,
    so the current flat is the columns with residue 0 and its simplified
    contraction is the set of nonzero residues.  A column can be picked when
    its residue is nonzero and differs from that of every earlier column:
    an earlier column with the same residue would enter the span first, so
    the picks would not be the flat's lex-first basis.  Each pick removes at
    least one point, so a child is only entered when its points minus the
    picks still to make leave seven.
    """
    if not left:
        points = set(residues)
        points.discard(0)
        if len(points) == 7 and (
            kind == "fano" or not any(a ^ b in points for a, b in combinations(points, 2))
        ):
            return []
        return None
    seen = set(residues[:start])
    for j in range(start, len(residues) - left + 1):
        v = residues[j]
        if v and v not in seen:
            top = 1 << v.bit_length() - 1
            child = [r ^ v if r & top else r for r in residues]
            # the child holds 0 at j, so its points are one fewer than its set
            if len(set(child)) - left >= 7:
                found = _first_basis(child, j + 1, left - 1, kind)
                if found is not None:
                    return [j, *found]
        seen.add(v)
    return None
