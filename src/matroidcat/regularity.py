"""Regularity of binary matroids via excluded Fano minors.

A binary matroid is regular exactly when no corank-3 flat contracts (after
simplification) to the Fano plane and no corank-4 flat contracts to its
dual.  No minor is built: si(M/F) is the set of nonzero residues of the
columns against an echelon basis of F's columns, and the zero residues are
F itself.  Seven such points at rank 3 are all of PG(2, 2), the Fano
plane; seven at rank 4 with none the XOR of two others (no three on a line)
are the dual Fano plane.  The tests check each witness on the built minor,
with recognizers of both planes kept in ``tests/conftest.py``.

A corank is only walked when it can hold a flat with seven survivors.  A
flat of corank c has rank (rank - c), hence at least that many elements, so
at most (size - rank) + c elements survive its contraction.  The Fano walk
(c = 3) therefore needs size - rank >= 4 and the dual Fano walk (c = 4)
needs size - rank >= 3, besides rank >= c.  Regularity is invariant under
duality, and these bounds make the dual of a matroid of rank at most 2
regular without reducing a single column.
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

    For corank 3, then 4, the independent subsets of size (rank - c) of the
    distinct nonzero columns, each at its smallest label, are walked in
    lexicographic order of their labels, and the first flat whose
    contraction is the obstruction is returned.  The walk meets each flat
    first at its lex-first basis, and flats of one rank are ordered by
    their sorted element tuples as by those bases: where the tuples of F
    and G first differ, F holding x and G a larger label, x is independent
    of the common prefix (else the flat G would hold it), so F's greedy
    basis takes x where G's takes a larger label.  The witness is thus the
    first such flat in ascending order of sorted element tuples.
    """
    cols = [m.column_of(e) for e in m.ground]
    # dicts keep insertion order, so the first label of each column is its
    # smallest and the columns come in label order
    representatives = list(dict.fromkeys(c for c in cols if c))
    checks: list[tuple[int, Literal["fano", "fano-dual"]]] = [
        (3, "fano"),
        (4, "fano-dual"),
    ]
    for corank, kind in checks:
        if m.rank < corank or m.size - m.rank + corank < 7:
            continue
        for subset in combinations(representatives, m.rank - corank):
            echelon = echelon_basis(subset)
            if len(echelon) < len(subset):
                continue
            residues = [reduce_bits(c, echelon) for c in cols]
            points = set(residues) - {0}
            if len(points) != 7:
                continue
            if kind == "fano" or not any(
                a ^ b in points for a, b in combinations(points, 2)
            ):
                flat = frozenset(e for e, r in zip(m.ground, residues) if not r)
                return False, FanoWitness(flat=flat, kind=kind)
    return True, None
