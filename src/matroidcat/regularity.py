"""Regularity of binary matroids via excluded Fano minors.

A binary matroid is regular exactly when no corank-3 flat contracts (after
simplification) to the Fano plane and no corank-4 flat contracts to its
dual.  No minor is built: si(M/F) is the set of nonzero residues of the
columns against an echelon basis of F's columns.  Seven such points at
rank 3 are all of PG(2, 2), the Fano plane; seven at rank 4 with none the
XOR of two others (no three on a line) are the dual Fano plane.

A family is only built when it can hold a flat with seven survivors.  A
flat of corank c has rank (rank - c), hence at least that many elements, so
at most (size - rank) + c elements survive its contraction.  The Fano family
(c = 3) therefore needs size - rank >= 4 and the dual Fano family (c = 4)
needs size - rank >= 3, besides rank >= c.  Regularity is invariant under
duality, and these bounds make the dual of a matroid of rank at most 2
regular without building a single flat.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Literal

from .gf2 import echelon_basis, reduce_bits
from .matroid import BinaryMatroid


@dataclass(frozen=True)
class FanoWitness:
    """A flat whose simplified contraction is the named obstruction."""

    flat: frozenset[int]
    kind: Literal["fano", "fano-dual"]


def is_fano(m: BinaryMatroid) -> bool:
    """True iff the columns are exactly the seven nonzero vectors of GF(2)^3."""
    if m.rank != 3 or m.size != 7:
        return False
    return set(m.matrix.columns()) == set(range(1, 8))


def is_fano_dual(m: BinaryMatroid) -> bool:
    """True iff m is the dual of the Fano plane (rank 4 on 7 elements)."""
    if m.rank != 4 or m.size != 7:
        return False
    simplified, _ = m.dual().simplify()
    return is_fano(simplified)


def is_regular(m: BinaryMatroid) -> tuple[bool, FanoWitness | None]:
    """Decide regularity; on failure also return the offending flat.

    Flats are scanned in ascending order of their sorted element tuples, the
    corank-3 family before the corank-4 one, so the witness is deterministic.
    A family is only built, and a contraction only inspected, when enough
    elements can survive for a seven-point simplification.
    """
    checks: list[tuple[int, Literal["fano", "fano-dual"]]] = [
        (3, "fano"),
        (4, "fano-dual"),
    ]
    for corank, kind in checks:
        if m.rank < corank or m.size - m.rank + corank < 7:
            continue
        for flat in sorted(m.flats_of_corank(corank), key=sorted):
            if m.size - len(flat) < 7:
                continue
            echelon = echelon_basis([m.column_of(e) for e in flat])
            points = {reduce_bits(m.column_of(e), echelon) for e in m.ground} - {0}
            if len(points) != 7:
                continue
            if kind == "fano" or not any(
                a ^ b in points for a, b in combinations(points, 2)
            ):
                return False, FanoWitness(flat=flat, kind=kind)
    return True, None
