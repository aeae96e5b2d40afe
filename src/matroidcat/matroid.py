"""Binary matroids represented as column matroids of GF(2) matrices.

A matroid is built from its columns, bitmasks over k rows that span
GF(2)^k, and ground-set labels bound to them left to right.  It keeps the
columns, by label, and the reduced row echelon form of the k x n matrix
they make, whose shape is the rank and size and which has no zero row
exactly when the columns span.  Subsets of the ground set are plain
``frozenset[int]`` values.  Circuits are minimal supports of null-space
vectors, the one space walk; cocircuits are the circuits of the dual.
Rank comes from an echelon basis of the columns: its length.  A flat of
rank r is the closure of an independent set of size r, the elements whose
columns reduce to 0 against that set's echelon basis.  The reduced rows
are the fundamental cocircuits of the lex-first basis, and connectivity and
the Tutte polynomial read them directly.  A matroid builds no minors: the
deletion-contraction oracle in ``tutte`` recurses on bare rows, and
contraction and deletion are test references, in ``tests/conftest.py``.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

from .gf2 import (
    Gf2Matrix,
    echelon_basis,
    nullspace_of_reduced,
    rank_of_labels,
    reduce_bits,
    span_labels,
)


class CorankTooLarge(Exception):
    """Requested flats of corank exceeding the matroid rank."""


class CircuitSpaceTooLarge(Exception):
    """Null space too large to enumerate (corank above the hard bound)."""


# circuits walk the 2^(n-k) null-space vectors and refuse a space of
# dimension beyond this
_MAX_SPACE_DIMENSION = 20


class BinaryMatroid:
    """Column matroid of bitmask columns over rank rows that span GF(2)^rank.

    ground holds the element labels, strictly increasing, one per column.
    """

    def __init__(
        self, columns: Sequence[int], rank: int, ground: tuple[int, ...] | None = None
    ):
        if ground is None:
            ground = tuple(range(1, len(columns) + 1))
        if len(ground) != len(columns):
            raise ValueError("ground size must match the column count")
        if any(a >= b for a, b in zip(ground, ground[1:])):
            raise ValueError("ground labels must be strictly increasing")
        reduced = Gf2Matrix.from_columns(columns, rank).rref()
        if not all(reduced.rows):
            raise ValueError("columns must span GF(2)^rank")
        # each row of the reduced matrix is the fundamental cocircuit of its
        # pivot with respect to the basis of all pivots, the lex-first one
        self.reduced = reduced
        self.ground = ground
        self._columns = dict(zip(ground, columns))

    @property
    def rank(self) -> int:
        return self.reduced.nrows

    @property
    def size(self) -> int:
        return self.reduced.ncols

    def column_of(self, e: int) -> int:
        """Column of element e as a bitmask over rows."""
        return self._columns[e]

    def _mask_to_subset(self, mask: int) -> frozenset[int]:
        return frozenset(
            self.ground[i] for i in range(self.size) if (mask >> i) & 1
        )

    def __repr__(self) -> str:
        return f"BinaryMatroid(rank={self.rank}, size={self.size}, ground={self.ground})"

    # -- circuits, flats and rank -------------------------------------------

    @cached_property
    def circuits(self) -> frozenset[frozenset[int]]:
        """Minimal nonzero supports of the null space.

        Supports heavier than rank + 1, which no circuit can exceed, are
        discarded up front; the rest are sorted by weight, so each comes
        after every support it contains.
        """
        null = nullspace_of_reduced(self.reduced).rows
        if len(null) > _MAX_SPACE_DIMENSION:
            raise CircuitSpaceTooLarge(
                f"null space has 2^{len(null)} vectors; bound is 2^{_MAX_SPACE_DIMENSION}"
            )
        pool = sorted(
            (v for v in span_labels(null) if v and bin(v).count("1") <= self.rank + 1),
            key=lambda v: (bin(v).count("1"), v),
        )
        minimal: list[int] = []
        for v in pool:
            if not any(m & v == m for m in minimal):
                minimal.append(v)
        return frozenset(self._mask_to_subset(m) for m in minimal)

    def flats_of_corank(self, c: int) -> frozenset[frozenset[int]]:
        """Flats of rank (rank - c): the closures of the independent sets of
        that size.  An independent set holds no loop and at most one element
        of each parallel class, so the sets are drawn from the distinct
        nonzero columns."""
        if c < 1:
            raise ValueError("corank must be at least 1")
        if c > self.rank:
            raise CorankTooLarge(f"corank {c} exceeds rank {self.rank}")
        size = self.rank - c
        items = self._columns.items()
        distinct = sorted(set(self._columns.values()) - {0})
        flats = set()
        for s in combinations(distinct, size):
            echelon = echelon_basis(s)
            if len(echelon) == size:
                # the closure of s: the elements whose columns reduce to 0
                flats.add(frozenset(e for e, v in items if not reduce_bits(v, echelon)))
        return frozenset(flats)

    def rank_of(self, subset: Iterable[int]) -> int:
        try:
            columns = [self._columns[e] for e in subset]
        except KeyError:
            raise ValueError("subset must lie inside the ground set") from None
        return rank_of_labels(columns)

    # -- duality ------------------------------------------------------------

    def dual(self) -> "BinaryMatroid":
        """Matroid of the orthogonal complement, on the same ground set,
        read off the reduced matrix."""
        null = nullspace_of_reduced(self.reduced)
        return BinaryMatroid(null.columns(), null.nrows, self.ground)

    # -- connectivity -------------------------------------------------------

    def is_connected(self) -> bool:
        """The fundamental graph of the pivot basis must be connected
        (Krogdahl 1977); a matroid of rank 0, empty or all loops, is not.

        That graph joins each pivot to the non-basis elements whose column
        has a 1 in its reduced row, so it is connected exactly when the rows
        of the reduced matrix, linked by shared columns, form one class
        whose supports cover the ground set.  A loop lies in no support and
        a coloop's row shares no column, so a single element is connected
        exactly when it is not a loop.
        """
        if not self.rank:
            return False
        reached, *pending = self.reduced.rows
        grew = True
        while grew:
            grew = False
            rest = []
            for row in pending:
                if row & reached:
                    reached |= row
                    grew = True
                else:
                    rest.append(row)
            pending = rest
        return reached == (1 << self.size) - 1

