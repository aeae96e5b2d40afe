"""Binary matroids represented as column matroids of GF(2) matrices.

A matroid here is a full-row-rank k x n matrix together with ground-set
labels bound to the columns left to right; the columns are read off once, at
construction.  Subsets of the ground set are plain ``frozenset[int]``
values.  Circuits are minimal supports of null-space vectors, cocircuits
minimal supports of row-space vectors, hyperplanes their complements.
Rank and closure come from one echelon basis of the columns: its length is
the rank, and a column lies in the closure when it reduces to 0 against it.
A flat of rank r is the closure of an independent set of size r.  A
contraction reduces the columns against those it contracts, a deletion
re-echelons the rows of the columns left.  The reduced row echelon form
computed at construction, which checks the rank, is kept: its rows are the
fundamental cocircuits of the lex-first basis, and connectivity and the
Tutte polynomial read them directly.
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


class MatroidError(Exception):
    pass


class DependentContractionSet(MatroidError):
    """Contraction set is not independent."""


class CorankTooLarge(MatroidError):
    """Requested flats of corank exceeding the matroid rank."""


class CircuitSpaceTooLarge(MatroidError):
    """Null space or row space too large to enumerate (corank or rank above
    the hard bound)."""


# circuits walk the 2^(n-k) null-space vectors and cocircuits the 2^k
# row-space vectors; both refuse a space of dimension beyond this
_MAX_SPACE_DIMENSION = 20


def _space_vectors(basis: Sequence[int], space: str) -> set[int]:
    """Every vector spanned by the independent basis; CircuitSpaceTooLarge
    when there are more than 2^_MAX_SPACE_DIMENSION of them."""
    if len(basis) > _MAX_SPACE_DIMENSION:
        raise CircuitSpaceTooLarge(
            f"{space} has 2^{len(basis)} vectors; bound is 2^{_MAX_SPACE_DIMENSION}"
        )
    return span_labels(basis)


def _minimal_supports(vectors: Iterable[int], max_weight: int) -> list[int]:
    """Inclusion-minimal nonzero bitmasks among the given ones.

    Masks heavier than max_weight are discarded up front; callers pass the
    matroid-theoretic bound (k+1 for circuits, n-k+1 for cocircuits), which
    no minimal support can exceed.
    """
    pool = sorted(
        {v for v in vectors if v and bin(v).count("1") <= max_weight},
        key=lambda v: (bin(v).count("1"), v),
    )
    minimal: list[int] = []
    for s in pool:
        if not any(m & s == m for m in minimal):
            minimal.append(s)
    return minimal


class BinaryMatroid:
    """Column matroid of a full-row-rank GF(2) matrix.

    ground holds the element labels, strictly increasing, one per column.
    Minors keep the labels of the parent they came from, so an element keeps
    its identity through contraction and deletion.
    """

    def __init__(self, matrix: Gf2Matrix, ground: tuple[int, ...] | None = None):
        if ground is None:
            ground = tuple(range(1, matrix.ncols + 1))
        if len(ground) != matrix.ncols:
            raise ValueError("ground size must match the column count")
        if any(a >= b for a, b in zip(ground, ground[1:])):
            raise ValueError("ground labels must be strictly increasing")
        reduced, pivots = matrix.rref()
        if len(pivots) != matrix.nrows:
            raise ValueError("matrix rows must be linearly independent")
        self.matrix = matrix
        # each row of the reduced matrix is the fundamental cocircuit of its
        # pivot with respect to the basis of all pivots, the lex-first one
        self.reduced = reduced
        self.ground = ground
        self._columns = dict(zip(ground, matrix.columns()))

    @property
    def rank(self) -> int:
        return self.matrix.nrows

    @property
    def size(self) -> int:
        return self.matrix.ncols

    def column_of(self, e: int) -> int:
        """Column of element e as a bitmask over rows."""
        return self._columns[e]

    def _mask_to_subset(self, mask: int) -> frozenset[int]:
        return frozenset(
            self.ground[i] for i in range(self.size) if (mask >> i) & 1
        )

    def __repr__(self) -> str:
        return f"BinaryMatroid(rank={self.rank}, size={self.size}, ground={self.ground})"

    # -- circuits and cocircuits ------------------------------------------

    @cached_property
    def cocircuits(self) -> frozenset[frozenset[int]]:
        """Minimal nonzero supports of the row space."""
        masks = _minimal_supports(
            _space_vectors(self.matrix.rows, "row space"), self.size - self.rank + 1
        )
        return frozenset(self._mask_to_subset(m) for m in masks)

    @cached_property
    def circuits(self) -> frozenset[frozenset[int]]:
        """Minimal nonzero supports of the null space."""
        null = nullspace_of_reduced(self.reduced).rows
        masks = _minimal_supports(_space_vectors(null, "null space"), self.rank + 1)
        return frozenset(self._mask_to_subset(m) for m in masks)

    def hyperplanes(self) -> frozenset[frozenset[int]]:
        whole = frozenset(self.ground)
        return frozenset(whole - d for d in self.cocircuits)

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
        distinct = sorted(set(self._columns.values()) - {0})
        flats = set()
        for s in combinations(distinct, size):
            echelon = echelon_basis(s)
            if len(echelon) == size:
                flats.add(self._spanned_by(echelon))
        return frozenset(flats)

    # -- closure, rank, simplification ------------------------------------

    def _columns_in(self, subset: Iterable[int]) -> list[int]:
        try:
            return [self._columns[e] for e in subset]
        except KeyError:
            raise ValueError("subset must lie inside the ground set") from None

    def rank_of(self, subset: Iterable[int]) -> int:
        return rank_of_labels(self._columns_in(subset))

    def closure(self, subset: Iterable[int]) -> frozenset[int]:
        """All elements whose columns lie in the span of the subset's columns."""
        return self._spanned_by(echelon_basis(self._columns_in(subset)))

    def _spanned_by(self, echelon: list[int]) -> frozenset[int]:
        """Elements whose columns reduce to 0 against an echelon basis."""
        return frozenset(
            e for e, col in self._columns.items() if not reduce_bits(col, echelon)
        )

    def loops(self) -> frozenset[int]:
        return frozenset(e for e in self.ground if self.column_of(e) == 0)

    def simplify(self) -> tuple["BinaryMatroid", dict[int, frozenset[int]]]:
        """Drop loops and merge parallel classes onto their smallest label.

        Returns the simple matroid plus a map from each surviving element to
        its full parallel class in self.
        """
        classes: dict[int, list[int]] = {}
        for e in self.ground:
            col = self.column_of(e)
            if col:
                classes.setdefault(col, []).append(e)
        survivors = sorted(min(members) for members in classes.values())
        matrix = Gf2Matrix.from_columns(
            [self.column_of(e) for e in survivors], self.rank
        )
        mapping = {
            min(members): frozenset(members) for members in classes.values()
        }
        return BinaryMatroid(matrix, tuple(survivors)), mapping

    # -- minors and duality ------------------------------------------------

    def contract_independent(self, subset: Iterable[int]) -> "BinaryMatroid":
        """Contract an independent set by reducing the columns against its own.

        Elements are processed in ascending label order.  Each one claims the
        lowest row not yet claimed that holds a 1 in its current column, and
        that column is added to every other remaining column with a 1 in the
        row: this is the pivot there, up to the claimed rows, which are
        dropped at the end with the contracted columns.
        """
        todo = frozenset(subset)
        if not todo <= set(self.ground):
            raise ValueError("contraction set must lie inside the ground set")
        if self.rank_of(todo) != len(todo):
            raise DependentContractionSet(f"{sorted(todo)} is dependent")
        if not todo:
            return self

        cols = dict(self._columns)
        claimed = 0  # bitmask of consumed rows
        for e in sorted(todo):
            c = cols.pop(e)
            free = c & ~claimed
            bit = free & -free  # lowest free row holding a 1
            cols = {f: d ^ c if d & bit else d for f, d in cols.items()}
            claimed |= bit
        dropped = [i for i in range(self.rank) if (claimed >> i) & 1]
        matrix = Gf2Matrix.from_columns(
            [_drop_bits(c, dropped) for c in cols.values()], self.rank - len(todo)
        )
        return BinaryMatroid(matrix, tuple(cols))

    def delete(self, subset: Iterable[int]) -> "BinaryMatroid":
        """Remove elements; the rows become an echelon basis of the row space
        in case rank drops."""
        gone = frozenset(subset)
        if not gone <= set(self.ground):
            raise ValueError("deletion set must lie inside the ground set")
        survivors = tuple(e for e in self.ground if e not in gone)
        cols = [self.column_of(e) for e in survivors]
        rows = echelon_basis(Gf2Matrix.from_columns(cols, self.rank).rows)
        return BinaryMatroid(Gf2Matrix(rows, len(survivors)), survivors)

    def dual(self) -> "BinaryMatroid":
        """Matroid of the orthogonal complement, on the same ground set,
        read off the reduced matrix."""
        return BinaryMatroid(nullspace_of_reduced(self.reduced), self.ground)

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


def _drop_bits(row: int, positions: list[int]) -> int:
    """Remove the given 0-based bit positions, compacting the rest down."""
    out = 0
    shift = 0
    prev = 0
    for p in positions:
        width = p - prev
        out |= ((row >> prev) & ((1 << width) - 1)) << shift
        shift += width
        prev = p + 1
    out |= (row >> prev) << shift
    return out
