"""Binary matroids represented as column matroids of GF(2) matrices.

A matroid here is a full-row-rank k x n matrix together with ground-set
labels bound to the columns left to right; the columns are read off once, at
construction.  Subsets of the ground set are plain ``frozenset[int]``
values.  Circuits are minimal supports of null-space vectors, cocircuits
minimal supports of row-space vectors, hyperplanes their complements.
Rank and closure come from one echelon basis of the columns: its length is
the rank, and a column lies in the closure when it reduces to 0 against it.
A flat of rank r is the closure of an independent set of size r.  Minors go
through the pivot transform.  The reduced row echelon form computed at
construction, which checks the rank, is kept: its rows are the fundamental
cocircuits of the lex-first basis, and connectivity and the Tutte
polynomial read them directly.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Iterable

from .gf2 import (
    Gf2Matrix,
    echelon_basis,
    gl_column_tuples,
    gl_group_order,
    nullspace_of_reduced,
    rank_of_labels,
    reduce_bits,
    span_labels,
    transform_bits,
)


class MatroidError(Exception):
    pass


class DependentContractionSet(MatroidError):
    """Contraction set is not independent."""


class CorankTooLarge(MatroidError):
    """Requested flats of corank exceeding the matroid rank."""


class CircuitSpaceTooLarge(MatroidError):
    """Null space too large to enumerate (corank above the hard bound)."""


class OracleTooLarge(MatroidError):
    """Brute-force isomorphism search space exceeds the configured bound."""


# circuits require walking 2^(n-k) null-space vectors; refuse beyond this
_MAX_CIRCUIT_CORANK = 20

# largest GL(k, 2) that a brute-force search over it may walk; exceeded from
# rank 5 on (|GL(5, 2)| = 9,999,360)
BRUTEFORCE_MAX_GROUP_ORDER = 2_000_000


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
        self._col_index = {e: j + 1 for j, e in enumerate(ground)}
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
            span_labels(self.matrix.rows), self.size - self.rank + 1
        )
        return frozenset(self._mask_to_subset(m) for m in masks)

    @cached_property
    def circuits(self) -> frozenset[frozenset[int]]:
        """Minimal nonzero supports of the null space."""
        corank = self.size - self.rank
        if corank > _MAX_CIRCUIT_CORANK:
            raise CircuitSpaceTooLarge(
                f"null space has 2^{corank} vectors; bound is 2^{_MAX_CIRCUIT_CORANK}"
            )
        null = nullspace_of_reduced(self.reduced)
        masks = _minimal_supports(span_labels(null.rows), self.rank + 1)
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
        """Contract an independent set via pivots and row deletion.

        Elements are processed in ascending label order.  Each one claims the
        smallest not-yet-claimed row holding a 1 in its column (pivoting there
        first when the column is not already a unit vector); the claimed rows
        and the contracted columns are then removed.
        """
        todo = frozenset(subset)
        if not todo <= set(self.ground):
            raise ValueError("contraction set must lie inside the ground set")
        if self.rank_of(todo) != len(todo):
            raise DependentContractionSet(f"{sorted(todo)} is dependent")
        if not todo:
            return self

        work = self.matrix
        claimed = 0  # bitmask of consumed rows
        for e in sorted(todo):
            j = self._col_index[e]
            col = work.column_bits(j)
            free = col & ~claimed
            row = (free & -free).bit_length()  # smallest free row, 1-based
            if col != 1 << (row - 1):
                work = work.pivot(row, j)
            claimed |= 1 << (row - 1)

        kept_rows = [
            work.rows[i] for i in range(work.nrows) if not (claimed >> i) & 1
        ]
        dropped_cols = sorted(self._col_index[e] - 1 for e in todo)
        new_rows = [_drop_bits(r, dropped_cols) for r in kept_rows]
        ground = tuple(e for e in self.ground if e not in todo)
        return BinaryMatroid(Gf2Matrix(new_rows, len(ground)), ground)

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


def is_isomorphic_bruteforce(m1: BinaryMatroid, m2: BinaryMatroid) -> bool:
    """Exhaustive isomorphism test: some invertible row transform must map
    one column multiset onto the other.

    Meant as a test oracle for small instances; raises OracleTooLarge when
    the group is bigger than BRUTEFORCE_MAX_GROUP_ORDER.
    """
    if (m1.rank, m1.size) != (m2.rank, m2.size):
        return False
    k = m1.rank
    if k == 0:
        return True
    if gl_group_order(k) > BRUTEFORCE_MAX_GROUP_ORDER:
        raise OracleTooLarge(
            f"|GL_{k}(2)| = {gl_group_order(k)} exceeds bound "
            f"{BRUTEFORCE_MAX_GROUP_ORDER}"
        )
    cols1 = [m1.column_of(e) for e in m1.ground]
    target = sorted(m2.column_of(e) for e in m2.ground)
    # multiplicity profile and loop count are invariants; screen cheaply
    def profile(cols: list[int]) -> list[int]:
        return sorted(cols.count(c) for c in set(cols))

    if profile(cols1) != profile(target):
        return False
    for g in gl_column_tuples(k):
        if sorted(transform_bits(g, c) for c in cols1) == target:
            return True
    return False
