"""Exact linear algebra over GF(2) on bitmask vectors and ``Gf2Matrix``.

A vector is a plain Python int: bit ``i-1`` holds coordinate ``i``, so
coordinate 1 is the least significant bit.  Matrix rows and columns are such
ints too.  The pivot columns ``rref`` returns are 1-based.
Addition is XOR, the scalar product is the parity of AND,
``(a & b).bit_count() & 1``.  Everything here is a pure function on
immutable values.

Two eliminations do all the work.  ``Gf2Matrix.rref`` gives the reduced
row echelon form with leftmost pivots, and ``nullspace_of_reduced`` reads
the null space off it.  ``echelon_basis`` and ``reduce_bits`` eliminate on
bare bitmasks, skipping the matrix objects: ``rank_of_labels`` and
``solve_in_basis`` are built on them, and ``span_labels`` lists a span.
"""

from __future__ import annotations

from typing import Sequence


class NotInSpan(Exception):
    """Target vector is outside the span of the given basis."""


def _transpose(vectors: Sequence[int], length: int) -> list[int]:
    """The transpose of bitmask vectors of the given length: bit j of entry
    i of the result is bit i of vectors[j]."""
    out = [0] * length
    for j, v in enumerate(vectors):
        bit = 1 << j
        while v:
            low = v & -v
            out[low.bit_length() - 1] |= bit
            v ^= low
    return out


class Gf2Matrix:
    """Immutable k-by-n matrix over GF(2), rows stored as bitmasks."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[int], ncols: int):
        if ncols < 0:
            raise ValueError("ncols must be non-negative")
        for r in rows:
            if r < 0 or r >> ncols:
                raise ValueError(f"row 0x{r:x} does not fit in {ncols} columns")
        self.rows = tuple(rows)
        self.nrows = len(self.rows)
        self.ncols = ncols

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "Gf2Matrix":
        if not rows:
            raise ValueError("from_rows needs at least one row; use Gf2Matrix((), n)")
        ncols = len(rows[0])
        packed = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("rows must have equal length")
            bits = 0
            for i, e in enumerate(row):
                if e not in (0, 1):
                    raise ValueError("entries must be 0 or 1")
                bits |= e << i
            packed.append(bits)
        return cls(packed, ncols)

    @classmethod
    def from_columns(cls, columns: Sequence[int], nrows: int) -> "Gf2Matrix":
        """Build from column bitmasks (bit i-1 of a column = entry in row i)."""
        if nrows < 0:
            raise ValueError("nrows must be non-negative")
        for c in columns:
            if c < 0 or c >> nrows:
                raise ValueError(f"column 0x{c:x} does not fit in {nrows} rows")
        return cls(_transpose(columns, nrows), len(columns))

    @classmethod
    def identity(cls, k: int) -> "Gf2Matrix":
        return cls([1 << i for i in range(k)], k)

    def columns(self) -> tuple[int, ...]:
        """All columns as bitmasks, left to right."""
        return tuple(_transpose(self.rows, self.ncols))

    def entries(self) -> list[list[int]]:
        return [[r >> j & 1 for j in range(self.ncols)] for r in self.rows]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Gf2Matrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.ncols))

    def __repr__(self) -> str:
        body = ";".join("".join(map(str, row)) for row in self.entries())
        return f"Gf2Matrix({self.nrows}x{self.ncols}:{body})"

    # -- elimination ------------------------------------------------------

    def rref(self) -> tuple["Gf2Matrix", tuple[int, ...]]:
        """Reduced row echelon form and its 1-based pivot columns.

        Pivots are chosen in column order 1..n, which makes the result (and
        everything downstream of it) deterministic.
        """
        work = list(self.rows)
        pivot_cols = []
        r = 0
        for j in range(self.ncols):
            bit = 1 << j
            p = next((i for i in range(r, len(work)) if work[i] & bit), None)
            if p is None:
                continue
            work[r], work[p] = work[p], work[r]
            for i in range(len(work)):
                if i != r and work[i] & bit:
                    work[i] ^= work[r]
            pivot_cols.append(j + 1)
            r += 1
            if r == len(work):
                break
        return Gf2Matrix(work, self.ncols), tuple(pivot_cols)


def solve_in_basis(basis_cols: Gf2Matrix, target: int) -> int:
    """Coefficients c with basis_cols . c = target, for independent columns.

    The target is a bitmask over rows; bit j-1 of the result is the
    coefficient of column j.  Raises ValueError if the target does not fit
    in the rows or the columns are dependent, and NotInSpan if the target is
    outside the column span.  Column j is tagged with bit j below its
    entries, so every vector of the echelon basis of the tagged columns
    records which columns it sums; one with no entry bits left is a
    dependence.  The target, shifted above the tags, reduces to its
    coefficients when it lies in the span.
    """
    m, k = basis_cols.ncols, basis_cols.nrows
    if target < 0 or target >> k:
        raise ValueError(f"target 0x{target:x} does not fit in {k} rows")
    tagged = [c << m | 1 << j for j, c in enumerate(basis_cols.columns())]
    echelon = echelon_basis(tagged)
    if echelon and echelon[-1] >> m == 0:
        raise ValueError("basis columns are not linearly independent")
    residue = reduce_bits(target << m, echelon)
    if residue >> m:
        raise NotInSpan("target is not in the span of the basis columns")
    return residue


def nullspace_of_reduced(reduced: Gf2Matrix) -> Gf2Matrix:
    """Basis of the orthogonal complement of the row space of a matrix in
    reduced row echelon form, as an (n - rank) x n matrix, without
    eliminating again: the pivot of each nonzero row is its lowest set bit.
    One basis vector per free column, in increasing order; it holds that
    column and every pivot whose row has a 1 there.
    """
    rows = [r for r in reduced.rows if r]
    pivots = [r & -r for r in rows]
    pivot_mask = sum(pivots)
    basis = []
    for j in range(reduced.ncols):
        bit = 1 << j
        if pivot_mask & bit:
            continue
        v = bit
        for r, p in zip(rows, pivots):
            if r & bit:
                v |= p
        basis.append(v)
    return Gf2Matrix(basis, reduced.ncols)


def span_labels(labels: Sequence[int]) -> set[int]:
    """All XOR combinations of the given bitmask vectors (including 0)."""
    span = {0}
    for v in labels:
        if v not in span:
            span |= {v ^ x for x in span}
    return span


def reduce_bits(v: int, echelon: Sequence[int]) -> int:
    """Residue of bitmask v against a basis built by ``echelon_basis``.

    The residue is 0 at every leading bit of the basis: it is 0 exactly when
    v lies in the span, and equal for two vectors exactly when they differ by
    a vector of the span.
    """
    for b in echelon:
        if v ^ b < v:
            v ^= b
    return v


def echelon_basis(labels: Sequence[int]) -> list[int]:
    """Basis of the span with distinct leading bits, in decreasing order."""
    basis: list[int] = []
    for v in labels:
        v = reduce_bits(v, basis)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return basis


def rank_of_labels(labels: Sequence[int]) -> int:
    """GF(2) rank of a collection of bitmask vectors."""
    return len(echelon_basis(labels))


def gl_group_order(k: int) -> int:
    """Number of invertible k x k matrices over GF(2)."""
    order = 1
    for i in range(k):
        order *= (1 << k) - (1 << i)
    return order


def transform_bits(column_tuple: Sequence[int], v: int) -> int:
    """Image of bitmask vector v under the matrix with the given columns."""
    out = 0
    t = 0
    while v:
        if v & 1:
            out ^= column_tuple[t]
        v >>= 1
        t += 1
    return out
