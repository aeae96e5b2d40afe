"""Exact linear algebra over GF(2) on bitmask vectors and ``Gf2Matrix``.

A vector is a plain Python int: bit ``i-1`` holds coordinate ``i``, so
coordinate 1 is the least significant bit.  Matrix rows and columns are such
ints too.  Addition is XOR, the scalar product is the parity of AND,
``(a & b).bit_count() & 1``.  Everything here is a pure function on
immutable values.

Two eliminations do all the work.  ``Gf2Matrix.rref`` gives the reduced
row echelon form with leftmost pivots, and ``nullspace_of_reduced`` reads
the null space off it.  ``echelon_basis`` and ``reduce_bits`` eliminate on
bare bitmasks, skipping the matrix objects: ``rank_of_labels`` and
``solve_in_basis`` are built on them.

One walk lists a span: ``span_labels`` gives every XOR combination of its
vectors, entry c the one with coefficient vector c.  That list is the image
table of the matrix whose columns are the vectors, so it is also how a
linear map acts on labels: ``orbits`` walks the cycles of a group element
through it, and ``enumeration`` relabels multiplicity functions through it.
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
    def from_columns(cls, columns: Sequence[int], nrows: int) -> "Gf2Matrix":
        """Build from column bitmasks (bit i-1 of a column = entry in row i)."""
        if nrows < 0:
            raise ValueError("nrows must be non-negative")
        for c in columns:
            if c < 0 or c >> nrows:
                raise ValueError(f"column 0x{c:x} does not fit in {nrows} rows")
        return cls(_transpose(columns, nrows), len(columns))

    def columns(self) -> tuple[int, ...]:
        """All columns as bitmasks, left to right."""
        return tuple(_transpose(self.rows, self.ncols))

    def __repr__(self) -> str:
        body = ";".join(
            "".join(str(r >> j & 1) for j in range(self.ncols)) for r in self.rows
        )
        return f"Gf2Matrix({self.nrows}x{self.ncols}:{body})"

    def rref(self) -> "Gf2Matrix":
        """Reduced row echelon form with leftmost pivots.

        The rows are taken one at a time and reduced by the pivots found so
        far; a row left nonzero brings its lowest set bit as a new pivot,
        which is cleared from the rows kept before it.  The kept rows come
        sorted by pivot, then the zero rows, so the pivot of each nonzero row
        is its lowest set bit and its column is a unit column.  The form is
        unique to the row space.
        """
        kept: list[int] = []
        for r in self.rows:
            for row in kept:
                if r & row & -row:
                    r ^= row
            if r:
                low = r & -r
                kept = [row ^ r if row & low else row for row in kept]
                kept.append(r)
        kept.sort(key=lambda row: row & -row)
        return Gf2Matrix(kept + [0] * (self.nrows - len(kept)), self.ncols)


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


def span_labels(vectors: Sequence[int]) -> list[int]:
    """The XOR combinations of the vectors, indexed by coefficient vector:
    entry c sums the vectors[i] whose bit i of c is set.  This is the image
    table of the matrix whose columns are the vectors; each vector doubles
    it, so m vectors give 2^m entries, with repeats when they are dependent.
    """
    images = [0]
    for v in vectors:
        images += [v ^ y for y in images]
    return images


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
