"""Exact linear algebra over GF(2) on bit-packed vectors and matrices.

Vectors and matrix rows are stored as Python ints: bit ``i-1`` holds
coordinate ``i``, so coordinate 1 is the least significant bit.  All public
indices (rows, columns, coordinates) are 1-based; the 0-based bit positions
never leak out of this module.  Addition is XOR, the scalar product is the
parity of AND.  Everything here is a pure function on immutable values.

Two eliminations do all the work.  ``Gf2Matrix.rref`` gives the reduced
row echelon form with leftmost pivots; ``nullspace_basis`` reads the null
space off it through ``nullspace_of_reduced``.  ``echelon_basis`` and
``reduce_bits`` eliminate on bare bitmasks, skipping the vector and matrix
objects: ``rank``, ``rank_of_labels``, ``row_space`` and ``solve_in_basis``
are built on them.
"""

from __future__ import annotations

from typing import Iterator, Sequence


class PivotOnZero(Exception):
    """Pivot requested at a position holding 0."""


class NotInSpan(Exception):
    """Target vector is outside the span of the given basis."""


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


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


class Gf2Vector:
    """Fixed-length vector over GF(2), coordinates indexed 1..length."""

    __slots__ = ("bits", "length")

    def __init__(self, bits: int, length: int):
        if length < 0:
            raise ValueError("length must be non-negative")
        if bits < 0 or bits >> length:
            raise ValueError(f"bits 0x{bits:x} do not fit in {length} coordinates")
        self.bits = bits
        self.length = length

    @classmethod
    def from_entries(cls, entries: Sequence[int]) -> "Gf2Vector":
        bits = 0
        for i, e in enumerate(entries):
            if e not in (0, 1):
                raise ValueError("entries must be 0 or 1")
            bits |= e << i
        return cls(bits, len(entries))

    def entry(self, i: int) -> int:
        """Coordinate i, 1-based."""
        if not 1 <= i <= self.length:
            raise IndexError(f"coordinate {i} out of range 1..{self.length}")
        return (self.bits >> (i - 1)) & 1

    def entries(self) -> tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(self.length))

    def support(self) -> frozenset[int]:
        """1-based positions of the nonzero coordinates."""
        return frozenset(i + 1 for i in range(self.length) if (self.bits >> i) & 1)

    def weight(self) -> int:
        return bin(self.bits).count("1")

    def is_zero(self) -> bool:
        return self.bits == 0

    def dot(self, other: "Gf2Vector") -> int:
        if self.length != other.length:
            raise ValueError("length mismatch")
        return _parity(self.bits & other.bits)

    def __xor__(self, other: "Gf2Vector") -> "Gf2Vector":
        if self.length != other.length:
            raise ValueError("length mismatch")
        return Gf2Vector(self.bits ^ other.bits, self.length)

    __add__ = __xor__

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Gf2Vector)
            and self.length == other.length
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.bits, self.length))

    def __repr__(self) -> str:
        return f"Gf2Vector({''.join(str(b) for b in self.entries())})"


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
            packed.append(Gf2Vector.from_entries(row).bits)
        return cls(packed, ncols)

    @classmethod
    def from_columns(cls, columns: Sequence[int], nrows: int) -> "Gf2Matrix":
        """Build from column bitmasks (bit i-1 of a column = entry in row i)."""
        for c in columns:
            if c < 0 or c >> nrows:
                raise ValueError(f"column 0x{c:x} does not fit in {nrows} rows")
        return cls(_transpose(columns, nrows), len(columns))

    @classmethod
    def identity(cls, k: int) -> "Gf2Matrix":
        return cls([1 << i for i in range(k)], k)

    def row(self, i: int) -> Gf2Vector:
        if not 1 <= i <= self.nrows:
            raise IndexError(f"row {i} out of range 1..{self.nrows}")
        return Gf2Vector(self.rows[i - 1], self.ncols)

    def entry(self, i: int, j: int) -> int:
        if not 1 <= i <= self.nrows:
            raise IndexError(f"row {i} out of range 1..{self.nrows}")
        if not 1 <= j <= self.ncols:
            raise IndexError(f"column {j} out of range 1..{self.ncols}")
        return (self.rows[i - 1] >> (j - 1)) & 1

    def column_bits(self, j: int) -> int:
        """Column j as a bitmask over rows (bit i-1 = entry in row i)."""
        if not 1 <= j <= self.ncols:
            raise IndexError(f"column {j} out of range 1..{self.ncols}")
        c = 0
        for i, r in enumerate(self.rows):
            c |= ((r >> (j - 1)) & 1) << i
        return c

    def columns(self) -> tuple[int, ...]:
        """All columns as bitmasks, left to right."""
        return tuple(_transpose(self.rows, self.ncols))

    def entries(self) -> list[list[int]]:
        return [list(self.row(i).entries()) for i in range(1, self.nrows + 1)]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Gf2Matrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.ncols))

    def __repr__(self) -> str:
        body = ";".join("".join(str(b) for b in self.row(i).entries())
                        for i in range(1, self.nrows + 1))
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

    def rank(self) -> int:
        """Dimension of the row space."""
        return rank_of_labels(self.rows)

    def nullspace_basis(self) -> "Gf2Matrix":
        """Basis of the orthogonal complement of the row space.

        Returns an (n - rank) x n matrix; every returned row has zero scalar
        product with every row of self.
        """
        return nullspace_of_reduced(self.rref()[0])

    def row_space(self) -> list[Gf2Vector]:
        """All 2^rank distinct vectors of the row span, zero vector first."""
        span = [0]
        for b in echelon_basis(self.rows):
            span += [b ^ x for x in span]
        return [Gf2Vector(x, self.ncols) for x in span]

    def pivot(self, alpha: int, beta: int) -> "Gf2Matrix":
        """Pivot at entry (alpha, beta), which must be 1.

        Every entry outside row alpha and column beta picks up the product of
        its projections onto them; row alpha and column beta are unchanged.
        The operation is an involution.
        """
        if not 1 <= alpha <= self.nrows or not 1 <= beta <= self.ncols:
            raise IndexError(f"pivot position ({alpha}, {beta}) out of range")
        bbit = 1 << (beta - 1)
        arow = self.rows[alpha - 1]
        if not arow & bbit:
            raise PivotOnZero(f"entry ({alpha}, {beta}) is 0")
        new_rows = []
        for i, r in enumerate(self.rows):
            if i != alpha - 1 and r & bbit:
                # add row alpha everywhere except the pivot column itself
                new_rows.append(r ^ (arow & ~bbit))
            else:
                new_rows.append(r)
        return Gf2Matrix(new_rows, self.ncols)


def solve_in_basis(basis_cols: Gf2Matrix, target: Gf2Vector) -> Gf2Vector:
    """Coefficients c with basis_cols . c = target, for independent columns.

    Raises NotInSpan if the target is outside the column span.  Column j is
    tagged with bit j below its entries, so every vector of the echelon
    basis of the tagged columns records which columns it sums; one with no
    entry bits left is a dependence.  The target, shifted above the tags,
    reduces to its coefficients when it lies in the span.
    """
    m = basis_cols.ncols
    if target.length != basis_cols.nrows:
        raise ValueError("target length must equal the number of rows")
    tagged = [c << m | 1 << j for j, c in enumerate(basis_cols.columns())]
    echelon = echelon_basis(tagged)
    if echelon and echelon[-1] >> m == 0:
        raise ValueError("basis columns are not linearly independent")
    residue = reduce_bits(target.bits << m, echelon)
    if residue >> m:
        raise NotInSpan("target is not in the span of the basis columns")
    return Gf2Vector(residue, m)


def nullspace_of_reduced(reduced: Gf2Matrix) -> Gf2Matrix:
    """``nullspace_basis`` of a matrix already in reduced row echelon form,
    without eliminating again: the pivot of each nonzero row is its lowest
    set bit.  One basis vector per free column, in increasing order; it
    holds that column and every pivot whose row has a 1 there.
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


def gl_column_tuples(k: int) -> Iterator[tuple[int, ...]]:
    """Every invertible k x k matrix, as the tuple of its column bitmasks.

    Intended for brute-force work at small k; the group order grows like
    2^(k^2), so callers should gate on gl_group_order first.
    """
    size = 1 << k

    def extend(cols: tuple[int, ...], span: set[int]) -> Iterator[tuple[int, ...]]:
        if len(cols) == k:
            yield cols
            return
        for v in range(1, size):
            if v not in span:
                yield from extend(cols + (v,), span | {v ^ x for x in span})

    yield from extend((), {0})


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
