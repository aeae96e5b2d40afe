"""Exact linear algebra over GF(2) on bit-packed vectors and matrices.

Vectors and matrix rows are stored as Python ints: bit ``i-1`` holds
coordinate ``i``, so coordinate 1 is the least significant bit.  All public
indices (rows, columns, coordinates) are 1-based; the 0-based bit positions
never leak out of this module.  Addition is XOR, the scalar product is the
parity of AND.  Everything here is a pure function on immutable values.
Hot loops skip the vector and matrix objects: ``echelon_basis`` and
``reduce_bits`` eliminate on bare bitmasks.
"""

from __future__ import annotations

from typing import Iterator, Sequence


class PivotOnZero(Exception):
    """Pivot requested at a position holding 0."""


class NotInSpan(Exception):
    """Target vector is outside the span of the given basis."""


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


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
        rows = [0] * nrows
        for j, c in enumerate(columns):
            if c < 0 or c >> nrows:
                raise ValueError(f"column 0x{c:x} does not fit in {nrows} rows")
            for i in range(nrows):
                if (c >> i) & 1:
                    rows[i] |= 1 << j
        return cls(rows, len(columns))

    @classmethod
    def identity(cls, k: int) -> "Gf2Matrix":
        return cls([1 << i for i in range(k)], k)

    def row(self, i: int) -> Gf2Vector:
        if not 1 <= i <= self.nrows:
            raise IndexError(f"row {i} out of range 1..{self.nrows}")
        return Gf2Vector(self.rows[i - 1], self.ncols)

    def entry(self, i: int, j: int) -> int:
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
        return tuple(self.column_bits(j) for j in range(1, self.ncols + 1))

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
        return len(self.rref()[1])

    def nullspace_basis(self) -> "Gf2Matrix":
        """Basis of the orthogonal complement of the row space.

        Returns an (n - rank) x n matrix; every returned row has zero scalar
        product with every row of self.
        """
        reduced, pivot_cols = self.rref()
        pivset = set(pivot_cols)
        free_cols = [j for j in range(1, self.ncols + 1) if j not in pivset]
        basis = []
        for fc in free_cols:
            v = 1 << (fc - 1)
            # pivot row r handles pivot column pivot_cols[r]; copy its entry at fc
            for r, pc in enumerate(pivot_cols):
                if (reduced.rows[r] >> (fc - 1)) & 1:
                    v |= 1 << (pc - 1)
            basis.append(v)
        return Gf2Matrix(basis, self.ncols)

    def row_space(self) -> list[Gf2Vector]:
        """All 2^rank distinct vectors of the row span, zero vector first."""
        basis = [r for r in self.rref()[0].rows if r]
        span = [0]
        for b in basis:
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

    Raises NotInSpan if the target is outside the column span.
    """
    k, m = basis_cols.nrows, basis_cols.ncols
    if target.length != k:
        raise ValueError("target length must equal the number of rows")
    # eliminate on rows of the augmented system (columns | target); the
    # pivot count r is the rank of the columns
    aug = [(basis_cols.rows[i], (target.bits >> i) & 1) for i in range(k)]
    coeffs = 0
    r = 0
    for j in range(m):
        bit = 1 << j
        p = next((i for i in range(r, k) if aug[i][0] & bit), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        for i in range(k):
            if i != r and aug[i][0] & bit:
                aug[i] = (aug[i][0] ^ aug[r][0], aug[i][1] ^ aug[r][1])
        r += 1
    if r != m:
        raise ValueError("basis columns are not linearly independent")
    for row, rhs in aug:
        if row == 0 and rhs:
            raise NotInSpan("target is not in the span of the basis columns")
    # after full reduction each pivot row is a unit row: coefficient = rhs
    for i in range(r):
        row, rhs = aug[i]
        if rhs:
            coeffs |= row
    return Gf2Vector(coeffs, m)


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
