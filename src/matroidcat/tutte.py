"""Tutte polynomials of binary matroids.

The primary path sums x^i(B) y^e(B) over all bases B, where e(B) counts
non-basis elements that are the maximum of their fundamental circuit and
i(B) counts basis elements that are the maximum of their fundamental
cocircuit.  It walks the bases depth first, pivoting the matroid's reduced
matrix on each element it picks, and counts both activities on the way down.
``fundamental_circuit`` solves for the circuit of one element over one
basis.  A memoized deletion/contraction recursion provides an independent
second opinion; the two must agree coefficient for coefficient.  It
recurses on bare GF(2) rows, starting from m's columns rather than its
reduced matrix, and builds no matroid for its minors.  The
definitions one basis at a time (the bases, the activities and the subset
counts that T(2, 1) and T(1, 2) give) are test references, in
``tests/conftest.py``.
``TuttePolynomial`` holds only the coefficient grid; listings write it in
the ``tutte=`` field of ``CatalogueEntry``.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .gf2 import Gf2Matrix, NotInSpan, echelon_basis, solve_in_basis
from .matroid import BinaryMatroid


# a NamedTuple class body may not define __new__, so the checks live in a
# subclass of the functional form
class TuttePolynomial(NamedTuple("TuttePolynomial", [("grid", tuple)])):
    """Coefficient grid: grid[i][j] is the coefficient of x^i y^j."""

    __slots__ = ()

    def __new__(cls, grid: Iterable[Iterable[int]]) -> "TuttePolynomial":
        grid = tuple(tuple(row) for row in grid)
        if not grid or not grid[0] or any(len(row) != len(grid[0]) for row in grid):
            raise ValueError("grid must be rectangular and non-empty")
        if any(c < 0 for row in grid for c in row):
            raise ValueError("coefficients count bases; they cannot be negative")
        return super().__new__(cls, grid)

    # _replace builds its result through _make, so both run the checks above
    @classmethod
    def _make(cls, iterable) -> "TuttePolynomial":
        return cls(*iterable)

    @property
    def max_x(self) -> int:
        return len(self.grid) - 1

    @property
    def max_y(self) -> int:
        return len(self.grid[0]) - 1

    def total(self) -> int:
        """Sum of all coefficients; equals the number of bases."""
        return sum(sum(row) for row in self.grid)

    def evaluate(self, x: int, y: int) -> int:
        acc = 0
        for i, row in enumerate(self.grid):
            for j, c in enumerate(row):
                if c:
                    acc += c * x**i * y**j
        return acc

    def transpose(self) -> "TuttePolynomial":
        return TuttePolynomial(zip(*self.grid))


def _check_basis(m: BinaryMatroid, basis: frozenset[int]) -> None:
    """ValueError unless basis lies inside the ground set and is independent,
    NotInSpan unless it spans."""
    rank = m.rank_of(basis)
    if rank < len(basis):
        raise ValueError(f"{sorted(basis)} is dependent")
    if rank < m.rank:
        raise NotInSpan(f"{sorted(basis)} does not span")


def fundamental_circuit(
    m: BinaryMatroid, basis: frozenset[int], x: int
) -> frozenset[int]:
    """The unique circuit inside basis + {x}; contains x.  Raises ValueError
    unless x is an element outside the basis or if the basis is dependent or
    not inside the ground set, and NotInSpan if it is independent but does
    not span."""
    _check_basis(m, basis)
    if x in basis or x not in m.ground:
        raise ValueError(f"{x} must lie inside the ground set, outside the basis")
    ordered = sorted(basis)
    basis_cols = Gf2Matrix.from_columns([m.column_of(e) for e in ordered], m.rank)
    coeffs = solve_in_basis(basis_cols, m.column_of(x))
    return frozenset({x} | {e for i, e in enumerate(ordered) if coeffs >> i & 1})


def tutte_by_activities(m: BinaryMatroid) -> TuttePolynomial:
    """Sum x^internal y^external over all bases, in one walk over them.

    The walk picks basis elements in label order, so it meets the bases in
    lexicographic order of their sorted element lists, starting from m's
    reduced matrix.  The rows not yet pivoted stay reduced on the picks so
    far, so an element is independent of them iff some of those free rows
    has its bit, and picking it XORs one free row into the others that have
    the bit.  An element passed over while it depends on
    the picks tops its fundamental circuit, so it is externally active; so
    is every element after the last pick.  Passing over an independent
    element is allowed while the picks and the later elements still span,
    which holds below the lowest leading bit of the free rows in echelon
    form.  An element b is internally active exactly when no later element
    can replace it, that is when the earlier picks and the elements after b
    do not span: exactly when the walk picks b at that lowest leading bit.
    """
    k, n = m.rank, m.size
    grid = [[0] * (n - k + 1) for _ in range(k + 1)]

    def walk(c: int, free: list[int], ext: int, internal: int) -> None:
        if len(free) == 1:
            # each bit of the last free row completes one basis
            v = free[0]
            top = v.bit_length() - 1
            row = grid[internal]
            while c < top:
                if v >> c & 1:
                    row[ext + n - 1 - c] += 1
                else:
                    ext += 1
                c += 1
            grid[internal + 1][ext + n - 1 - top] += 1
            return
        last = echelon_basis(free)[-1].bit_length() - 1
        span = 0
        for r in free:
            span |= r
        while c <= last:
            bit = 1 << c
            if span & bit:
                i = 0
                while not free[i] & bit:
                    i += 1
                p = free[i]
                rest = [r ^ p if r & bit else r for r in free[:i] + free[i + 1 :]]
                walk(c + 1, rest, ext, internal + (c == last))
            else:
                ext += 1
            c += 1

    if k:
        walk(0, list(m.reduced.rows), 0, 0)
    else:
        grid[0][n] = 1
    return TuttePolynomial(grid)


def tutte_by_deletion_contraction(m: BinaryMatroid) -> TuttePolynomial:
    """Independent evaluator: recurse on bare GF(2) rows, splitting on the
    lowest column that is neither a loop nor a coloop.

    A minor is its independent rows over its remaining columns.  The first
    is built from the columns m was built from, not from m's reduced matrix,
    which the activities walk reads.  In a minor's reduced rows a loop is a
    column that no row holds and a coloop one that some row holds alone.
    Deletion drops the splitting column's bit from every row; contraction
    first clears it from the other rows with one row that holds it, then
    drops that row and the bit.  A minor with only loops and coloops
    contributes x^coloops y^loops.  Minors are memoized under their rank and
    sorted reduced columns, which identify them up to relabelling and cannot
    change the (label-free) result.
    """
    memo: dict[tuple[int, tuple[int, ...]], dict[tuple[int, int], int]] = {}

    def recurse(rows: Sequence[int], n: int) -> dict[tuple[int, int], int]:
        reduced = Gf2Matrix(rows, n).rref()
        columns = reduced.columns()
        key = (reduced.nrows, tuple(sorted(columns)))
        hit = memo.get(key)
        if hit is not None:
            return hit
        rows = reduced.rows
        coloops = {r for r in rows if not r & (r - 1)}
        ordinary = [j for j, c in enumerate(columns) if c and 1 << j not in coloops]
        if not ordinary:
            result = {(len(coloops), columns.count(0)): 1}
        else:
            bit = 1 << ordinary[0]
            low = bit - 1

            def drop(r: int) -> int:
                return r & low | r >> 1 & ~low

            p = next(r for r in rows if r & bit)
            cleared = [r ^ p if r & bit else r for r in rows if r != p]
            result = dict(recurse([drop(r) for r in rows], n - 1))
            for pair, c in recurse([drop(r) for r in cleared], n - 1).items():
                result[pair] = result.get(pair, 0) + c
        memo[key] = result
        return result

    start = Gf2Matrix.from_columns([m.column_of(e) for e in m.ground], m.rank)
    grid = [[0] * (m.size - m.rank + 1) for _ in range(m.rank + 1)]
    for (i, j), c in recurse(start.rows, m.size).items():
        grid[i][j] += c
    return TuttePolynomial(grid)
