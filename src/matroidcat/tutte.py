"""Tutte polynomials of binary matroids.

The primary path sums x^i(B) y^e(B) over all bases B, where e(B) counts
non-basis elements that are the maximum of their fundamental circuit and
i(B) counts basis elements that are the maximum of their fundamental
cocircuit.  It walks the bases depth first, pivoting the matroid's reduced
matrix on each element it picks, and counts both activities on the way down.
``fundamental_circuit`` solves for the circuit of one element over one
basis.  A memoized deletion/contraction recursion provides an independent
second opinion; the two must agree coefficient for coefficient.  The
definitions one basis at a time (the bases, the activities and the subset
counts that T(2, 1) and T(1, 2) give) are test references, in
``tests/conftest.py``.
``TuttePolynomial`` holds only the coefficient grid; listings write it in
the ``tutte=`` field of ``CatalogueEntry``.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

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


def _grid_from_counts(
    counts: dict[tuple[int, int], int], k: int, corank: int
) -> TuttePolynomial:
    grid = [[0] * (corank + 1) for _ in range(k + 1)]
    for (i, j), c in counts.items():
        grid[i][j] += c
    return TuttePolynomial(grid)


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
    """Independent evaluator: recurse on the smallest ordinary element.

    An element that is neither a loop nor an isthmus splits the count into
    deletion plus contraction; a minor with only loops and isthmuses
    contributes x^isthmuses y^loops.  Minors are memoized under their
    row-reduced sorted column multiset, which identifies them up to
    relabelling and cannot change the (label-free) result.
    """
    memo: dict[tuple[int, tuple[int, ...]], dict[tuple[int, int], int]] = {}

    def recurse(mat: BinaryMatroid) -> dict[tuple[int, int], int]:
        key = (mat.rank, tuple(sorted(mat.reduced.columns())))
        hit = memo.get(key)
        if hit is not None:
            return hit
        ordinary = None
        isthmuses = 0
        loops = 0
        for e in mat.ground:
            col = mat.column_of(e)
            if col == 0:
                loops += 1
            elif mat.rank_of(set(mat.ground) - {e}) < mat.rank:
                isthmuses += 1
            elif ordinary is None:
                ordinary = e
        if ordinary is None:
            result = {(isthmuses, loops): 1}
        else:
            result: dict[tuple[int, int], int] = {}
            for part in (
                recurse(mat.delete({ordinary})),
                recurse(mat.contract_independent({ordinary})),
            ):
                for pair, c in part.items():
                    result[pair] = result.get(pair, 0) + c
        memo[key] = result
        return result

    return _grid_from_counts(recurse(m), m.rank, m.size - m.rank)
