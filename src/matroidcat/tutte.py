"""Tutte polynomials of binary matroids.

The primary path sums x^i(B) y^e(B) over all bases B, where e(B) counts
non-basis elements that are the maximum of their fundamental circuit and
i(B) counts basis elements that are the maximum of their fundamental
cocircuit (computed as external activity of the complementary basis in the
dual).  A memoized deletion/contraction recursion provides an independent
second opinion; the two must agree coefficient for coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .gf2 import Gf2Matrix, Gf2Vector, NotInSpan, reduce_bits, solve_in_basis
from .matroid import BinaryMatroid


@dataclass(frozen=True)
class TuttePolynomial:
    """Coefficient grid: grid[i][j] is the coefficient of x^i y^j."""

    grid: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.grid or any(len(row) != len(self.grid[0]) for row in self.grid):
            raise ValueError("grid must be rectangular and non-empty")
        if any(c < 0 for row in self.grid for c in row):
            raise ValueError("coefficients count bases; they cannot be negative")

    @property
    def max_x(self) -> int:
        return len(self.grid) - 1

    @property
    def max_y(self) -> int:
        return len(self.grid[0]) - 1

    def coefficient(self, i: int, j: int) -> int:
        return self.grid[i][j]

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
        return TuttePolynomial(tuple(zip(*self.grid)))

    def to_block(self) -> str:
        """Serialized grid: header "k n", then k+1 lines of n-k+1 integers.

        Here k is the matroid rank (x-degree bound) and n its size, so the
        line length is n-k+1.
        """
        k = self.max_x
        n = self.max_x + self.max_y
        lines = [f"{k} {n}"]
        for row in self.grid:
            lines.append(" ".join(str(c) for c in row))
        return "\n".join(lines)

    @classmethod
    def from_block(cls, text: str) -> "TuttePolynomial":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        k, n = (int(tok) for tok in lines[0].split())
        rows = [tuple(int(tok) for tok in ln.split()) for ln in lines[1:]]
        if len(rows) != k + 1 or any(len(r) != n - k + 1 for r in rows):
            raise ValueError("block shape disagrees with its header")
        return cls(tuple(rows))


def _grid_from_counts(
    counts: dict[tuple[int, int], int], k: int, corank: int
) -> TuttePolynomial:
    grid = [[0] * (corank + 1) for _ in range(k + 1)]
    for (i, j), c in counts.items():
        grid[i][j] += c
    return TuttePolynomial(tuple(tuple(row) for row in grid))


def bases(m: BinaryMatroid) -> list[frozenset[int]]:
    """All bases, in lexicographic order of their sorted element lists."""
    return [
        frozenset(s)
        for s in combinations(m.ground, m.rank)
        if m.rank_of(s) == m.rank
    ]


def fundamental_circuit(
    m: BinaryMatroid, basis: frozenset[int], x: int
) -> frozenset[int]:
    """The unique circuit inside basis + {x}; contains x."""
    ordered = sorted(basis)
    basis_cols = Gf2Matrix.from_columns([m.column_of(e) for e in ordered], m.rank)
    coeffs = solve_in_basis(basis_cols, Gf2Vector(m.column_of(x), m.rank))
    return frozenset({x} | {ordered[i - 1] for i in coeffs.support()})


def external_activity(m: BinaryMatroid, basis: frozenset[int]) -> int:
    """Count non-basis elements that top their fundamental circuit.

    That circuit is x plus the unique representation of x in the basis, so x
    tops it exactly when its column lies in the span of the basis elements
    below x.  One pass in label order reduces each column against the basis
    elements already passed.  Raises ValueError if the set is dependent and
    NotInSpan if it is independent but does not span.
    """
    echelon: list[int] = []
    count = 0
    for x in m.ground:
        residue = reduce_bits(m.column_of(x), echelon)
        if x in basis:
            if not residue:
                raise ValueError(f"{sorted(basis)} is dependent")
            echelon.append(residue)
            echelon.sort(reverse=True)
        elif not residue:
            count += 1
    if len(echelon) != m.rank:
        raise NotInSpan(f"{sorted(basis)} does not span")
    return count


def internal_activity(m: BinaryMatroid, basis: frozenset[int]) -> int:
    """Count basis elements that top their fundamental cocircuit.

    Computed as the external activity of the complementary basis in the dual
    matroid.
    """
    return external_activity(m.dual(), frozenset(m.ground) - basis)


def tutte_by_activities(m: BinaryMatroid) -> TuttePolynomial:
    """Sum x^internal y^external over all bases."""
    dual = m.dual()
    whole = frozenset(m.ground)
    counts: dict[tuple[int, int], int] = {}
    for b in bases(m):
        pair = (external_activity(dual, whole - b), external_activity(m, b))
        counts[pair] = counts.get(pair, 0) + 1
    return _grid_from_counts(counts, m.rank, m.size - m.rank)


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
        reduced, _ = mat.matrix.rref()
        key = (mat.rank, tuple(sorted(reduced.columns())))
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


def count_independent_sets(m: BinaryMatroid) -> int:
    """Direct subset enumeration; cross-checks evaluate(T, 2, 1)."""
    cols = [m.column_of(e) for e in m.ground]
    count = 0

    def walk(idx: int, pivots: list[int]) -> None:
        nonlocal count
        count += 1
        for nxt in range(idx, len(cols)):
            c = cols[nxt]
            for b in pivots:
                c = min(c, c ^ b)
            if c:
                pivots.append(c)
                pivots.sort(reverse=True)
                walk(nxt + 1, pivots)
                pivots.remove(c)

    walk(0, [])
    return count


def count_spanning_sets(m: BinaryMatroid) -> int:
    """Direct subset enumeration; cross-checks evaluate(T, 1, 2)."""
    n = m.size
    count = 0
    for mask in range(1 << n):
        subset = [m.ground[i] for i in range(n) if (mask >> i) & 1]
        if m.rank_of(subset) == m.rank:
            count += 1
    return count
