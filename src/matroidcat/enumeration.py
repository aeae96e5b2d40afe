"""Isomorph-free generation of binary matrix matroids.

A rank-k, size-n matroid is encoded as a multiplicity function: how often
each nonzero vector of GF(2)^k occurs as a column.  Vectors are named by
integer labels (coordinate j contributes 2^(j-1), so unit vectors get the
powers of two) and an invertible matrix acts by permuting labels.  One
multiplicity function per orbit, the lexicographically largest, is the
canonical representative; candidates are walked in decreasing lexicographic
order and filtered by a backtracking canonicity test, which is Read's
orderly-generation scheme.  Canonical multiplicity functions correspond to
lexicographically *smallest* label vectors, and come out in increasing
label-vector order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

from .gf2 import Gf2Matrix, Gf2Vector, rank_of_labels, transform_bits


class EnumerationError(Exception):
    pass


class InvalidShape(EnumerationError):
    """Rank/size combination out of range."""


class LabelOutOfRange(EnumerationError):
    """Label does not name a vector of GF(2)^k."""


class SingularMatrix(EnumerationError):
    """A label transform needs an invertible matrix."""


def label_of_vector(v: Gf2Vector) -> int:
    """Integer label of a vector: coordinate j weighs 2^(j-1)."""
    return v.bits


def vector_of_label(label: int, k: int) -> Gf2Vector:
    """Vector of GF(2)^k named by the label; inverse of label_of_vector."""
    if not 0 <= label < (1 << k):
        raise LabelOutOfRange(f"label {label} not in 0..{(1 << k) - 1}")
    return Gf2Vector(label, k)


def transform_label(g: Gf2Matrix, label: int) -> int:
    """Label of g applied to the vector named by label.

    For invertible g this is a permutation of {0, ..., 2^k - 1} fixing 0.
    """
    k = g.nrows
    if g.ncols != k or g.rank() != k:
        raise SingularMatrix("transform matrix must be square and invertible")
    if not 0 <= label < (1 << k):
        raise LabelOutOfRange(f"label {label} not in 0..{(1 << k) - 1}")
    return transform_bits(g.columns(), label)


@dataclass(frozen=True)
class MultiplicityFunction:
    """Column multiplicities of a loopless spanning multiset, indexed by label."""

    values: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        if len(self.values) != 1 << self.k:
            raise InvalidShape(f"need 2^{self.k} entries, got {len(self.values)}")
        if any(v < 0 for v in self.values):
            raise InvalidShape("multiplicities must be non-negative")
        if self.values[0] != 0:
            raise InvalidShape("label 0 is a loop; its multiplicity must be 0")
        support = [lbl for lbl, v in enumerate(self.values) if v]
        if rank_of_labels(support) != self.k:
            raise InvalidShape("columns do not span GF(2)^k")

    @property
    def n(self) -> int:
        return sum(self.values)


@dataclass(frozen=True)
class LabelVector:
    """Sorted column labels of a matroid; the catalogue's external format."""

    labels: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        top = (1 << self.k) - 1
        if any(not 1 <= r <= top for r in self.labels):
            raise LabelOutOfRange(f"labels must lie in 1..{top}")
        if any(a > b for a, b in zip(self.labels, self.labels[1:])):
            raise InvalidShape("labels must be non-decreasing")

    @property
    def n(self) -> int:
        return len(self.labels)


def label_vector_of(f: MultiplicityFunction) -> LabelVector:
    labels: list[int] = []
    for lbl, count in enumerate(f.values):
        labels.extend([lbl] * count)
    return LabelVector(tuple(labels), f.k)


def multiplicity_of(r: LabelVector) -> MultiplicityFunction:
    values = [0] * (1 << r.k)
    for lbl in r.labels:
        values[lbl] += 1
    return MultiplicityFunction(tuple(values), r.k)


# -- canonicity ---------------------------------------------------------------


def _satisfies_necessary_conditions(values: Sequence[int], k: int) -> bool:
    # every unit label present, and no later label outweighs a unit label
    size = 1 << k
    for j in range(k):
        unit = 1 << j
        if values[unit] == 0:
            return False
        cap = values[unit]
        if any(values[r] > cap for r in range(unit + 1, size)):
            return False
    return True


def _complete_to_basis(cols: Sequence[int], k: int) -> list[int]:
    span = {0}
    for c in cols:
        span |= {c ^ x for x in span}
    out = list(cols)
    v = 1
    while len(out) < k:
        if v not in span:
            out.append(v)
            span |= {v ^ x for x in span}
        v += 1
    return out


def _lex_larger_witness_columns(
    values: Sequence[int], k: int
) -> tuple[int, ...] | None:
    """Leading columns of an invertible matrix whose relabelling of values is
    lexicographically larger, or None when values is orbit-maximal.

    The matrix is built one unit-vector image at a time.  Choosing the first
    t images fixes the relabelled function on labels below 2^t, so each new
    image is compared block against block: a larger block is a witness no
    matter how the matrix is completed, a smaller one prunes the whole
    subtree, and only exact ties recurse.  The returned images are therefore
    independent, and every completion of them to a basis is a witness.
    """
    size = 1 << k
    in_span = bytearray(size)
    in_span[0] = 1
    span_list = [0]
    images = [0] * size
    chosen: list[int] = []

    def search(t: int) -> tuple[int, ...] | None:
        base = 1 << t
        for h in range(1, size):
            if in_span[h]:
                continue
            verdict = 0
            for m in range(base):
                got = values[h ^ images[m]]
                want = values[base + m]
                if got != want:
                    verdict = 1 if got > want else -1
                    break
            if verdict < 0:
                continue
            if verdict > 0:
                return tuple(chosen + [h])
            if t + 1 == k:
                continue  # full tie is an automorphism, not a witness
            for m in range(base):
                images[base + m] = h ^ images[m]
            added = [h ^ x for x in span_list]
            for a in added:
                in_span[a] = 1
            span_list.extend(added)
            chosen.append(h)
            hit = search(t + 1)
            if hit is not None:
                return hit
            chosen.pop()
            del span_list[base:]
            for a in added:
                in_span[a] = 0
        return None

    return search(0)


def lex_larger_witness(f: MultiplicityFunction) -> Gf2Matrix | None:
    """An invertible matrix w such that relabelling f through w, i.e. the
    function label -> f(label of w applied to that label's vector), is
    lexicographically larger than f.  None when no such matrix exists.
    """
    cols = _lex_larger_witness_columns(f.values, f.k)
    if cols is None:
        return None
    return Gf2Matrix.from_columns(_complete_to_basis(cols, f.k), f.k)


def is_canonical(f: MultiplicityFunction) -> bool:
    """True when f is the lexicographically largest function in its orbit."""
    if not _satisfies_necessary_conditions(f.values, f.k):
        return False
    return _lex_larger_witness_columns(f.values, f.k) is None


# -- candidate iteration and generation --------------------------------------


def _loopless_candidates(k: int, n: int) -> Iterator[tuple[int, ...]]:
    """All multiplicity tuples meeting the necessary conditions, largest first."""
    size = 1 << k
    unit_set = {1 << j for j in range(k)}
    values = [0] * size

    def fill(pos: int, remaining: int, cap: int, units_left: int) -> Iterator[tuple[int, ...]]:
        if pos == size:
            if remaining == 0:
                yield tuple(values)
            return
        if remaining < units_left or remaining > cap * (size - pos):
            return
        if pos in unit_set:
            hi = min(cap, remaining - (units_left - 1))
            for v in range(hi, 0, -1):
                values[pos] = v
                yield from fill(pos + 1, remaining - v, v, units_left - 1)
        else:
            hi = min(cap, remaining - units_left)
            for v in range(hi, -1, -1):
                values[pos] = v
                yield from fill(pos + 1, remaining - v, cap, units_left)
        values[pos] = 0

    return fill(1, n, n, k)


def _simple_candidates(k: int, n: int) -> Iterator[tuple[int, ...]]:
    """Multiplicity tuples with all values 0 or 1, largest first.

    With the unit labels pinned to 1, picking the remaining labels in
    ascending combination order is exactly decreasing lexicographic order of
    the tuples.
    """
    size = 1 << k
    units = [1 << j for j in range(k)]
    others = [v for v in range(1, size) if v not in set(units)]
    if not k <= n <= size - 1:
        return
    for extra in combinations(others, n - k):
        values = [0] * size
        for u in units:
            values[u] = 1
        for e in extra:
            values[e] = 1
        yield tuple(values)


def candidate_functions(k: int, n: int, matroid_class: str) -> Iterator[tuple[int, ...]]:
    """Candidate multiplicity tuples for the orderly scan, largest first.

    matroid_class is "loopless" or "simple"; the candidates already satisfy
    the necessary canonicity conditions (units present and dominant).
    """
    if matroid_class == "loopless":
        return _loopless_candidates(k, n)
    if matroid_class == "simple":
        return _simple_candidates(k, n)
    raise ValueError(f"unknown class {matroid_class!r}")


def generate(k: int, n: int, matroid_class: str = "loopless") -> Iterator[LabelVector]:
    """One label vector per isomorphism class, in increasing lexicographic
    order; each is the smallest label vector of its class.
    """
    if not 1 <= k <= n:
        raise InvalidShape(f"need 1 <= rank <= size, got rank {k}, size {n}")
    for values in candidate_functions(k, n, matroid_class):
        if _lex_larger_witness_columns(values, k) is None:
            yield label_vector_of(MultiplicityFunction(values, k))
