"""Isomorph-free generation of binary matrix matroids.

A rank-k, size-n matroid is given by its columns, vectors of GF(2)^k named
by integer labels (coordinate j contributes 2^(j-1), so unit vectors get the
powers of two, and label 0 is a loop), and a class is written as its sorted
label tuple.  An invertible matrix acts by permuting labels.  The search
and the fill work on the multiplicity function of a label tuple: how often
each label occurs, indexed by label.  One multiplicity function per orbit,
the lexicographically largest, is the canonical representative; canonical
multiplicity functions correspond to lexicographically *smallest* label
tuples, and come out in increasing label-tuple order.

Generation is Read's orderly scheme: candidates are filled label by label,
in decreasing lexicographic order, and every complete candidate is
kept only when the backtracking canonicity test finds no invertible matrix
whose relabelling is larger.  The fill prunes whole subtrees at the
coordinate subspaces.  On reaching label 2^t (2 <= t < k) it has fixed the
prefix below 2^t, which is a multiplicity function on V_t = <e_1, ..., e_t>,
and it descends only when that restriction is canonical under GL(t).  This
is sound: a matrix g of GL(t) whose relabelling of the restriction is
larger, extended by the identity on e_(t+1), ..., e_k, fixes V_t and
relabels every completion of the prefix into one that is larger on the
labels below 2^t already, so no completion is canonical.  Every candidate
that survives the pruning still gets the full test, so the output is the
same as that of the unpruned scan.

The fill also backjumps on the witness of every rejection, of a complete
candidate or of a restriction (the pruning by certificate of McKay,
"Isomorph-free exhaustive generation", 1998).  The witness's leading
columns c_1, ..., c_s fix the relabelling g on the labels below 2^s, and the
comparison that rejects the candidate reads its values only at x and g(x)
for the labels x up to the first one where the relabelled function is
larger.  Call the largest label read the reach.  Every candidate that
agrees with the rejected one up to the reach is rejected by the same g (a
restriction's reach lies below 2^t, and there the subspace argument above
applies), and in the fill's order these candidates are exactly the rest of
the subtree below that prefix.  So the fill resumes with the next value at
the reach and skips only non-canonical candidates: the output is still
that of the unpruned scan, in the same order.  The search has just made
that comparison, so it returns the reach with the witness's columns, and
generate reports the pair to the fill (see candidate_functions).

Any relabelling that rejects a prefix serves, not only the one a fresh
search would return.  So each tested label (the subspace labels 2^t and the
complete candidate) keeps the last witness found there and first walks it
on the new prefix.  Consecutive prefixes often differ only near their end,
so one relabelling often rejects a whole run of them, and then neither the
search nor the complete candidate's test runs.  A stored witness that
the walk finds larger on the new prefix is a proven rejection of it, with
its own reach, which the walk reads as it goes (the one place the fill
walks a witness), so this too skips only non-canonical candidates, in the
fill's order.

The canonicity test searches the tie tree of partial matrices depth first,
and its first path is the identity, so every other full tie it reaches is
an automorphism.  It uses them as nauty does (McKay 1981; McKay and Piperno
2014).  An automorphism found below a child h of the first-path node
(e_1, ..., e_t) maps the already searched first-path child onto h, so the
search jumps back to that node and tries h's next sibling; and a sibling in
the orbit of an earlier child, under the automorphisms found so far (all
of which fix e_1, ..., e_t), is skipped.  An automorphism maps a subtree
onto a subtree with the same comparisons, so the skipped subtrees hold no
witness, and the test returns exactly what the exhaustive search returns:
None, or the same witness.  At level t the test tries only the labels h
with f(h) >= f(2^t): every other h loses the first comparison of its block,
f(h) against f(2^t), so the search still meets the same first witness.

The same test yields the canonical form of any spanning label tuple, loops
included: the search never reads the multiplicity of label 0, and every
relabelling fixes it.  Relabelling the function f through a witness,
completed to a basis, gives a function of f's orbit that is
lexicographically larger, so testing again and relabelling again climbs
strictly within the orbit.  The orbit is finite, so the climb ends, and it
ends only where the test finds no witness: at the orbit maximum, the
representative that generate emits for f's class.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .gf2 import echelon_basis, rank_of_labels, transform_bits


class InvalidShape(Exception):
    """Rank/size combination out of range."""


class LabelOutOfRange(Exception):
    """Label does not name a vector of GF(2)^k."""


# what the canonicity search returns for a rejection: the leading columns of
# its witness and the reach of the comparison that proves it
_Witness = tuple[tuple[int, ...], int]


def label_vector_of(values: Sequence[int]) -> tuple[int, ...]:
    """Sorted labels of the multiset whose multiplicities are values: each
    label x repeated values[x] times."""
    return tuple(x for x, count in enumerate(values) for _ in range(count))


def _multiplicities(labels: Iterable[int], k: int) -> list[int]:
    """Multiplicities of a label multiset of GF(2)^k, indexed by label;
    LabelOutOfRange for a label outside 0..2^k - 1, InvalidShape for k < 0
    or unless the labels span GF(2)^k."""
    if k < 0:
        raise InvalidShape(f"rank {k} is negative")
    # validated before the 2^k-entry list is allocated
    labels = list(labels)
    for x in labels:
        if not 0 <= x < 1 << k:
            raise LabelOutOfRange(f"label {x} not in 0..{(1 << k) - 1}")
    if rank_of_labels(labels) != k:
        raise InvalidShape(f"labels do not span GF(2)^{k}")
    values = [0] * (1 << k)
    for x in labels:
        values[x] += 1
    return values


# -- canonicity ---------------------------------------------------------------


def _complete_to_basis(cols: Sequence[int], k: int) -> list[int]:
    """cols followed by the least labels outside their span, in increasing
    order, up to a basis: the unit labels 2^j at the bit positions j that
    lead no vector of cols' echelon basis, since no vector of the span has
    its highest bit at such a j, and every label below the first one lies in
    the span."""
    leading = {b.bit_length() - 1 for b in echelon_basis(cols)}
    return list(cols) + [1 << j for j in range(k) if j not in leading]


def _lex_larger_witness_columns(values: Sequence[int], k: int) -> _Witness | None:
    """(columns, reach): the leading columns of an invertible matrix whose
    relabelling of values is lexicographically larger, and the largest label
    the comparison that proves it read; None when values is orbit-maximal.

    The matrix is built one unit-vector image at a time.  Choosing the first
    t images fixes the relabelled function on labels below 2^t, so each new
    image is compared block against block: a larger block is a witness no
    matter how the matrix is completed, a smaller one prunes the whole
    subtree, and only exact ties recurse.  The returned images are therefore
    independent, and every completion of them to a basis is a witness.

    The first path of the depth-first search is the identity.  Its images
    tie by definition, so it is taken without a comparison, and the search
    backs up it: at each level t, from the bottom, it tries the other
    children h of the first-path node (e_1, ..., e_t) in increasing order.
    Below such an h, a full tie is an automorphism a of values whose
    a(e_i) are the images chosen on its path, and an automorphism maps a
    subtree onto a subtree with every comparison unchanged.  Two rules use
    that:

    * jump: a fixes e_1, ..., e_t and maps the searched first-path child
      (e_1, ..., e_(t+1)) onto (e_1, ..., e_t, h), so the rest of h's
      subtree is skipped and the next sibling is tried;
    * orbits: every automorphism found so far lies below (e_1, ..., e_t)
      and so fixes e_1, ..., e_t; a sibling that is not the least label of
      its orbit under them has the verdict and the subtree of a child tried
      before it, and is skipped.

    Neither rule skips a witness, and the children are still tried in the
    same order, so the first witness found, or None, is that of the
    exhaustive search.  Nor does the head filter: level t tries only the
    labels h with values[h] >= values[2^t], since the block of any other h
    is smaller at its first label, values[h ^ 0] against values[2^t].

    A witness is returned where its comparison is decided: h at level t
    is larger at the block position m, after ties on every earlier label.
    That comparison read values at x and at its image for every x up to
    2^t + m, and the largest such label is the reach (_witness_reach walks
    the columns again to the same label): every function that agrees with
    values up to it is rejected by every completion of the columns.

    One list holds the partial matrix: images[x] is the image of label x,
    for the labels below 2^t once t images are chosen.  So the images
    chosen are images[2^i], the span they generate is images[:2^t], and
    choosing h at level t adds images[2^t : 2^(t+1)] to it.  Only labels
    below 2^k of values are read, so values may be longer.
    """
    size = 1 << k
    half = size >> 1
    # the first path down to its last level: e_1, ..., e_(k-1) span the
    # labels below half, and each image is its own label
    in_span = bytearray(size)
    in_span[:half] = b"\x01" * half
    images = list(range(size))
    # orbit[x] leads to the least label of x's orbit under the automorphisms
    # found so far
    orbit = list(range(size))
    # heads[t]: the labels h with values[h] >= values[2^t], in increasing
    # order, built when level t is first reached (the head filter)
    heads: list[list[int] | None] = [None] * k

    def level(t: int) -> list[int]:
        labels = heads[t]
        if labels is None:
            least = values[1 << t]
            labels = heads[t] = [h for h in range(1, size) if values[h] >= least]
        return labels

    def search(t: int, labels: Iterable[int]) -> _Witness | tuple[()] | None:
        # a witness and its reach; () once a full tie (an automorphism) is
        # found; or None
        base = 1 << t
        for h in labels:
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
                # the labels the deciding comparison read: every x and
                # image below base, then base + m and h ^ images[j], j <= m
                # (map, not a generator, so that h stays a fast local)
                reach = max(base + m, *images[:base], *map(h.__xor__, images[: m + 1]))
                return tuple(images[1 << i] for i in range(t)) + (h,), reach
            for m in range(base):
                images[base + m] = h ^ images[m]
            if t + 1 == k:  # an automorphism: merge its orbits, then jump
                for x, y in enumerate(images):
                    while orbit[x] != x:
                        x = orbit[x]
                    while orbit[y] != y:
                        y = orbit[y]
                    orbit[max(x, y)] = min(x, y)
                return ()
            added = images[base : base << 1]
            for a in added:
                in_span[a] = 1
            hit = search(t + 1, level(t + 1))
            if hit is not None:
                return hit
            for a in added:
                in_span[a] = 0
        return None

    # back up the first path, trying the siblings of its identity children
    for t in range(k - 1, -1, -1):
        base = 1 << t
        # one iterator, resumed after each automorphism; the orbits are read
        # lazily, as they grow while the siblings are searched
        siblings = (h for h in level(t) if h > base and orbit[h] == h)
        hit: _Witness | tuple[()] | None = ()
        while hit == ():
            # clear the span that the first path, or the last automorphism,
            # added below this level; every image written at this level or
            # deeper lies outside <e_1, ..., e_t>, so none is below base
            for a in images[base:half]:
                in_span[a] = 0
            hit = search(t, siblings)
        if hit is not None:
            return hit
    return None


def canonical_form(labels: Iterable[int], k: int) -> tuple[int, ...]:
    """The smallest sorted label tuple of the labels' class: their function
    relabelled through the witness of each rejection, completed to a basis,
    until the canonicity test finds none.  So the labels are canonical, the
    representative that generate emits for their class, exactly when
    canonical_form(labels, k) == tuple(sorted(labels)): one search, as
    a canonical input has no witness."""
    values = _multiplicities(labels, k)
    while (hit := _lex_larger_witness_columns(values, k)) is not None:
        g = _complete_to_basis(hit[0], k)
        values = [values[transform_bits(g, x)] for x in range(1 << k)]
    return label_vector_of(values)


# -- candidate iteration and generation --------------------------------------


# The fill tests restrictions through this binding, made at import time, so a
# wrapper later bound to _lex_larger_witness_columns (perfbench/spans.py
# installs one) sees only the tests of complete candidates.
_restriction_witness = _lex_larger_witness_columns


def _witness_reach(values: Sequence[int], cols: Sequence[int]) -> int | None:
    """The largest label on which the rejection of values by the witness
    with leading columns cols depends, or None when those columns prove no
    rejection of values.  The fill calls it only to retry a stored witness
    on a new prefix; the search returns the reach of a fresh witness.

    The columns c_1, ..., c_s fix the relabelling g on the labels below 2^s.
    When the relabelled function is larger at the first label x0 where the
    two differ, that comparison reads values only at x and g(x) for
    x <= x0, so any function that agrees with values on the labels up to
    the returned one, max(x, g(x)) over x <= x0, is rejected by every
    completion of the same columns.  When it is smaller there, or ties on
    every label below 2^s, None is returned.  The walk builds each image
    g(x) = c_(i+1) ^ g(x - 2^i), for 2^i <= x < 2^(i+1), only when it reads it.
    """
    images = [0]
    reach = 0
    for c in cols:
        base = len(images)
        for m in range(base):
            gx = c ^ images[m]
            if gx > reach:
                reach = gx
            got = values[gx]
            want = values[base + m]
            if got != want:
                if got < want:
                    return None
                return base + m if base + m > reach else reach
            images.append(gx)
    return None


def candidate_functions(
    k: int, n: int, matroid_class: str, witness: list[_Witness | None]
) -> Iterator[tuple[int, ...]]:
    """Candidate multiplicity tuples for the orderly scan, largest first.

    matroid_class is "loopless" or "simple" (every multiplicity 0 or 1).
    The candidates satisfy the necessary canonicity conditions (units
    present and dominant), and every canonical tuple of the class is among
    them.  Each candidate still needs the consumer's one full test.

    witness is the one-slot list through which the consumer reports that
    test before it draws the next candidate: witness[0] is the (columns,
    reach) pair of _lex_larger_witness_columns for a rejected candidate,
    None for a kept one.  A consumer that never writes it, [None], reports
    every candidate kept, and the fill then jumps only over rejected
    restrictions.

    The fill skips the subtree below a prefix whose restriction to a
    coordinate subspace, the prefix below 2^t, is not canonical.  Every
    tuple that agrees with a rejected one, a restriction or a reported
    candidate, on the labels up to the reach of its witness is rejected by
    the same relabelling, and in the fill's order these tuples are exactly
    the rest of the subtree below the prefix that ends at the reach, so the
    fill resumes with the next value at the reach.  The fill is one loop
    over an explicit stack, so a jump unwinds any number of labels at once.

    Each tested label, 2^t for 2 <= t < k and the full tuple, keeps the
    columns of the last witness found there.  Before it searches, or
    yields, the fill walks them on the new prefix (_witness_reach, the
    only walk, as a fresh witness comes with its reach): a relabelling that
    rejects it is as good a witness as a fresh one, so the fill jumps on
    its reach, and only otherwise runs the search or yields the tuple.
    Runs of tuples that differ only near their end are often rejected by
    one relabelling, and the stored witness often reaches less far than a
    fresh one, so its jump skips more.

    The fill keeps only the values and the sum left at each label.  The
    cap on a value, the value of the last unit label before it, and the
    number of unit labels still to fill are read off the label itself, and
    the search at 2^t reads the values in place, as it reads only the labels
    below 2^t.
    """
    if matroid_class not in ("loopless", "simple"):
        raise ValueError(f"unknown class {matroid_class!r}")
    top = n if matroid_class == "loopless" else 1
    size = 1 << k
    values = [0] * size
    least = [0] * size  # the least value at each label: 1 at the units
    for i in range(k):
        least[1 << i] = 1
    # the labels whose prefix is tested, and the columns of the last witness
    # found at each
    tested = bytearray(size + 1)
    tested[size] = 1
    for t in range(2, k):
        tested[1 << t] = 1
    kept: list[tuple[int, ...] | None] = [None] * (size + 1)
    # on entering each label: the sum still to place
    left = [n] * (size + 1)
    pos = 1
    while True:
        # the j unit labels below pos are filled; the cap on pos's value is
        # that of the last of them
        j = (pos - 1).bit_length()
        r, c, u = left[pos], values[1 << (j - 1)] if j else top, k - j
        # back is the label whose value is lowered next; pos itself when
        # the fill descends with pos's largest value
        if r < u or r > c * (size - pos):
            back = pos - 1
        else:
            back = pos if pos < size else pos - 1
            if tested[pos]:
                reach = None if kept[pos] is None else _witness_reach(values, kept[pos])
                if reach is None:
                    if pos == size:
                        yield tuple(values)
                        hit = witness[0]
                    else:
                        hit = _restriction_witness(values, j)
                    if hit is not None:
                        kept[pos], reach = hit
                if reach is not None:
                    back = reach
            if back == pos:
                # the largest value that leaves 1 for every later unit label
                values[pos] = min(c, r - u + least[pos])
        if back < pos:
            while back and values[back] == least[back]:
                back -= 1
            if not back:
                return
            values[back] -= 1
            pos = back
        left[pos + 1] = left[pos] - values[pos]
        pos += 1


def generate(
    k: int, n: int, matroid_class: str = "loopless"
) -> Iterator[tuple[int, ...]]:
    """One sorted label tuple per isomorphism class, in increasing
    lexicographic order; each is the smallest label tuple of its class.  The
    test of each candidate goes back to the fill through candidate_functions'
    witness slot, so the fill backjumps on every rejection.
    """
    if not 1 <= k <= n:
        raise InvalidShape(f"need 1 <= rank <= size, got rank {k}, size {n}")
    witness: list[_Witness | None] = [None]
    for values in candidate_functions(k, n, matroid_class, witness):
        witness[0] = _lex_larger_witness_columns(values, k)
        if witness[0] is None:
            yield label_vector_of(values)
