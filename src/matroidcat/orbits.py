"""Class counts by Burnside's lemma over the cycle index of GL(k, 2).

The classes of a (rank, size) cell are the GL(k, 2)-orbits of the spanning
n-element multisets (loopless) or sets (simple) of nonzero vectors of
GF(2)^k.  Burnside's lemma counts the orbits of all multisets or sets, N_k(n),
from the cycle type of each group element on the 2^k - 1 nonzero vectors,
and the cycle type is a class function.  The conjugacy classes are listed
by their rational canonical forms (Kung, "The cycle structure of a linear
transformation over a finite field", 1981; Fripertinger, "Cycle indices of
linear, affine and projective groups", 1997), each with its size from
Macdonald's centralizer order.

An orbit whose span has dimension r is a GL(r, 2) class of rank r, so the
rank-k classes number N_k(n) - N_{k-1}(n).  Connected classes come from the
inverse two-variable Euler transform: a loopless or simple binary matroid is
a unique multiset of connected components, each loopless or simple in
turn, whose ranks and sizes add up.
"""

from __future__ import annotations

from collections import Counter
from math import comb
from typing import Iterator

from .gf2 import gl_group_order, transform_bits

# One partition per monic irreducible f != x: ((f, partition), ...), with f
# a bitmask whose bit i is the coefficient of x^i.
RationalForm = tuple[tuple[int, tuple[int, ...]], ...]


def _degree(f: int) -> int:
    return f.bit_length() - 1


def _poly_mod(a: int, b: int) -> int:
    db = _degree(b)
    while _degree(a) >= db:
        a ^= b << (_degree(a) - db)
    return a


def _poly_mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _irreducibles(max_degree: int) -> list[int]:
    """Monic irreducible polynomials over GF(2) of degree 1..max_degree,
    except x, in increasing order."""
    found: list[int] = []
    for d in range(1, max_degree + 1):
        for f in range((1 << d) | 1, 1 << (d + 1), 2):
            if all(_poly_mod(f, g) for g in found if 2 * _degree(g) <= d):
                found.append(f)
    return found


def _partitions(s: int, largest: int) -> Iterator[tuple[int, ...]]:
    """Partitions of s into parts of at most largest, parts non-increasing."""
    if s == 0:
        yield ()
        return
    for part in range(min(s, largest), 0, -1):
        for rest in _partitions(s - part, part):
            yield (part,) + rest


def _rational_forms(k: int) -> Iterator[RationalForm]:
    """The rational canonical forms of GL(k, 2): one per conjugacy class.

    Each irreducible f of degree d gets a partition whose parts are the
    exponents of its elementary divisors f^part; the degrees add up to k.
    """

    def forms(polys: list[int], k: int) -> Iterator[RationalForm]:
        if k == 0:
            yield ()
            return
        if not polys:
            return
        f, rest = polys[0], polys[1:]
        yield from forms(rest, k)
        d = _degree(f)
        for s in range(1, k // d + 1):
            for lam in _partitions(s, s):
                for tail in forms(rest, k - d * s):
                    yield ((f, lam),) + tail

    yield from forms(_irreducibles(k), k)


def _representative(form: RationalForm) -> tuple[int, ...]:
    """Columns of the block-diagonal matrix of companion blocks of f^part."""
    columns: list[int] = []
    for f, lam in form:
        for part in lam:
            g = 1
            for _ in range(part):
                g = _poly_mul(g, f)
            offset, m = len(columns), _degree(g)
            # the companion matrix of g multiplies by x modulo g
            columns += [1 << (offset + i + 1) for i in range(m - 1)]
            columns.append((g ^ (1 << m)) << offset)
    return tuple(columns)


def _centralizer_order(form: RationalForm) -> int:
    """Macdonald's order of the centralizer: the product over f, with
    Q = 2^deg f, of Q^(sum of squared conjugate parts) times
    phi_m(1/Q) for each part multiplicity m, phi_m(t) = (1-t)...(1-t^m)."""
    order = 1
    for f, lam in form:
        q = 1 << _degree(f)
        exponent = sum(
            sum(1 for part in lam if part > i) ** 2 for i in range(lam[0])
        )
        for m in Counter(lam).values():
            exponent -= m * (m + 1) // 2
            for j in range(1, m + 1):
                order *= q**j - 1
        order *= q**exponent
    return order


def _cycle_type(columns: tuple[int, ...]) -> Counter[int]:
    """Cycle lengths of the matrix acting on the nonzero vectors."""
    lengths: Counter[int] = Counter()
    seen = set()
    for v in range(1, 1 << len(columns)):
        if v in seen:
            continue
        length, w = 0, v
        while w not in seen:
            seen.add(w)
            length += 1
            w = transform_bits(columns, w)
        lengths[length] += 1
    return lengths


def cycle_index(k: int) -> list[tuple[int, Counter[int]]]:
    """(class size, cycle type on the nonzero vectors) per conjugacy class
    of GL(k, 2); raises ArithmeticError if the sizes miss the group order."""
    group = gl_group_order(k)
    classes = [
        (group // _centralizer_order(form), _cycle_type(_representative(form)))
        for form in _rational_forms(k)
    ]
    if sum(size for size, _ in classes) != group:
        raise ArithmeticError(f"class sizes of GL({k}, 2) do not sum to {group}")
    return classes


def orbit_counts(k: int, max_n: int, simple: bool) -> list[int]:
    """N_k(n) for n = 0..max_n: the GL(k, 2)-orbits of n-element multisets
    (sets, when simple) of nonzero vectors of GF(2)^k, spanning or not."""
    totals = [0] * (max_n + 1)
    for size, cycles in cycle_index(k):
        # fixed multisets: prod 1/(1 - x^len); fixed sets: prod (1 + x^len)
        series = [1] + [0] * max_n
        for length, count in cycles.items():
            for _ in range(count):
                if simple:
                    for n in range(max_n, length - 1, -1):
                        series[n] += series[n - length]
                else:
                    for n in range(length, max_n + 1):
                        series[n] += series[n - length]
        for n in range(max_n + 1):
            totals[n] += size * series[n]
    group = gl_group_order(k)
    if any(t % group for t in totals):
        raise ArithmeticError(f"a Burnside sum of GL({k}, 2) is not divisible by {group}")
    return [t // group for t in totals]


def class_counts(
    max_k: int, max_n: int, simple: bool, connected: bool
) -> dict[tuple[int, int], int]:
    """Classes of every cell 1 <= k <= max_k, k <= n <= max_n, of the
    loopless or simple binary matroids, connected ones only if asked."""
    top = min(max_k, max_n)
    plain = [orbit_counts(k, max_n, simple) for k in range(top + 1)]
    # row 0 is the empty matroid alone
    spanning = plain[:1] + [
        [a - b for a, b in zip(plain[k], plain[k - 1])] for k in range(1, top + 1)
    ]
    if connected:
        spanning = _connected(spanning)
    return {
        (k, n): spanning[k][n]
        for k in range(1, top + 1)
        for n in range(k, max_n + 1)
    }


def _connected(table: list[list[int]]) -> list[list[int]]:
    """Inverse Euler transform in two variables: the connected counts C with
    sum_{k,n} table[k][n] x^k y^n = prod_{k,n} (1 - x^k y^n)^(-C[k][n]).

    A component has size at least 1, so a size-n class made of two or more
    components uses only components of size below n: C[k][n] is table[k][n]
    less the [x^k y^n] coefficient of the product over those.
    """
    top, max_n = len(table) - 1, len(table[0]) - 1
    connected = [[0] * (max_n + 1) for _ in range(top + 1)]
    product = [[0] * (max_n + 1) for _ in range(top + 1)]
    product[0][0] = 1
    for b in range(1, max_n + 1):
        for a in range(1, top + 1):
            connected[a][b] = table[a][b] - product[a][b]
        for a in range(1, top + 1):
            c = connected[a][b]
            if not c:
                continue
            # multiply by (1 - x^a y^b)^(-c) = sum_j C(c + j - 1, j) x^(ja) y^(jb)
            product = [
                [
                    sum(
                        comb(c + j - 1, j) * product[k - j * a][n - j * b]
                        for j in range(min(k // a, n // b) + 1)
                    )
                    for n in range(max_n + 1)
                ]
                for k in range(top + 1)
            ]
    return connected
