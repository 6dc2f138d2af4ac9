"""Exact linear algebra over the coefficient fields.

The local layer works on integers over both fields: ints in [0, p) over
Fp, integer matrices with cleared denominators over QQ.  ``rref``, and
with it ``rank`` and ``kernel_basis``, eliminates sparse integer rows of
(column, entry) pairs on their nonzero entries, fraction-free with
primitive rows over QQ and with normalised pivots mod p; ``mat_vec``
applies them.  Pivoting always takes a row's first nonzero entry, the
only sound choice for exact arithmetic, so every rank or kernel decision
is exact.  ``IntegerImage`` is the local layer's one operator type: an
integer matrix A by its sparse columns, with its sparse rows derived once
by ``transposed``.  ``krylov_dependence``, a minimal polynomial mod p,
packs each integer vector and A's columns into one int each and keeps the
space it found the polynomial on.  ``mat_mul``, ``mat_pow`` and
``minimal_polynomial`` act on dense matrices of field elements
(``Fraction``, or int in [0, p)) through the field's ``reduce`` and ``inv``.
"""

from __future__ import annotations

import math
import struct
from itertools import accumulate, repeat


def identity(n: int, field) -> list[list]:
    z, o = field.zero(), field.one()
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def mat_mul(a: list[list], b: list[list], field) -> list[list]:
    n, k = len(a), len(b)
    m = len(b[0]) if k else 0
    zero, reduce = field.zero(), field.reduce
    bt = [[b[i][j] for i in range(k)] for j in range(m)]
    out = []
    for row in a:
        out_row = []
        for col in bt:
            acc = zero
            for x, y in zip(row, col):
                if x and y:
                    acc = acc + x * y
            out_row.append(reduce(acc))
        out.append(out_row)
    return out


def mat_pow(a: list[list], k: int, field) -> list[list]:
    n = len(a)
    result = identity(n, field)
    base = a
    while k > 0:
        if k & 1:
            result = mat_mul(result, base, field)
        k >>= 1
        if k:
            base = mat_mul(base, base, field)
    return result


def _normalised(row: list, p: int) -> list:
    """A row reduced mod p, or over QQ (p = 0) divided by its content."""
    if p:
        return [v % p for v in row]
    content = math.gcd(*row)
    return [v // content for v in row] if content > 1 else row


def transposed(rows: list[list], width: int) -> list[list]:
    """The sparse transpose of sparse rows, (column, entry) pairs, with
    ``width`` columns: its row j holds (i, entry) for each entry of column
    j, in ascending i whatever the order of the pairs inside a row."""
    out = [[] for _ in range(width)]
    for i, row in enumerate(rows):
        for j, a in row:
            out[j].append((i, a))
    return out


class IntegerImage:
    """An operator M = A/D, D = 1 over Fp, by A's sparse columns, (row,
    entry) pairs without zeros, and its sparse rows, (column, entry) pairs
    in ascending column, derived from them once; its length is M's size.
    ``packed`` maps each prime to A's packed columns that
    ``krylov_dependence`` filled.  Images compare equal by D and rows,
    whatever the order inside a column or the cache holds."""

    __slots__ = ("denominator", "columns", "rows", "packed")

    def __init__(self, denominator: int, columns: list):
        self.denominator, self.columns, self.packed = denominator, columns, {}
        self.rows = transposed(columns, len(columns))

    def __eq__(self, other) -> bool:
        if type(other) is not IntegerImage:
            return NotImplemented
        return self.denominator == other.denominator and self.rows == other.rows

    def __len__(self) -> int:
        return len(self.rows)


def mat_vec(rows: list[list], v: list, field) -> list:
    """The sparse integer rows, (column, entry) pairs, applied to an
    integer vector; over Fp every entry reduced mod p."""
    if not any(v):  # a zero word needs no products
        return [0] * len(rows)
    out = [sum(a * v[j] for j, a in row) for row in rows]
    p = field.characteristic
    return [x % p for x in out] if p else out


def _cleared(row: list, hits: list, p: int) -> list:
    """A sorted sparse row minus the multiples of the stored rows in
    ``hits``, pairs (f, lead) with f the entry of row in lead's leading
    column d, that clear those columns, without zeros: monic mod p, where
    every d is 1; over QQ first scaled by the lcm of the d/gcd(d, f), the
    fraction-free update, and primitive.  No hits: row itself, scaled."""
    if hits:
        scale = 1 if p else math.lcm(*[lead[0][1] // math.gcd(lead[0][1], f) for f, lead in hits])
        acc = dict(row) if scale == 1 else {j: scale * a for j, a in row}
        for f, lead in hits:
            m = f * scale // lead[0][1]
            for j, a in lead:
                acc[j] = acc.get(j, 0) - m * a
        row = [(j, a) for j, c in sorted(acc.items()) if (a := c % p if p else c)]
    if not row:
        return row
    scale = pow(row[0][1], -1, p) if p else math.gcd(*[a for _, a in row])
    return row if scale == 1 else [(j, a * scale % p if p else a // scale) for j, a in row]


def rref(rows: list[list], field) -> tuple[list[list], list[int]]:
    """Echelon form of sparse rows, (column, entry) pairs with nonzero
    entries (reduced mod p over Fp), and its pivot columns, both by pivot.
    Each row is reduced on its leading column against the stored row that
    leads there until it leads in a new column or vanishes: mod p with
    leading 1s; over QQ fraction-free (Bareiss, Math. Comp. 22, 1968), a
    primitive multiple of d*row - f*lead for f over a pivot d.  Only
    ``kernel_basis`` clears the entries above the pivots."""
    p, echelon = field.characteristic, {}  # leading column -> stored row
    for row in filter(None, rows):
        row = sorted(row)
        while row and (lead := echelon.get(row[0][0])):
            row = _cleared(row, [(row[0][1], lead)], p)
        if row:
            echelon[row[0][0]] = _cleared(row, [], p)
    pivots = sorted(echelon)
    return [echelon[c] for c in pivots], pivots


def rank(rows: list[list], field) -> int:
    return len(rref(rows, field)[1]) if rows else 0


def kernel_basis(rows: list[list], width: int, field) -> list[list]:
    """Echelon basis of the right kernel of sparse rows (as for ``rref``)
    of ``width`` columns, one dense vector per free column, the last
    nonzero entry of its vector: 1 over Fp, and over QQ a primitive
    integer vector, positive there.  The echelon rows are reduced first,
    the last pivot first, in the pivot columns after their own."""
    if not rows:
        raise ValueError("kernel of a matrix with no rows is ambiguous")
    p, (echelon, pivots) = field.characteristic, rref(rows, field)
    reduced, columns = {}, {}  # free column -> (pivot column, pivot d, entry); lcm(d) = 1 mod p
    for row in reversed(echelon):
        hits = [(f, reduced[j]) for j, f in row[1:] if j in reduced]
        row = reduced[row[0][0]] = _cleared(row, hits, p) if hits else row
        for j, f in row[1:]:
            columns.setdefault(j, []).append((*row[0], f))
    basis = []
    for free in sorted(set(range(width)) - set(pivots)):
        column = columns.get(free, [])
        common = math.lcm(*[d for _, d, _ in column])
        v = [0] * width
        v[free] = common
        for c, d, f in column:
            v[c] = -f * (common // d)
        basis.append(_normalised(v, p))
    return basis


def _first_dependence(vectors, field) -> list:
    """The first linear dependence in a sequence of vectors, monic in the last."""
    zero, one, reduce = field.zero(), field.one(), field.reduce
    # echelon rows: (reduced vector, dependence coefficients, lead index)
    echelon: list[tuple[list, list, int]] = []
    for k, vec in enumerate(vectors):
        comb = [zero] * k + [one]
        for evec, ecomb, lead in echelon:
            c = vec[lead]
            if c:
                vec = [reduce(v - c * w) if w else v for v, w in zip(vec, evec)]
                for i, w in enumerate(ecomb):
                    comb[i] = reduce(comb[i] - c * w)
        lead = next((i for i, v in enumerate(vec) if v), None)
        if lead is None:
            return comb
        scale = field.inv(vec[lead])
        echelon.append(
            ([reduce(v * scale) for v in vec], [reduce(v * scale) for v in comb], lead)
        )
    raise ValueError("no linear dependence found")


def minimal_polynomial(matrix: list[list], field) -> list:
    """Coefficients (constant first, monic) of the minimal polynomial.

    Found as the first linear dependence among the flattened powers
    I, M, M**2, ...; Cayley-Hamilton caps the degree at the matrix size.
    """
    n = len(matrix)
    powers = accumulate(
        repeat(matrix, n), lambda p, m: mat_mul(p, m, field), initial=identity(n, field)
    )
    return _first_dependence(([v for row in p for v in row] for p in powers), field)


def krylov_dependence(columns: list[list], vector: list[int], p: int, packed=None) -> tuple:
    """The least monic f mod p (constant first) with f(A)v = 0, for
    p < 2**64, an integer vector v of size n, and the integer n x n
    matrix A by its sparse columns, (row, entry) pairs, and the space it
    was found on: r_k = q_k(A)v then the monic q_k, k = 0..deg f, the last
    0 and f.  ``packed``, if given, maps primes to lists of n slots holding
    A's packed columns mod p, filled on first use and shared by the calls
    on one A.

    One int packs r_k in its low n slots and q_k above them, a slot being
    2*bitlen(p) + bitlen(2n + 2) + 1 bits in whole 64-bit words, so no sum
    overflows before it is reduced.  r_(k+1) is A r_k (a column is packed
    when first touched) plus (p - c) r_i, c = slot * inv(lead) mod p, for
    each stored, never normalised r_i, one big-int multiply-add each, and
    q_(k+1) is t q_k plus the same multiples of the q_i.  Each step
    unpacks once, to reduce mod p and find the lead; the first r_k that
    vanishes gives f = q_k.
    """
    n = len(vector)
    words = (2 * p.bit_length() + (2 * n + 2).bit_length() + 64) // 64
    width, slot = 64 * words, "Q" + "8x" * (words - 1)
    top, mask = n * width, (1 << width) - 1
    packed = [None] * n if packed is None else packed.setdefault(p, [None] * n)
    # stored rows: (packed r_i and q_i, shift to the lead slot, inverse of the lead)
    echelon: list[tuple[int, int, int]] = []
    slots, kept = [x % p for x in vector] + [1], []
    for _ in range(n + 1):
        kept.append(slots)
        support = [(j, s) for j, s in enumerate(slots[:n]) if s]
        if not support:
            return slots[n:], kept
        lead, value = support[0]
        row = int.from_bytes(struct.pack("<" + slot * len(slots), *slots), "little")
        echelon.append((row, lead * width, pow(value, -1, p)))
        acc = row >> top << (top + width)
        for j, s in support:
            col = packed[j]
            if col is None:
                col = packed[j] = sum(a % p << width * i for i, a in columns[j])
            acc += s * col
        for stored, shift, inverse in echelon:
            c = (acc >> shift & mask) * inverse % p
            if c:
                acc += (p - c) * stored
        count = words * (len(slots) + 1)
        values = struct.unpack(f"<{count}Q", acc.to_bytes(8 * count, "little"))
        slots = values[::words]
        for i in range(1, words):  # the higher words of each slot
            slots = [s | h << 64 * i for s, h in zip(slots, values[i::words])]
        slots = [s % p for s in slots]
    raise ValueError("no linear dependence found")
