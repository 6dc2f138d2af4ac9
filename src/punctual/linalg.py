"""Exact linear algebra over the coefficient fields.

The local layer works on integers over both fields: ints in [0, p) over
Fp, integer matrices with cleared denominators over QQ.  ``rref``, and
with it ``rank`` and ``kernel_basis``, eliminates a dense integer matrix,
fraction-free with primitive rows over QQ and with normalised pivots mod
p; ``mat_vec`` applies sparse integer rows.  Pivoting always takes the
first nonzero entry, the only sound choice for exact arithmetic, so every
rank or kernel decision is exact.  ``krylov_dependence``, a minimal
polynomial mod p, packs each integer vector into one int and keeps the
space it found the polynomial on.  ``mat_mul``,
``mat_pow`` and ``minimal_polynomial`` act on dense matrices of field
elements (``Fraction``, or int in [0, p)) through the field's ``reduce``
and ``inv``.
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


def mat_vec(rows: list[list], v: list, field) -> list:
    """The sparse integer rows, (column, entry) pairs, applied to an
    integer vector; over Fp every entry reduced mod p."""
    if not any(v):  # a zero word needs no products
        return [0] * len(rows)
    out = [sum(a * v[j] for j, a in row) for row in rows]
    p = field.characteristic
    return [x % p for x in out] if p else out


def rref(matrix: list[list], field) -> tuple[list[list], list[int]]:
    """Reduced row echelon form (a fresh matrix) and its pivot columns.

    Over Fp each pivot is normalised to 1 and every entry reduced mod p.
    Over QQ the elimination is fraction-free Gauss-Jordan on integers
    (Bareiss, Math. Comp. 22, 1968): a row with f in the column of a
    pivot d becomes d*row - f*lead, divided by its content, so every row
    stays primitive and no pivot is normalised.
    """
    rows = [row[:] for row in matrix]
    p = field.characteristic
    pivots: list[int] = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        lead = rows[pivot_row]
        if p and lead[c] != 1:
            scale = pow(lead[c], -1, p)
            lead = [v * scale % p for v in lead]
        elif not p:
            lead = _normalised(lead, p)
        rows[pivot_row], rows[r], d = rows[r], lead, lead[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                if p:
                    rows[i] = [(v - f * w) % p if w else v for v, w in zip(row, lead)]
                else:
                    rows[i] = _normalised([d * v - f * w for v, w in zip(row, lead)], p)
        pivots.append(c)
        if r + 1 == len(rows):
            break
    return rows, pivots


def rank(matrix: list[list], field) -> int:
    return len(rref(matrix, field)[1]) if matrix else 0


def kernel_basis(matrix: list[list], field) -> list[list]:
    """Echelon basis of the right kernel, one vector per free column, the
    last nonzero entry of its vector: 1 over Fp, and over QQ a primitive
    integer vector, positive there."""
    if not matrix:
        raise ValueError("kernel of a matrix with no rows is ambiguous")
    reduced, pivots = rref(matrix, field)
    basis = []
    for free in sorted(set(range(len(matrix[0]))) - set(pivots)):
        # (column, pivot d, entry) of the rows with an entry here; lcm(d) = 1 over Fp
        column = [(c, row[c], row[free]) for row, c in zip(reduced, pivots) if row[free]]
        common = math.lcm(*[d for _, d, _ in column])
        v = [0] * len(matrix[0])
        v[free] = common
        for c, d, f in column:
            v[c] = -f * (common // d)
        basis.append(_normalised(v, field.characteristic))
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


def krylov_dependence(entries: list[int], vector: list[int], p: int, packed=None) -> tuple:
    """The least monic f mod p (constant first) with f(A)v = 0, for
    p < 2**64, an integer vector v of size n, and the integer n x n
    matrix A by its entries, row after row, and the space it was found
    on: r_k = q_k(A)v then the monic q_k, k = 0..deg f, the last 0 and f.
    ``packed``, if given, is a list of n slots holding A's packed columns
    mod p, filled on first use and shared by the calls on one A and p.

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
    packed = [None] * n if packed is None else packed
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
                col = packed[j] = sum(a % p << width * i for i, a in enumerate(entries[j::n]) if a)
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
