"""Dense exact linear algebra over the coefficient fields.

Matrices are lists of row lists whose entries are field elements
(Fraction, or int in [0, p)).  Every stored entry goes through the
field's ``reduce`` and every division through its ``inv``, so one kernel
serves both fields.  Pivoting always takes the first nonzero entry, the
only sound choice for exact arithmetic, and every rank or kernel decision
is therefore exact.  Only ``krylov_dependence``, a minimal polynomial
mod p, reads integer entries and packs each vector into one int.
"""

from __future__ import annotations

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


def mat_vec(a: list[list], v: list, field) -> list:
    zero, reduce = field.zero(), field.reduce
    support = [(j, y) for j, y in enumerate(v) if y]
    out = []
    for row in a:
        acc = zero
        for j, y in support:
            x = row[j]
            if x:
                acc = acc + x * y
        out.append(reduce(acc))
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


def rref(matrix: list[list], field) -> tuple[list[list], list[int]]:
    """Reduced row echelon form (a fresh matrix) and its pivot columns."""
    rows = [row[:] for row in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    one, inv, reduce = field.one(), field.inv, field.reduce
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        if pv != one:
            scale = inv(pv)
            rows[r] = [reduce(v * scale) for v in rows[r]]
        lead = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [reduce(v - f * w) if w else v for v, w in zip(rows[i], lead)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(matrix: list[list], field) -> int:
    if not matrix:
        return 0
    return len(rref(matrix, field)[1])


def kernel_basis(matrix: list[list], field) -> list[list]:
    """Echelon basis of the right kernel, one vector per free column."""
    if not matrix:
        raise ValueError("kernel of a matrix with no rows is ambiguous")
    reduced, pivots = rref(matrix, field)
    ncols = len(matrix[0])
    pivot_set = set(pivots)
    zero, one = field.zero(), field.one()
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [zero] * ncols
        v[free] = one
        for i, p in enumerate(pivots):
            c = reduced[i][free]
            if c:
                v[p] = field.reduce(-c)
        basis.append(v)
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


def krylov_dependence(entries: list[int], vector: list[int], p: int) -> list[int]:
    """The least monic f mod p (constant first) with f(A)v = 0, for
    p < 2**64, an integer vector v of size n, and the integer n x n
    matrix A by its entries, row after row.

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
    packed: list = [None] * n
    # stored rows: (packed r_i and q_i, shift to the lead slot, inverse of the lead)
    echelon: list[tuple[int, int, int]] = []
    slots = [x % p for x in vector] + [1]
    for _ in range(n + 1):
        support = [(j, s) for j, s in enumerate(slots[:n]) if s]
        if not support:
            return slots[n:]
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
