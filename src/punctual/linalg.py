"""Dense exact linear algebra over the coefficient fields.

Matrices are lists of row lists whose entries are field elements
(Fraction, or int in [0, p)).  Every stored entry goes through the
field's ``reduce`` and every division through its ``inv``, so one kernel
serves both fields.  Pivoting always takes the first nonzero entry, the
only sound choice for exact arithmetic, and every rank or kernel decision
is therefore exact.
"""

from __future__ import annotations

from itertools import accumulate, repeat


def identity(n: int, field) -> list[list]:
    z, o = field.zero(), field.one()
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def scaled_identity(factor, n: int, field) -> list[list]:
    z = field.zero()
    return [[factor if i == j else z for j in range(n)] for i in range(n)]


def mat_sub(a: list[list], b: list[list], field) -> list[list]:
    reduce = field.reduce
    return [[reduce(x - y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


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


def vector_minimal_polynomial(matrix: list[list], vector: list, field) -> list:
    """Coefficients (constant first, monic) of the least f with f(M)v = 0.

    The first linear dependence among v, Mv, M**2 v, ...; it is the
    minimal polynomial of M when v generates the space under M.
    """
    n = len(matrix)
    krylov = accumulate(repeat(matrix, n), lambda v, m: mat_vec(m, v, field), initial=vector)
    return _first_dependence(krylov, field)
