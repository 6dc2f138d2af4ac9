"""Exact linear algebra: the sparse transpose and the integer image's two
views, the sparse integer rank and kernel against the field oracle
``dense_rref``, minimal polynomials, and the packed Krylov kernel mod p
against the oracle ``vector_minimal_polynomial``."""

from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd, lcm

import pytest
from conftest import (
    columns_of,
    dense_kernel_basis,
    dense_mat_vec,
    dense_of,
    dense_rref,
    is_zero_matrix,
    mat_sub,
    primitive_basis,
    scaled_identity,
    sparse,
    vector_minimal_polynomial,
)
from hypothesis import example, given, settings, strategies as st

from punctual.fields import PrimeField, QQ
from punctual.linalg import (
    IntegerImage,
    identity,
    kernel_basis,
    krylov_dependence,
    mat_mul,
    mat_pow,
    mat_vec,
    minimal_polynomial,
    rank,
    rref,
    transposed,
)

F101 = PrimeField(101)


def qmat(rows):
    return [[Fraction(v) for v in row] for row in rows]


def test_mat_mul_and_pow():
    a = qmat([[1, 2], [3, 4]])
    b = qmat([[0, 1], [1, 0]])
    assert mat_mul(a, b, QQ) == qmat([[2, 1], [4, 3]])
    assert mat_pow(b, 2, QQ) == identity(2, QQ)
    assert mat_pow(a, 0, QQ) == identity(2, QQ)
    assert mat_vec([[(0, 1), (1, 2)], [(0, 3), (1, 4)]], [1, 1], QQ) == [3, 7]
    assert mat_vec([[(0, 1), (1, 2)], [(0, 3), (1, 4)]], [1, 1], PrimeField(5)) == [3, 2]
    assert is_zero_matrix(mat_sub(a, a, QQ))
    assert scaled_identity(Fraction(3), 2, QQ) == qmat([[3, 0], [0, 3]])


def test_rref_and_rank():
    m = [[1, 2, 3], [2, 4, 6], [1, 1, 1]]
    echelon, pivots = rref(sparse(m), QQ)
    assert pivots == [0, 1]
    assert rank(sparse(m), QQ) == 2
    # one stored row per pivot, leading there: the dependent row vanished
    assert [row[0][0] for row in echelon] == pivots
    # no rows, or only zero rows: no pivot, and a kernel only with a width
    for field in ELIMINATION_FIELDS:
        assert rref([], field) == ([], []) and rank([], field) == 0
        assert rref([[], []], field) == ([], []) and rank([[], []], field) == 0
        assert kernel_basis([[]], 2, field) == [[1, 0], [0, 1]]
        with pytest.raises(ValueError):
            kernel_basis([], 2, field)


def test_kernel_basis_is_exact():
    m = [[1, 2, 3], [2, 4, 6]]
    basis = kernel_basis(sparse(m), 3, QQ)
    assert len(basis) == 2
    for v in basis:
        assert all(val == 0 for val in dense_mat_vec(m, v, QQ))
    full = [[1, 0], [0, 1]]
    assert kernel_basis(sparse(full), 2, QQ) == []


def test_minimal_polynomial_examples():
    # nilpotent shift: min poly t^3
    shift = qmat([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert minimal_polynomial(shift, QQ) == [Fraction(0)] * 3 + [Fraction(1)]
    # diagonal (1, 2): (t-1)(t-2) = 2 - 3t + t^2
    diag = qmat([[1, 0], [0, 2]])
    assert minimal_polynomial(diag, QQ) == [Fraction(2), Fraction(-3), Fraction(1)]
    # identity has min poly t - 1 regardless of size
    assert minimal_polynomial(identity(4, QQ), QQ) == [Fraction(-1), Fraction(1)]
    assert minimal_polynomial([[Fraction(0)]], QQ) == [Fraction(0), Fraction(1)]


def _eval_matrix_poly(coeffs, m, field):
    acc = scaled_identity(coeffs[-1], len(m), field)
    for c in reversed(coeffs[:-1]):
        acc = mat_mul(acc, m, field)
        for i in range(len(m)):
            acc[i][i] = field.reduce(acc[i][i] + c)
    return acc


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(0, 100), min_size=3, max_size=3), min_size=3, max_size=3
    )
)
def test_minimal_polynomial_annihilates(entries):
    m = [[F101.from_int(v) for v in row] for row in entries]
    coeffs = minimal_polynomial(m, F101)
    assert coeffs[-1] == F101.one()
    assert is_zero_matrix(_eval_matrix_poly(coeffs, m, F101))


def test_vector_minimal_polynomial_examples():
    # the cyclic vector of a shift sees the whole minimal polynomial, an
    # eigenvector only its own factor
    shift = qmat([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    e0 = [Fraction(1), Fraction(0), Fraction(0)]
    assert vector_minimal_polynomial(shift, e0, QQ) == minimal_polynomial(shift, QQ)
    diag = qmat([[1, 0], [0, 2]])
    assert vector_minimal_polynomial(diag, [Fraction(0), Fraction(1)], QQ) == [
        Fraction(-2),
        Fraction(1),
    ]
    assert vector_minimal_polynomial(diag, [Fraction(1), Fraction(1)], QQ) == (
        minimal_polynomial(diag, QQ)
    )


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(0, 100), min_size=3, max_size=3), min_size=4, max_size=4
    )
)
def test_vector_minimal_polynomial_is_least(entries):
    m = [[F101.from_int(v) for v in row] for row in entries[:3]]
    vector = [F101.from_int(v) for v in entries[3]]
    coeffs = vector_minimal_polynomial(m, vector, F101)
    assert coeffs[-1] == F101.one()
    assert not any(dense_mat_vec(_eval_matrix_poly(coeffs, m, F101), vector, F101))
    # v, Mv, ..., M^(d-1) v are independent, so no lower degree works
    krylov = [vector]
    for _ in range(len(coeffs) - 2):
        krylov.append(dense_mat_vec(m, krylov[-1], F101))
    assert rank(sparse(krylov), F101) == len(coeffs) - 1
    # and it divides the minimal polynomial of the matrix: the remainder of
    # minimal_polynomial(m) by it is zero
    remainder = minimal_polynomial(m, F101)
    while len(remainder) >= len(coeffs):
        lead = remainder[-1]
        shift = len(remainder) - len(coeffs)
        for i, c in enumerate(coeffs):
            remainder[shift + i] = F101.reduce(remainder[shift + i] - lead * c)
        remainder.pop()
    assert not any(remainder)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-5, 5), min_size=4, max_size=4), min_size=2, max_size=5
    )
)
def test_kernel_dimension_complements_rank(entries):
    rows = sparse(entries)
    assert rank(rows, QQ) + len(kernel_basis(rows, 4, QQ)) == 4
    for v in kernel_basis(rows, 4, QQ):
        assert all(val == 0 for val in dense_mat_vec(entries, v, QQ))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=1, max_size=4),
    st.lists(st.sampled_from([0, 0, 1, -2]), min_size=4, max_size=4),
)
def test_mat_vec_matches_mat_mul(entries, vector):
    # mat_vec reads the sparse rows, the nonzero (column, entry) pairs
    for field in (QQ, F101):
        m = [[field.from_int(v) for v in row] for row in entries]
        rows = [[(j, a) for j, a in enumerate(row) if a] for row in entries]
        column = mat_mul(m, [[field.from_int(c)] for c in vector], field)
        assert mat_vec(rows, vector, field) == [row[0] for row in column]


@st.composite
def sparse_matrices(draw, square=False):
    """Sparse rows, (column, entry) pairs without zeros in a drawn order,
    of a matrix of 1..6 rows and 1..6 columns (square if asked), and its
    width; empty rows and columns are common."""
    height = draw(st.integers(1, 6))
    width = height if square else draw(st.integers(1, 6))
    rows = []
    for _ in range(height):
        columns = draw(st.lists(st.integers(0, width - 1), unique=True, max_size=width))
        rows.append([(j, draw(st.integers(-9, 9).filter(bool))) for j in columns])
    return rows, width


def dense_transpose(matrix):
    return [list(column) for column in zip(*matrix)]


@given(sparse_matrices())
@example(([[]], 1))
@example(([[(0, -4)]], 1))
@example(([[], [(3, 2), (1, 5)], []], 4))
@settings(max_examples=200, deadline=None)
def test_transposed_round_trips(case):
    rows, width = case
    columns = transposed(rows, width)
    assert len(columns) == width
    assert transposed(columns, len(rows)) == [sorted(row) for row in rows]
    dense = [[dict(row).get(j, 0) for j in range(width)] for row in rows]
    by_columns = [[dict(column).get(i, 0) for i in range(len(rows))] for column in columns]
    assert by_columns == dense_transpose(dense)


@given(sparse_matrices(square=True), st.integers(1, 6), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_integer_image_views_densify_alike(case, denominator, rng):
    columns, _ = case
    image = IntegerImage(denominator, columns)
    for field in (QQ, F101):
        as_rows = dense_of(image.rows, denominator, field)
        assert as_rows == dense_transpose(dense_of(image.columns, denominator, field))
    # equality reads D and the derived rows: not the order of the pairs
    # inside a column, nor the packed cache
    shuffled = [rng.sample(column, len(column)) for column in columns]
    krylov_dependence(image.columns, [1] * len(image), 101, image.packed)
    assert image.packed and IntegerImage(denominator, shuffled) == image
    assert IntegerImage(denominator + 1, columns) != image


def test_integer_images_compare_whatever_the_order_inside_a_column():
    # [[1/2, 3/2], [5/2, 0]] by columns, the first one's pairs in both orders
    image = IntegerImage(2, [[(0, 1), (1, 5)], [(0, 3)]])
    assert image.rows == [[(0, 1), (1, 3)], [(0, 5)]]
    assert IntegerImage(2, [[(1, 5), (0, 1)], [(0, 3)]]) == image
    assert IntegerImage(2, [[(0, 1)], [(0, 3), (1, 5)]]) != image
    assert len(image) == 2


KRYLOV_PRIMES = [2, 3, 32003, 2**31 - 1]


def krylov_oracle(matrix, vector, p):
    field = PrimeField(p)
    reduced = [[a % p for a in row] for row in matrix]
    return vector_minimal_polynomial(reduced, [x % p for x in vector], field)


@st.composite
def krylov_cases(draw):
    """(p, M, v): an integer matrix of size 1..40, sparse or dense, and a
    vector, with entries up to p^2 in size and of either sign, so that the
    kernel's own reduction is exercised too."""
    p = draw(st.sampled_from(KRYLOV_PRIMES))
    n = draw(st.integers(1, 40))
    density = draw(st.sampled_from([0.05, 0.3, 1.0]))
    rng = draw(st.randoms(use_true_random=False))

    def entry(chance):
        return rng.randint(-p * p, p * p) if rng.random() < chance else 0

    matrix = [[entry(density) for _ in range(n)] for _ in range(n)]
    vector = draw(st.sampled_from([[1] + [0] * (n - 1), [entry(0.7) for _ in range(n)]]))
    return p, matrix, vector


@given(krylov_cases())
@settings(max_examples=120, deadline=None)
def test_krylov_dependence_matches_the_oracle(case):
    p, matrix, vector = case
    coeffs, space = krylov_dependence(columns_of(matrix), vector, p)
    assert coeffs == krylov_oracle(matrix, vector, p)
    # the kept space: r_k = q_k(A)v mod p and the monic q_k of degree k, up to 0 and f
    n, field = len(vector), PrimeField(p)
    reduced = [[a % p for a in row] for row in matrix]
    steps = repeat(reduced, len(space) - 1)
    powers = list(accumulate(steps, lambda v, m: dense_mat_vec(m, v, field), initial=vector))
    for k, kept in enumerate(space):
        assert len(kept) == n + k + 1 and kept[-1] == 1
        assert kept[:n] == [sum(c * v[i] for c, v in zip(kept[n:], powers)) % p for i in range(n)]
    assert space[-1] == [0] * n + coeffs


def test_krylov_dependence_on_dense_operators_at_the_widest_slots():
    # every entry near p = 2^31 - 1 fills each slot's sum, so a slot one
    # bitlen(2n + 2) too narrow spills into the next
    p = KRYLOV_PRIMES[-1]
    for n in (5, 17, 40):
        matrix = [[p - 1 - (i * 7 + j * 3) % 11 for j in range(n)] for i in range(n)]
        matrix[0][0] = 1
        vector = [p - 1 - i for i in range(n)]
        expected = krylov_oracle(matrix, vector, p)
        assert krylov_dependence(columns_of(matrix), vector, p)[0] == expected


def companion(coeffs):
    """The companion matrix of a monic polynomial: e0 sees all of it."""
    n = len(coeffs) - 1
    last = [-c for c in coeffs[:n]]
    return [[last[i] if j == n - 1 else int(i == j + 1) for j in range(n)] for i in range(n)]


def test_krylov_dependence_edge_cases():
    for p in KRYLOV_PRIMES:
        for n in (1, 2, 7, 40):
            e0, shift = [1] + [0] * (n - 1), companion([0] * n + [1])
            # the zero vector: f = 1
            assert krylov_dependence(columns_of(shift), [0] * n, p)[0] == [1]
            # a nilpotent shift from its cyclic vector: t^n
            assert krylov_dependence(columns_of(shift), e0, p)[0] == [0] * n + [1]
            # a dependence only at degree n, with every coefficient nonzero
            coeffs = [(3 * i + 1) % p or 1 for i in range(n)] + [1]
            assert krylov_dependence(columns_of(companion(coeffs)), e0, p)[0] == coeffs
            # the identity: t - 1 on any nonzero vector
            eye = [[int(i == j) for j in range(n)] for i in range(n)]
            for vector in (e0, [1] * n, [p - 1 - i for i in range(n)]):
                assert krylov_dependence(columns_of(eye), vector, p)[0] == [p - 1, 1]


def test_krylov_dependence_with_three_words_per_slot():
    # at p = 2^61 - 1 and n = 40 a slot needs 2*61 + 7 + 1 = 130 bits
    p, n = 2**61 - 1, 40
    coeffs = [p - 1 - 3 * i for i in range(n)] + [1]
    e0 = [1] + [0] * (n - 1)
    assert krylov_dependence(columns_of(companion(coeffs)), e0, p)[0] == coeffs
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    assert krylov_dependence(columns_of(eye), [p - 1 - i for i in range(n)], p)[0] == [p - 1, 1]


ELIMINATION_FIELDS = [QQ] + [PrimeField(p) for p in (2, 7, 32003, 2**31 - 1)]


@st.composite
def elimination_cases(draw):
    """(field, M, A): a matrix M of field elements, random or of rank at
    most k as a product B*C so that kernels are large, and its integer
    form A: over QQ, where M's entries are rationals of large height, each
    row of M times the lcm of its denominators; over Fp M itself."""
    field = draw(st.sampled_from(ELIMINATION_FIELDS))
    if field == QQ:
        height = st.one_of(st.integers(-9, 9), st.integers(-(10**30), 10**30))
        element = st.builds(Fraction, height, st.one_of(st.integers(1, 9), st.integers(1, 10**30)))
    else:
        element = st.builds(field.from_int, st.integers(0, field.p - 1))
    element = st.one_of(st.just(field.zero()), element)
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))

    def block(nrows, ncols):
        return [[draw(element) for _ in range(ncols)] for _ in range(nrows)]

    k = draw(st.integers(1, 7))
    matrix = block(rows, cols) if k == 7 else mat_mul(block(rows, k), block(k, cols), field)
    if field != QQ:
        return field, matrix, matrix
    common = [lcm(*(c.denominator for c in row)) for row in matrix]
    return field, matrix, [[int(c * m) for c in row] for row, m in zip(matrix, common)]


@st.composite
def sparse_elimination_cases(draw):
    """(field, M, A) as for ``elimination_cases``, but mostly zero and up
    to 30 x 60, with integer entries (small, or of 30 digits over QQ): rows
    drawn at random, zero rows, repeated rows and combinations of two
    earlier rows, so that rows vanish, fill in and are back-substituted."""
    field = draw(st.sampled_from(ELIMINATION_FIELDS))
    rng = draw(st.randoms(use_true_random=False))
    nrows, ncols = draw(st.integers(1, 30)), draw(st.integers(1, 60))
    density = draw(st.sampled_from([0.03, 0.1, 0.3]))
    height = 10**30 if field == QQ and draw(st.booleans()) else 9

    def integer(a):
        return a if field == QQ else a % field.p

    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if rows and kind < 0.1:
            rows.append([0] * ncols)
        elif rows and kind < 0.25:
            rows.append(list(rng.choice(rows)))
        elif len(rows) > 1 and kind < 0.45:
            (a, b), s, t = rng.sample(rows, 2), rng.randint(-3, 3), rng.randint(-3, 3)
            rows.append([integer(s * u + t * v) for u, v in zip(a, b)])
        else:
            chance = [rng.random() < density for _ in range(ncols)]
            rows.append([integer(rng.randint(-height, height)) if c else 0 for c in chance])
    return field, [[field.from_int(a) for a in row] for row in rows], rows


@given(
    st.one_of(elimination_cases(), sparse_elimination_cases()),
    st.randoms(use_true_random=False),
)
@settings(max_examples=400, deadline=None)
def test_integer_elimination_matches_the_field_oracle(case, rng):
    field, matrix, integers = case
    width = len(matrix[0])
    expected_rows, expected_pivots = dense_rref(matrix, field)
    # the (column, entry) rows, their pairs in any order, as the translated
    # operators hold them
    rows = [rng.sample(row, len(row)) for row in sparse(integers)]
    echelon, pivots = rref(rows, field)
    assert pivots == expected_pivots
    assert rank(rows, field) == len(expected_pivots)
    for row, pivot in zip(echelon, pivots):
        columns, values = [j for j, _ in row], [a for _, a in row]
        # sorted pairs of nonzero entries, leading in the row's own pivot
        assert columns[0] == pivot and columns == sorted(set(columns)) and all(values)
        if field == QQ:
            # fraction-free: primitive integer rows
            assert all(type(v) is int for v in values) and gcd(*values) == 1
        else:
            assert values[0] == 1 and all(0 <= v < field.p for v in values)
        # in the oracle's row space: the sum of its rows times this row's
        # entries at the pivots
        dense = [field.from_int(dict(row).get(j, 0)) for j in range(width)]
        by_pivot = [(dense[c], r) for c, r in zip(pivots, expected_rows)]
        assert [field.reduce(sum(a * r[j] for a, r in by_pivot)) for j in range(width)] == dense
    basis = kernel_basis(rows, width, field)
    assert basis == primitive_basis(dense_kernel_basis(matrix, field), field)
    for v in basis:
        assert not any(dense_mat_vec(integers, v, field))
        if field == QQ:
            assert gcd(*v) == 1 and v[max(i for i, c in enumerate(v) if c)] > 0
        else:
            assert all(0 <= c < field.p for c in v)
