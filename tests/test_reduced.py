"""Every value a kernel stores is a reduced field element: over Fp an int in
[0, p), over QQ a Fraction (so no division of two ints ever yields a float).
The local layer and the integer linear algebra store integers instead:
reduced ints over Fp, ints over QQ."""

from fractions import Fraction

from conftest import evaluate, mat_sub, monic, vector_minimal_polynomial
from hypothesis import given, settings, strategies as st

from punctual.artinian import local_components, multiplication_matrices, quotient_basis
from punctual.fields import PrimeField, QQ
from punctual.groebner import buchberger, normal_form, spolynomial
from punctual.linalg import (
    kernel_basis,
    krylov_dependence,
    mat_mul,
    mat_vec,
    rref,
)
from punctual.poly import ALL_ORDERS, Monomial, Polynomial

FIELDS = [QQ] + [PrimeField(p) for p in (2, 3, 7, 101, 32003)]
coefficients = st.integers(-40, 40)


def reduced(value, field) -> bool:
    if field == QQ:
        return type(value) is Fraction
    return type(value) is int and 0 <= value < field.p


def integral(value, field) -> bool:
    return type(value) is int and (field == QQ or 0 <= value < field.p)


def assert_reduced(values, field, what, kind=reduced):
    bad = [v for v in values if not kind(v, field)]
    assert not bad, f"{what} over {field}: unreduced {bad[:3]}"


def assert_integral(values, field, what):
    assert_reduced(values, field, what, integral)


def entries(matrix):
    return [v for row in matrix for v in row]


@st.composite
def polynomials(draw, field, max_degree):
    monos = [Monomial(a, d - a) for d in range(max_degree + 1) for a in range(d + 1)]
    chosen = draw(st.lists(st.sampled_from(monos)))
    return Polynomial(field, {m: field.from_int(draw(coefficients)) for m in chosen})


@st.composite
def zero_dimensional_ideals(draw):
    """x^a + lower, y^b + lower and one product of random polynomials: the
    leading forms x^a and y^b have no common zero, so the ideal is
    zero-dimensional of colength at most a*b in every order, and the sums,
    products and differences run the polynomial arithmetic."""
    field = draw(st.sampled_from(FIELDS))
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    x_power = Polynomial.monomial(field, Monomial(a, 0)) + draw(polynomials(field, a - 1))
    y_power = Polynomial.monomial(field, Monomial(0, b)) - draw(polynomials(field, b - 1))
    extra = draw(polynomials(field, 2)) * draw(polynomials(field, 2)) - draw(polynomials(field, 3))
    return field, [x_power, y_power, -extra]


@settings(max_examples=60, deadline=None)
@given(zero_dimensional_ideals(), st.sampled_from(ALL_ORDERS), st.data())
def test_engine_stores_reduced_values(case, order, data):
    field, gens = case
    for g in gens:
        assert_reduced(g.terms.values(), field, "generator")
    f, g = gens[2], data.draw(polynomials(field, 3))
    for name, p in (("sum", f + g), ("difference", f - g), ("product", f * g)):
        assert_reduced(p.terms.values(), field, name)
    if f:
        assert_reduced(monic(f, order).terms.values(), field, "monic")
        point = (field.from_int(data.draw(coefficients)), field.from_int(data.draw(coefficients)))
        assert_reduced([evaluate(f, *point)], field, "evaluate")
    gb = buchberger(gens, order)
    for p in gb.generators:
        assert_reduced(p.terms.values(), field, "Groebner basis")
    if len(gb.generators) > 1:
        s = spolynomial(gb.generators[0], gb.generators[1], order)
        assert_reduced(s.terms.values(), field, "S-polynomial")
    assert_reduced(normal_form(g, gb.generators, order).terms.values(), field, "normal form")
    pair = multiplication_matrices(quotient_basis(gb), gb)
    for image in (pair.on_x, pair.on_y):
        assert_integral(image.entries + [a for row in image.rows for _, a in row], field, "image")
        assert image.denominator >= 1 and (field == QQ or image.denominator == 1)
    for lq in local_components(gb).components:
        assert_reduced(lq.point, field, "point")
        operators = [a for row in lq.mult_x + lq.mult_y for _, a in row]
        assert_integral(operators, field, "local factor")
        assert_integral(lq.generator, field, "local generator")
        assert_integral(entries(lq.local_ideal), field, "local ideal")


@st.composite
def matrices(draw):
    field = draw(st.sampled_from(FIELDS))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    row = st.lists(coefficients, min_size=cols, max_size=cols)
    return field, draw(st.lists(row, min_size=rows, max_size=rows))


@settings(max_examples=80, deadline=None)
@given(matrices(), st.data())
def test_linear_algebra_returns_reduced_values(case, data):
    field, ints = case
    n = len(ints[0])
    # the integer kernels read ints over QQ and reduced ints over Fp
    integers = ints if field == QQ else [[field.from_int(v) for v in row] for row in ints]
    m = [[field.from_int(v) for v in row] for row in ints]
    reduced_rows, _ = rref(integers, field)
    assert_integral(entries(reduced_rows), field, "rref")
    assert_integral(entries(kernel_basis(integers, field)), field, "kernel basis")
    assert_reduced(entries(mat_sub(m, m[::-1], field)), field, "mat_sub")
    transpose = [list(col) for col in zip(*m)]
    assert_reduced(entries(mat_mul(m, transpose, field)), field, "mat_mul")
    square = [row[:] for row in (m * n)[:n]]
    vector = data.draw(st.lists(st.builds(field.from_int, coefficients), min_size=n, max_size=n))
    rows = [[(j, a) for j, a in enumerate(row) if a] for row in (ints * n)[:n]]
    ints_vector = data.draw(st.lists(coefficients, min_size=n, max_size=n))
    assert_integral(mat_vec(rows, ints_vector, field), field, "mat_vec")
    if any(vector):
        coeffs = vector_minimal_polynomial(square, vector, field)
        assert_reduced(coeffs, field, "vector_minimal_polynomial")
        if field.characteristic:
            flat = [a for row in square for a in row]
            coeffs, _ = krylov_dependence(flat, vector, field.p)
            assert_reduced(coeffs, field, "krylov_dependence")
