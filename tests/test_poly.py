"""Monomials, orders, polynomial arithmetic, and the text grammar."""

import pytest
from conftest import constant_term, coprime, evaluate, monic
from hypothesis import given, strategies as st

from punctual.errors import ParseError
from punctual.fields import PrimeField, QQ
from punctual.poly import (
    ALL_ORDERS,
    DEFAULT_ORDER,
    Monomial,
    MonomialOrder,
    Polynomial,
    parse_generators,
    parse_polynomial,
)

X2 = Monomial(2, 0)
XY = Monomial(1, 1)
Y2 = Monomial(0, 2)
X = Monomial(1, 0)
Y = Monomial(0, 1)

monomials = st.builds(Monomial, st.integers(0, 8), st.integers(0, 8))


def test_monomial_basics():
    assert X2.degree == 2
    assert X * Y == XY
    assert X.divides(XY) and not X2.divides(XY)
    assert XY.divided_by(X) == Y
    assert X2.lcm(XY) == Monomial(2, 1)
    assert coprime(X2, Y2) and not coprime(X2, XY)
    assert str(Monomial(0, 0)) == "1"
    assert str(Monomial(2, 1)) == "x^2*y"
    with pytest.raises(ValueError):
        X.divided_by(Y)


def test_compare_pinned_cases():
    lex_xy = MonomialOrder("lex", "xy")
    deglex_xy = MonomialOrder("deglex", "xy")
    # reflexivity
    for order in ALL_ORDERS:
        assert order.compare(X, X) == 0
    assert lex_xy.compare(X2, XY) > 0
    assert deglex_xy.compare(Y2, X) > 0


def test_order_conventions():
    # x > y under every 'xy' order, y > x under every 'yx' order
    for tag in ("lex", "deglex", "degrevlex"):
        assert MonomialOrder(tag, "xy").compare(X, Y) > 0
        assert MonomialOrder(tag, "yx").compare(X, Y) < 0
    # graded orders put degree first
    assert MonomialOrder("degrevlex", "xy").compare(Y2, X) > 0
    # classic degrevlex tie-break: x^2*y > x*y^2 when x > y
    assert MonomialOrder("degrevlex", "xy").compare(Monomial(2, 1), Monomial(1, 2)) > 0


def test_bad_order_specs():
    with pytest.raises(ValueError):
        MonomialOrder("grlex", "xy")
    with pytest.raises(ValueError):
        MonomialOrder("lex", "zz")


@given(monomials, monomials, monomials)
def test_orders_are_strict_weak_and_total(m1, m2, m3):
    for order in ALL_ORDERS:
        c12, c21 = order.compare(m1, m2), order.compare(m2, m1)
        assert c12 == -c21
        assert (c12 == 0) == (m1 == m2)
        if order.compare(m1, m2) <= 0 and order.compare(m2, m3) <= 0:
            assert order.compare(m1, m3) <= 0


@given(monomials, monomials, monomials)
def test_orders_respect_multiplication(m1, m2, shift):
    for order in ALL_ORDERS:
        assert order.compare(m1 * shift, m2 * shift) == order.compare(m1, m2)


def test_polynomial_arithmetic():
    f = parse_polynomial("x^2 - y", QQ)
    g = parse_polynomial("y", QQ)
    assert str(f + g) == "x^2"
    assert str(f - f) == "0"
    assert (f - f).is_zero()
    h = f * g
    assert h.coeff(Monomial(2, 1)) == QQ.one()
    assert h.coeff(Y2) == QQ.from_int(-1)
    assert str(-g) == "-y"
    assert f.degree() == 2 and Polynomial.zero(QQ).degree() == -1


def test_leading_data_depends_on_order():
    f = parse_polynomial("y - x^2", QQ)
    assert f.leading_monomial(DEFAULT_ORDER) == X2
    assert f.leading_monomial(MonomialOrder("lex", "yx")) == Y
    assert f.leading_coefficient(DEFAULT_ORDER) == QQ.from_int(-1)
    assert monic(f, DEFAULT_ORDER).leading_coefficient(DEFAULT_ORDER) == QQ.one()
    with pytest.raises(ValueError):
        Polynomial.zero(QQ).leading_monomial(DEFAULT_ORDER)


def test_zero_coefficients_never_stored():
    f = parse_polynomial("x + y - x", QQ)
    assert set(f.terms) == {Y}
    g = Polynomial(QQ, {X: QQ.zero()})
    assert g.is_zero()


def test_evaluate():
    f = parse_polynomial("x^2*y - 3*x + 1", QQ)
    assert evaluate(f, QQ.from_int(2), QQ.from_int(5)) == QQ.from_int(15)
    f7 = PrimeField(7)
    g = parse_polynomial("x^2 + y", f7)
    assert evaluate(g, f7.from_int(3), f7.from_int(1)) == f7.from_int(3)


def test_parser_grammar():
    f = parse_polynomial("2x^2y - 3*x*y + 7", QQ)
    assert f.coeff(Monomial(2, 1)) == QQ.from_int(2)
    assert f.coeff(XY) == QQ.from_int(-3)
    assert constant_term(f) == QQ.from_int(7)
    assert parse_polynomial("  y -x^2 ", QQ) == parse_polynomial("y - x^2", QQ)
    assert parse_polynomial("0", QQ).is_zero()
    # coefficients reduce modulo p
    f5 = PrimeField(5)
    assert parse_polynomial("7*x", f5) == parse_polynomial("2x", f5)
    assert parse_polynomial("x - x", f5).is_zero()


def test_parser_rejects_garbage():
    # a superscript digit passes str.isdigit but not int(), and int()
    # refuses more than 4300 digits
    for bad in (
        "", "x^", "x^-2", "2^3", "x + + y", "z", "x*", "*x", "x 2^2", "x\u00b2", "1" * 4301
    ):
        with pytest.raises(ParseError):
            parse_polynomial(bad, QQ)


def test_parse_generators():
    gens = parse_generators("x^2, x*y, y^2", QQ)
    assert len(gens) == 3
    with pytest.raises(ParseError):
        parse_generators("x,,y", QQ)
    with pytest.raises(ParseError):
        parse_generators("x, y,", QQ)


@st.composite
def rational_polys(draw):
    terms = draw(
        st.dictionaries(
            st.builds(Monomial, st.integers(0, 4), st.integers(0, 4)),
            st.integers(-9, 9).filter(bool),
            max_size=5,
        )
    )
    return Polynomial(QQ, {m: QQ.from_int(c) for m, c in terms.items()})


@given(rational_polys())
def test_str_parse_round_trip(f):
    assert parse_polynomial(str(f), QQ) == f


@given(rational_polys(), rational_polys(), rational_polys())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert f + Polynomial.zero(QQ) == f
