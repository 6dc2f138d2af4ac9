"""Field backends: normalization invariants and the field axioms."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from punctual.errors import ParseError
from punctual.fields import PrimeField, QQ, is_prime, parse_field
from punctual.groebner import normal_form
from punctual.poly import DEFAULT_ORDER, parse_polynomial

F7 = PrimeField(7)
F101 = PrimeField(101)


def test_parse_field():
    assert parse_field("QQ") is QQ or parse_field("QQ") == QQ
    assert parse_field("qq") == QQ
    assert parse_field("Fp:7") == F7
    assert parse_field("fp:101") == F101
    with pytest.raises(ParseError):
        parse_field("Fp:6")
    with pytest.raises(ParseError):
        parse_field("Fp:abc")
    with pytest.raises(ParseError):
        parse_field("RR")
    with pytest.raises(ParseError):
        parse_field(f"Fp:{2**31 + 11}")


def test_prime_check():
    assert is_prime(2) and is_prime(3) and is_prime(32003)
    assert not is_prime(1) and not is_prime(0) and not is_prime(9) and not is_prime(32001)


def test_gf_reduction_invariant():
    e = F7.from_int(10)
    assert type(e) is int and e == 3
    assert F7.from_int(-1) == 6
    assert str(F7.from_int(12)) == "5"
    assert F7.reduce(-8) == 6 and F7.reduce(6) == 6


def test_gf_arithmetic():
    a, b = F7.from_int(3), F7.from_int(5)
    assert F7.reduce(a + b) == 1
    assert F7.reduce(a - b) == 5
    assert F7.reduce(a * b) == 1
    assert F7.reduce(a * F7.inv(b)) == 2  # 3 * 5^-1 = 3 * 3 = 9 = 2
    assert F7.reduce(-a) == 4
    with pytest.raises(ZeroDivisionError):
        F7.inv(F7.zero())
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero())
    assert QQ.inv(QQ.from_int(-4)) == Fraction(-1, 4)
    # an int over QQ inverts exactly, never to a float
    assert type(QQ.inv(3)) is Fraction and QQ.inv(3) == Fraction(1, 3)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    assert QQ.reduce(Fraction(3, 4)) == Fraction(3, 4)


def test_mixed_moduli_meet_only_in_polynomials():
    x7, x101 = parse_polynomial("x", F7), parse_polynomial("x", F101)
    with pytest.raises(ValueError):
        x7 + x101
    with pytest.raises(ValueError):
        normal_form(x7, [x101], DEFAULT_ORDER)


def test_rationals_stay_normalized():
    # Fraction reduces automatically; this pins the invariant we rely on
    c = QQ.from_int(4) / QQ.from_int(6)
    assert (c.numerator, c.denominator) == (2, 3)
    d = Fraction(1, -2)
    assert d.denominator > 0


@given(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100))
def test_gf_field_axioms(a, b, c):
    r = F101.reduce
    x, y, z = (F101.from_int(v) for v in (a, b, c))
    assert r(r(x + y) + z) == r(x + r(y + z))
    assert r(r(x * y) * z) == r(x * r(y * z))
    assert r(x * r(y + z)) == r(r(x * y) + r(x * z))
    assert r(x + F101.zero()) == x
    assert r(x * F101.one()) == x
    if y:
        assert r(r(x * F101.inv(y)) * y) == x


@given(
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)
def test_rational_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    if y != 0:
        assert (x / y) * y == x


def test_field_equality_and_labels():
    assert PrimeField(7) == F7
    assert PrimeField(7) != F101
    assert QQ.label == "QQ"
    assert F101.label == "Fp:101"
    assert F101.characteristic == 101
    assert QQ.characteristic == 0
