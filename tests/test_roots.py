"""The one-variable kernel of ``punctual.univariate``: the division mod p
and exact over Z, the monic gcd mod p and the squarefree part over QQ
against sympy, and the root finders of the local split (Fp by a gcd with
t^p - t and equal-degree splitting, QQ by Hensel lifting) against
independent oracles.  Over QQ the kernel's polynomials are primitive
integer polynomials with a positive leading coefficient, compared
exactly with the primitive multiples of the ``Fraction`` oracles."""

import math
from fractions import Fraction
from itertools import islice, zip_longest

import pytest
from conftest import fraction_cofactor, schoolbook_powmod
from hypothesis import given, settings, strategies as st

import punctual.univariate as univariate
from punctual.fields import QQ, PrimeField
from punctual.univariate import (
    _cofactor,
    _powmod,
    _primitive,
    _rational_roots,
    _squarefree_part,
    divmod,
    gcd,
    roots,
)

SMALL_PRIMES = (2, 3, 5, 7, 11, 101)


def scan_roots(coeffs, p):
    """Every residue in [0, p) at which the polynomial vanishes, by Horner."""
    roots = []
    for t in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * t + c) % p
        if acc == 0:
            roots.append(t)
    return roots


def times_linear(coeffs, root):
    """coeffs * (t - root), constant coefficient first."""
    return [b - root * a for a, b in zip(coeffs + [0 * root], [0 * root] + coeffs)]


def stored(coeffs, field):
    """A list stored as the kernel stores it: reduced, then trimmed."""
    coeffs = [field.reduce(c) for c in coeffs]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def multiply(a, b, field):
    product = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            product[i + j] += x * y
    return stored(product, field)


def to_sympy(coeffs, field):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    top_first = list(reversed(coeffs)) or [0]
    if field.characteristic:
        return sympy.Poly(top_first, t, modulus=field.p)
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in top_first], t)


def from_sympy(poly, field):
    top_first = poly.all_coeffs()
    if field.characteristic:
        return stored([int(c) for c in reversed(top_first)], field)
    return stored([Fraction(int(c.p), int(c.q)) for c in reversed(top_first)], field)


def evaluate(coeffs, value):
    acc = 0 * value
    for c in reversed(coeffs):
        acc = acc * value + c
    return acc


def times_primitive_linear(coeffs, root):
    """coeffs * (b*t - a) for root = a/b."""
    a, b = root.numerator, root.denominator
    return [b * y - a * x for x, y in zip(coeffs + [0], [0] + coeffs)]


def root_multiplicity(coeffs, root):
    """The s with f = (b*t - a)^s * g and g(root) != 0 for the primitive f
    of coeffs and root = a/b, where g is the cofactor the local split uses
    (None when root is not a root)."""
    f = _primitive(coeffs)
    g = _cofactor(f, root, QQ)
    if g is None:
        assert evaluate(coeffs, root) != 0
        return 0
    assert evaluate(g, root) != 0
    s = len(f) - len(g)
    product = g
    for _ in range(s):
        product = times_primitive_linear(product, root)
    assert product == f
    return s


@st.composite
def cofactor_cases(draw):
    """(field, f, root): f = c (t - root)^s h with a random h, s from 0 to 3
    and a random nonzero leading coefficient c, so mostly not monic; over QQ
    the root a/b has b up to 9 and the coefficients have denominators."""
    field = draw(st.sampled_from([QQ] + [PrimeField(p) for p in (3, 7, 32003)]))
    if field == QQ:
        root = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
        element = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))
    else:
        root = draw(st.integers(0, field.p - 1))
        element = st.integers(0, field.p - 1)
    coeffs = stored(draw(st.lists(element, max_size=4)) + [draw(element.filter(bool))], field)
    for _ in range(draw(st.integers(0, 3))):
        coeffs = stored(times_linear(coeffs, root), field)
    return field, coeffs, root


@given(cofactor_cases())
@settings(max_examples=300, deadline=None)
def test_cofactor_matches_the_fraction_synthetic_division(case):
    field, coeffs, root = case
    if field.characteristic:
        g = _cofactor(coeffs, root, field)
        assert g == fraction_cofactor(coeffs, root, field)
        linear, f = times_linear, coeffs
    else:
        # the primitive cofactor of the primitive polynomial, positive at the top
        f = _primitive(coeffs)
        g = _cofactor(f, root, field)
        expected = fraction_cofactor(coeffs, root, field)
        assert g == (None if expected is None else _primitive(expected))
        linear = times_primitive_linear
    if g is not None:
        # exact: f = (t - root)^s g over Fp and (b*t - a)^s g over Z, with
        # f's leading coefficient over Fp
        assert g[-1] == f[-1] if field.characteristic else g[-1] > 0
        product = g
        for _ in range(len(f) - len(g)):
            product = stored(linear(product, root), field)
        assert product == f


@st.composite
def prime_field_polys(draw):
    p = draw(st.sampled_from(SMALL_PRIMES))
    coeffs = draw(st.lists(st.integers(0, p - 1), max_size=6)) + [draw(st.integers(1, p - 1))]
    for root in draw(st.lists(st.integers(0, p - 1), max_size=5)):
        coeffs = [c % p for c in times_linear(coeffs, root)]
    return p, coeffs


@given(prime_field_polys())
@settings(max_examples=300, deadline=None)
def test_fp_roots_match_the_field_scan(case):
    p, coeffs = case
    assert roots(coeffs, PrimeField(p)) == scan_roots(coeffs, p)


@st.composite
def powmod_cases(draw):
    """A base polynomial (any length), an exponent p, (p - 1)/2 or random,
    and a non-monic modulus of degree 1..30."""
    p = draw(st.sampled_from([3, 7, 32003, 2**31 - 1]))
    residue = st.integers(0, p - 1)
    d = draw(st.integers(1, 30))
    f = draw(st.lists(residue, min_size=d, max_size=d)) + [draw(st.integers(2, p - 1))]
    a = draw(st.lists(residue, max_size=2 * d + 2))
    while a and not a[-1]:
        a.pop()
    e = draw(st.sampled_from([p, (p - 1) // 2]) | st.integers(0, 10**12))
    return PrimeField(p), a, e, f


@given(powmod_cases())
@settings(max_examples=150, deadline=None)
def test_powmod_matches_the_schoolbook_ladder(case):
    field, a, e, f = case
    assert _powmod(a, e, f, field.p) == schoolbook_powmod(a, e, f, field)


@pytest.mark.parametrize("p", [2, 3, 5, 32003])
def test_fp_roots_of_a_fully_split_polynomial(p):
    coeffs = [1]
    for root in range(min(p, 12)):
        coeffs = [c % p for c in times_linear(coeffs, root)]
    assert roots(coeffs, PrimeField(p)) == list(range(min(p, 12)))
    shifted = [(coeffs[0] + 1) % p] + coeffs[1:]
    assert roots(shifted, PrimeField(p)) == scan_roots(shifted, p)


def test_fp_roots_near_the_largest_modulus():
    p = 2147483647
    coeffs = times_linear(times_linear([1], 2), p - 5)
    assert roots([c % p for c in coeffs], PrimeField(p)) == [2, p - 5]
    assert roots([1, 0, 1], PrimeField(p)) == []  # -1 is not a square when p = 3 mod 4


fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 6))
nonzero_fractions = st.builds(Fraction, st.integers(1, 9) | st.integers(-9, -1), st.integers(1, 4))


@st.composite
def rational_polys(draw):
    coeffs = [draw(nonzero_fractions)]
    for root in draw(st.lists(st.one_of(st.just(Fraction(0)), fractions), max_size=5)):
        coeffs = times_linear(coeffs, root)
    for _ in range(draw(st.integers(0, 2))):
        factor = draw(st.lists(st.integers(-9, 9), min_size=2, max_size=4))
        if any(factor[1:]):
            coeffs = multiply(coeffs, factor, QQ)
    return coeffs


@given(rational_polys())
@settings(max_examples=300, deadline=None)
def test_rational_roots_match_sympy(coeffs):
    poly = to_sympy(coeffs, QQ)
    expected = {Fraction(int(r.p), int(r.q)): s for r, s in poly.ground_roots().items()}
    found = roots(coeffs, QQ)
    assert found == sorted(expected)
    for root in found:
        assert evaluate(coeffs, root) == 0
        assert root_multiplicity(coeffs, root) == expected[root]


def expanded(*factors):
    """The product of integer polynomials, constant first: primitive with a
    positive leading coefficient where each factor is (Gauss's lemma)."""
    coeffs = [1]
    for factor in factors:
        coeffs = multiply(coeffs, factor, QQ)
    return coeffs


def test_rational_roots_of_large_and_non_monic_polynomials():
    big = 10**30 + 57
    assert _rational_roots([-big, 1]) == [Fraction(big)]
    # 6 (t + big/7)(t - 5/3), whose primitive core is (7t + big)(3t - 5)
    coeffs = times_linear(times_linear([Fraction(6)], Fraction(-big, 7)), Fraction(5, 3))
    assert _primitive(coeffs) == expanded([big, 7], [-5, 3])
    assert _rational_roots(expanded([big, 7], [-5, 3])) == [Fraction(-big, 7), Fraction(5, 3)]
    assert roots(coeffs, QQ) == [Fraction(-big, 7), Fraction(5, 3)]
    assert _rational_roots([2, 0, 1]) == []  # t^2 + 2
    assert _rational_roots([0, -3, 1]) == [Fraction(0), Fraction(3)]


def test_rational_roots_of_a_list_with_trailing_zeros(monkeypatch):
    # roots normalises its input as the Fp path does; a zero leading
    # coefficient would make every prime of the source divide it
    source = univariate._prime_fields
    monkeypatch.setattr(univariate, "_prime_fields", lambda: islice(source(), 4))
    assert roots([Fraction(-1), Fraction(1), Fraction(0)], QQ) == [Fraction(1)]
    assert roots([Fraction(6), Fraction(-5), Fraction(1), Fraction(0)], QQ) == [2, 3]
    assert _primitive([Fraction(-3, 2), Fraction(3), 0]) == [-1, 2]


def test_rational_roots_when_the_first_prime_merges_two_roots():
    # 1 and 32004 are distinct but agree mod 32003, so the search moves on
    coeffs = expanded([-1, 1], [-32004, 1])
    assert _rational_roots(coeffs) == [Fraction(1), Fraction(32004)]
    repeated = expanded(coeffs, [-1, 1])
    assert _rational_roots(repeated) == [Fraction(1), Fraction(32004)]
    assert root_multiplicity(repeated, Fraction(1)) == 2
    assert root_multiplicity(repeated, Fraction(2)) == 0


def test_the_sieve_runs_on_the_monic_transform():
    # (2t - 1)(t^2 + t + 1) has no zero mod 2, though 1/2 is a root: h has one
    assert _rational_roots(expanded([-1, 2], [1, 1, 1])) == [Fraction(1, 2)]


def test_the_sieve_tries_the_zero_residue():
    # the product of the sieve primes is 0 mod each of them
    root = math.prod((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31))
    assert root == 200560490130
    assert _rational_roots(expanded([-root, 1], [1, 0, 1])) == [Fraction(root)]


def test_a_zero_mod_every_prime_goes_through_the_full_search():
    # one of 2, 3 and 6 is a square mod every prime, and none in QQ
    coeffs = expanded([-2, 0, 1], [-3, 0, 1], [-6, 0, 1])
    assert all(scan_roots(coeffs, p) for p in (2, 3, 5, 7, 11, 13, 31))
    assert _rational_roots(coeffs) == []


def test_early_exits_build_no_prime_field(monkeypatch):
    def refuse():
        raise AssertionError("a prime field was built")

    monkeypatch.setattr(univariate, "_prime_fields", refuse)
    assert _rational_roots([-(10**40), 7]) == [Fraction(10**40, 7)]
    # t * (t^2 + t + 1): the core has no zero mod 2
    assert _rational_roots(expanded([0, 1], [1, 1, 1])) == [Fraction(0)]


@st.composite
def field_polys(draw, field, max_size=5):
    if field.characteristic:
        coeffs = draw(st.lists(st.integers(0, field.p - 1), max_size=max_size))
    else:
        coeffs = draw(st.lists(fractions, max_size=max_size))
    return stored(coeffs, field)


def ring(p):
    """The field a modulus p names, QQ for p = 0, where the kernel divides
    over Z."""
    return PrimeField(p) if p else QQ


@st.composite
def polynomial_pairs(draw, moduli=(0,) + SMALL_PRIMES):
    """(p, a, b) with b nonzero, integer polynomials mod p or over Z for
    p = 0; a and b often share a factor."""
    p = draw(st.sampled_from(moduli))
    coefficient = st.integers(0, p - 1) if p else st.integers(-40, 40)

    def poly(max_size=5):
        return st.lists(coefficient, max_size=max_size).map(lambda c: stored(c, ring(p)))

    common = draw(poly(3).filter(bool))
    a = multiply(common, draw(poly()), ring(p))
    b = multiply(common, draw(poly().filter(bool)), ring(p))
    return p, a, b


@given(polynomial_pairs())
@settings(max_examples=300, deadline=None)
def test_divmod_matches_sympy(case):
    # mod p the division in Fp; over Z the division in QQ where its
    # quotient is integral, and None where it is not
    sympy = pytest.importorskip("sympy")
    p, a, b = case
    field = ring(p)
    for x, y in ((a, b), (b, a)) if a else ((a, b),):
        expected = sympy.div(to_sympy(x, field), to_sympy(y, field))
        expected = tuple(from_sympy(e, field) for e in expected)
        division = divmod(x, y, p)
        if any(c.denominator != 1 for c in expected[0]):
            assert division is None
            continue
        quotient, remainder = division
        assert all(isinstance(c, int) for c in quotient + remainder)
        assert quotient == stored(quotient, field) and remainder == stored(remainder, field)
        assert len(remainder) < len(y)
        product = multiply(quotient, y, field)
        assert stored([c + r for c, r in zip_longest(product, remainder, fillvalue=0)], field) == x
        assert (quotient, remainder) == expected


@given(polynomial_pairs(SMALL_PRIMES))
@settings(max_examples=300, deadline=None)
def test_gcd_matches_sympy(case):
    # the monic gcd mod p; over QQ the gcd is only lifted (``_squarefree_part``)
    sympy = pytest.importorskip("sympy")
    p, a, b = case
    field = PrimeField(p)
    # sympy leaves gcd(0, c) = c for a constant c; the kernel's gcd is monic
    expected = from_sympy(sympy.gcd(to_sympy(a, field), to_sympy(b, field)).monic(), field)
    assert gcd(b, a, p) == expected
    if a:
        assert gcd(a, b, p) == expected


@st.composite
def rational_polys_with_repeated_factors(draw):
    coeffs = [draw(nonzero_fractions)]
    for _ in range(draw(st.integers(1, 3))):
        factor = draw(field_polys(QQ, 3).filter(lambda f: len(f) > 1))
        for _ in range(draw(st.integers(1, 3))):
            coeffs = multiply(coeffs, factor, QQ)
    return coeffs


@given(rational_polys_with_repeated_factors())
@settings(max_examples=200, deadline=None)
def test_squarefree_part_matches_sympy(coeffs):
    # over QQ only: in characteristic p, f / gcd(f, f') keeps p-th powers
    sympy = pytest.importorskip("sympy")
    part, field = _squarefree_part(_primitive(coeffs))
    assert all(isinstance(c, int) for c in part)
    assert math.gcd(*part) == 1 and part[-1] > 0
    expected = sympy.sqf_part(to_sympy(coeffs, QQ))
    assert to_sympy([Fraction(c) for c in part], QQ).monic() == expected.monic()
    # the part stays squarefree of the same degree mod the prime it names
    derivative = [i * c for i, c in enumerate(part)][1:]
    assert part[-1] % field.p
    assert gcd(stored(part, field), stored(derivative, field), field.p) == [1]
