"""Root finders of the local split: Fp by gcd with t^p - t and equal-degree
splitting, QQ by Hensel lifting, against independent oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from punctual.artinian import _cofactor, _fp_roots, _rational_roots
from punctual.fields import QQ

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


def evaluate(coeffs, value):
    acc = 0 * value
    for c in reversed(coeffs):
        acc = acc * value + c
    return acc


def root_multiplicity(coeffs, root):
    """The s with coeffs = (t - root)^s * g and g(root) != 0, where g is
    the cofactor the local split uses (None when root is not a root)."""
    g = _cofactor(coeffs, root, QQ)
    if g is None:
        assert evaluate(coeffs, root) != 0
        return 0
    assert evaluate(g, root) != 0
    s = len(coeffs) - len(g)
    product = g
    for _ in range(s):
        product = times_linear(product, root)
    assert product == coeffs
    return s


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
    assert _fp_roots(coeffs, p) == scan_roots(coeffs, p)


@pytest.mark.parametrize("p", [2, 3, 5, 32003])
def test_fp_roots_of_a_fully_split_polynomial(p):
    coeffs = [1]
    for root in range(min(p, 12)):
        coeffs = [c % p for c in times_linear(coeffs, root)]
    assert _fp_roots(coeffs, p) == list(range(min(p, 12)))
    shifted = [(coeffs[0] + 1) % p] + coeffs[1:]
    assert _fp_roots(shifted, p) == scan_roots(shifted, p)


def test_fp_roots_near_the_largest_modulus():
    p = 2147483647
    coeffs = times_linear(times_linear([1], 2), p - 5)
    assert _fp_roots([c % p for c in coeffs], p) == [2, p - 5]
    assert _fp_roots([1, 0, 1], p) == []  # -1 is not a square when p = 3 mod 4


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
            product = [Fraction(0)] * (len(coeffs) + len(factor) - 1)
            for i, a in enumerate(coeffs):
                for j, b in enumerate(factor):
                    product[i + j] += a * b
            coeffs = product
    while not coeffs[-1]:
        coeffs.pop()
    return coeffs


@given(rational_polys())
@settings(max_examples=300, deadline=None)
def test_rational_roots_match_sympy(coeffs):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], t)
    expected = {Fraction(int(r.p), int(r.q)): s for r, s in poly.ground_roots().items()}
    roots = _rational_roots(coeffs)
    assert roots == sorted(expected)
    for root in roots:
        assert evaluate(coeffs, root) == 0
        assert root_multiplicity(coeffs, root) == expected[root]


def test_rational_roots_of_large_and_non_monic_polynomials():
    big = 10**30 + 57
    assert _rational_roots([Fraction(-big), Fraction(1)]) == [Fraction(big)]
    coeffs = times_linear(times_linear([Fraction(6)], Fraction(-big, 7)), Fraction(5, 3))
    assert _rational_roots(coeffs) == [Fraction(-big, 7), Fraction(5, 3)]
    assert _rational_roots([Fraction(2), Fraction(0), Fraction(1)]) == []  # t^2 + 2
    assert _rational_roots(times_linear([Fraction(0), Fraction(1)], Fraction(3))) == [
        Fraction(0),
        Fraction(3),
    ]


def test_rational_roots_when_the_first_prime_merges_two_roots():
    # 1 and 32004 are distinct but agree mod 32003, so the search moves on
    coeffs = times_linear(times_linear([Fraction(1)], Fraction(1)), Fraction(32004))
    assert _rational_roots(coeffs) == [Fraction(1), Fraction(32004)]
    repeated = times_linear(coeffs, Fraction(1))
    assert _rational_roots(repeated) == [Fraction(1), Fraction(32004)]
    assert root_multiplicity(repeated, Fraction(1)) == 2
    assert root_multiplicity(repeated, Fraction(2)) == 0
