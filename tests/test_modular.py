"""The certified modular kernels over QQ: the minimal polynomial of an
operator and the squarefree part, and the image g(M)v read off the Krylov
space of v, against the Horner and Fraction routes they replaced (kept in
``conftest``), with unlucky primes forced through the prime source, lifts
whose exact check never accepts, and the ladder x^k - 1, (y - x)^k - x,
whose Fraction route ran for minutes at k = 11.  The kernels return
primitive integer polynomials with a positive leading coefficient, which
are compared exactly with the primitive multiples of the monic Fraction
oracles; their vectors are integer vectors."""

import subprocess
import sys
from fractions import Fraction
from itertools import islice
from math import comb, gcd, prod
from pathlib import Path

import pytest
from conftest import (
    dense_rank,
    euclid_squarefree_part,
    fraction_horner,
    fraction_minimal_polynomial,
    horner,
    integer_image,
)
from hypothesis import given, settings, strategies as st

import punctual.artinian as artinian
import punctual.univariate as univariate
from punctual.artinian import LocalInvariants, analyze_quotient
from punctual.cli import main
from punctual.fields import QQ, PrimeField
from punctual.groebner import buchberger
from punctual.poly import DEFAULT_ORDER, parse_generators
from punctual.univariate import (
    _cofactor,
    _integral,
    _primitive,
    _reproduces,
    _squarefree_part,
    krylov_image,
    rational_minimal_polynomial,
)

# the first primes of the source: 32003, 32009, 32027, ...; the tests that
# force unlucky ones come before the differential tests
SOURCE = [field.p for field in islice(univariate._prime_fields(), 16)]


def fields(*primes):
    return [PrimeField(p) for p in primes]


def force_source(monkeypatch, primes):
    """Make the kernels draw exactly these primes, and record the primes at
    which a Krylov dependence is taken."""
    monkeypatch.setattr(univariate, "_prime_fields", lambda: iter(fields(*primes)))
    used = []
    krylov = univariate.krylov_dependence

    def recording(columns, vector, p, packed=None):
        used.append(p)
        return krylov(columns, vector, p, packed)

    monkeypatch.setattr(univariate, "krylov_dependence", recording)
    return used


def qq(rows):
    return [[Fraction(c) for c in row] for row in rows]


def diagonal(*entries):
    return [
        [Fraction(c) if i == j else Fraction(0) for j in range(len(entries))]
        for i, c in enumerate(entries)
    ]


def primitive_minimal_polynomial(matrix, vector):
    """The oracle's monic minimal polynomial as the kernel returns it: the
    primitive integer multiple, positive at the top."""
    return _primitive(fraction_minimal_polynomial(matrix, [Fraction(c) for c in vector]))


def integral(vector):
    """An integer vector with the minimal polynomials of a rational one."""
    return _integral(vector, QQ)[1]


ONES = [1, 1]

def test_a_prime_dividing_a_denominator_is_skipped(monkeypatch):
    q = SOURCE[0]
    matrix = qq([[Fraction(1, q), 1], [0, 2]])
    expected = primitive_minimal_polynomial(matrix, ONES)
    used = force_source(monkeypatch, SOURCE[:6])
    assert rational_minimal_polynomial(integer_image(matrix, QQ), ONES)[0] == expected
    assert q not in used and used


def record_moduli(monkeypatch):
    """Record the lift's modulus after each prime it is offered."""
    moduli = []

    class Recording(univariate._Lift):
        def add(self, image, p):
            candidate = super().add(image, p)
            moduli.append(self.modulus)
            return candidate

    monkeypatch.setattr(univariate, "_Lift", Recording)
    return moduli


def record_checks(monkeypatch):
    """Record each candidate the exact check f(M)v = 0 sees, and whether it
    passed."""
    checks = []
    exact = univariate.krylov_image

    def recording(coeffs, image, vector, space, field):
        value = exact(coeffs, image, vector, space, field)
        checks.append((coeffs, not any(value)))
        return value

    monkeypatch.setattr(univariate, "krylov_image", recording)
    return checks


def test_a_prime_that_drops_the_degree_is_not_combined(monkeypatch):
    # mod q the two eigenvalues 1 and 1 + q meet, and the degree drops to 1;
    # q comes second, before two primes of full degree can finish the lift
    q = SOURCE[2]
    matrix = diagonal(1, 1 + q)
    expected = primitive_minimal_polynomial(matrix, ONES)
    assert len(expected) == 3
    moduli = record_moduli(monkeypatch)
    used = force_source(monkeypatch, [SOURCE[0], q, SOURCE[1], SOURCE[3]])
    assert rational_minimal_polynomial(integer_image(matrix, QQ), ONES)[0] == expected
    assert used == [SOURCE[0], q, SOURCE[1]]
    assert moduli == [SOURCE[0], SOURCE[0], SOURCE[0] * SOURCE[1]]


def test_a_small_minimal_polynomial_takes_one_prime(monkeypatch):
    # (t - 1)(t - 2)(t - 5): each coefficient is reconstructed from one prime
    # and the exact check accepts it at once
    matrix = diagonal(1, 2, 5)
    vector = [1] * 3
    used = force_source(monkeypatch, SOURCE[:4])
    assert rational_minimal_polynomial(integer_image(matrix, QQ), vector)[0] == [-10, 17, -8, 1]
    assert used == [SOURCE[0]]


def test_the_exact_check_refuses_a_first_reconstruction_of_too_low_degree(monkeypatch):
    # mod q the Krylov rank of diag(1, 1 + q) on (1, 1) drops to 1, and the
    # first prime reconstructs t - 1 at once; only the exact check stops it
    q = SOURCE[0]
    matrix = diagonal(1, 1 + q)
    expected = primitive_minimal_polynomial(matrix, ONES)
    checks = record_checks(monkeypatch)
    used = force_source(monkeypatch, SOURCE[:6])
    assert rational_minimal_polynomial(integer_image(matrix, QQ), ONES)[0] == expected
    assert checks[0] == ([-1, 1], False)
    assert checks[-1] == (expected, True) and len(expected) == 3
    assert used[0] == q and len(used) > 1


def test_a_lift_that_only_unlucky_primes_reproduce_fails_the_certificate(monkeypatch):
    # both q1 and q2 see t - 1, which the exact check f(M)v = 0 refuses
    q1, q2 = SOURCE[0], SOURCE[1]
    matrix = diagonal(1, 1 + q1 * q2)
    expected = primitive_minimal_polynomial(matrix, ONES)
    force_source(monkeypatch, SOURCE[:10])
    assert rational_minimal_polynomial(integer_image(matrix, QQ), ONES)[0] == expected
    assert len(expected) == 3


def test_a_candidate_with_a_denominator_off_the_operator_never_reaches_the_check(monkeypatch):
    # M = diag(1, 2) is integral (D = 1), so its minimal polynomial is monic
    # in Z[t]: t^2 - 3t + 1/3, as 3t^2 - 9t + 1, is refused before the check
    impostor = [1, -9, 3]
    offered = []

    class Offering(univariate._Lift):
        def add(self, image, p):
            candidate = super().add(image, p)
            offered.append(candidate)
            return impostor if len(offered) == 1 else candidate

    monkeypatch.setattr(univariate, "_Lift", Offering)
    checks = record_checks(monkeypatch)
    force_source(monkeypatch, SOURCE[:4])
    image = integer_image(diagonal(1, 2), QQ)
    assert rational_minimal_polynomial(image, ONES)[0] == [2, -3, 1]
    assert len(offered) == 2 and [coeffs for coeffs, _ in checks] == [[2, -3, 1]]


def test_coefficients_wider_than_one_prime_are_combined(monkeypatch):
    a, b = 10**12 + 39, -(10**12) - 61
    matrix = diagonal(Fraction(a, 7), b)
    expected = primitive_minimal_polynomial(matrix, ONES)
    used = force_source(monkeypatch, SOURCE[:12])
    assert rational_minimal_polynomial(integer_image(matrix, QQ), ONES)[0] == expected
    assert len(used) > 4  # 80-bit coefficients need several 15-bit primes


def test_the_prime_fields_are_built_once():
    first = list(islice(univariate._prime_fields(), 3))
    assert [f.p for f in first] == [32003, 32009, 32027]
    assert all(a is b for a, b in zip(first, univariate._prime_fields()))


def test_importing_the_engine_builds_no_prime_field():
    code = "import punctual.cli, punctual.univariate as u; print(u._prime_field.cache_info())"
    src = Path(univariate.__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert "currsize=0" in run.stdout


def test_a_prime_dividing_the_leading_coefficient_is_skipped(monkeypatch):
    q = SOURCE[0]
    force_source(monkeypatch, SOURCE[:2])
    part, field = _squarefree_part([-1, 0, q])
    assert part == [-1, 0, q] and field.p == SOURCE[1]


def test_a_prime_that_merges_two_roots_does_not_decide(monkeypatch):
    # (t - 1)(t - 1 - q) is squarefree, but not mod q
    q = SOURCE[0]
    coeffs = [1 + q, -2 - q, 1]
    force_source(monkeypatch, SOURCE[:2])
    assert _squarefree_part(coeffs) == ([1 + q, -2 - q, 1], PrimeField(SOURCE[1]))


def test_a_repeated_factor_is_removed_past_an_unlucky_prime(monkeypatch):
    # (t - 1)^2 (t - 1 - q): the gcd with f' is t - 1, but (t - 1)^2 mod q
    q = SOURCE[0]
    coeffs = [1]
    for root in (1, 1, 1 + q):
        coeffs = [b - root * a for a, b in zip(coeffs + [0], [0] + coeffs)]
    force_source(monkeypatch, SOURCE[:8])
    part, field = _squarefree_part(coeffs)
    assert part == euclid_squarefree_part(coeffs) == [1 + q, -2 - q, 1]
    assert field.p != q


def test_a_gcd_that_only_unlucky_primes_reproduce_fails_the_trial_division(monkeypatch):
    # mod q1 and mod q2 the gcd of f = (t - 1)^2 (t - c) and f' is (t - 1)^2,
    # which divides f but not f'
    q1, q2 = SOURCE[0], SOURCE[1]
    c = 1 + q1 * q2
    coeffs = [1]
    for root in (1, 1, c):
        coeffs = [b - root * a for a, b in zip(coeffs + [0], [0] + coeffs)]
    force_source(monkeypatch, SOURCE[:10])
    part, field = _squarefree_part(coeffs)
    assert part == euclid_squarefree_part(coeffs) == [c, -1 - c, 1]


# the first 24 primes of the source, each unlucky for the roots 1 and 1 + P
P = prod(field.p for field in islice(univariate._prime_fields(), 24))


def test_two_dozen_unlucky_primes_in_a_row_do_not_end_the_squarefree_lift(capsys):
    # mod each prime of P the roots of x^2 - (2 + P) x + 1 + P meet, so the
    # trial division refuses the reconstructed gcd x - 1 over and over
    assert main(["analyze", "--ideal", f"x^2 - {2 + P}*x + {1 + P}, y"]) == 0
    points = [line.split()[:2] for line in capsys.readouterr().out.splitlines()[4:]]
    assert points == [["(1,", "0)"], [f"({1 + P},", "0)"]]


def test_a_known_polynomial_is_checked_after_one_prime(monkeypatch):
    # the right hint is accepted after one prime; one that only the first
    # prime reproduces, or of another degree, is refused by the exact check
    q = SOURCE[0]
    matrix = diagonal(Fraction(1, 3), 2, 5)
    vector = [1] * 3
    expected = primitive_minimal_polynomial(matrix, vector)
    assert expected == [-10, 37, -22, 3]  # (3t - 1)(t - 2)(t - 5)
    image = integer_image(matrix, QQ)
    used = force_source(monkeypatch, SOURCE[:12])
    assert rational_minimal_polynomial(image, vector, [expected[:-1], expected])[0] == expected
    assert used == [q]
    used.clear()
    impostor = [expected[0] + q] + expected[1:]
    assert rational_minimal_polynomial(image, vector, [impostor])[0] == expected
    assert used[0] == q and len(used) > 1


def test_a_hint_whose_leading_coefficient_the_prime_divides_is_not_offered(monkeypatch):
    # q*F = q*F_d * image mod q for any image, but q*F / (q*F_d) is F / F_d,
    # not p-integral with it: the hint is refused and F is lifted instead
    q = SOURCE[0]
    f = [2, -3, 1]
    image = [c % q for c in f]
    assert _reproduces(f, image, q) and _reproduces([3 * c for c in f], image, q)
    assert not _reproduces([q * c for c in f], image, q)
    assert not _reproduces([q * c for c in f], [1, 0, 1], q)
    used = force_source(monkeypatch, SOURCE[:4])
    hint = [q * c for c in f]
    assert rational_minimal_polynomial(integer_image(diagonal(1, 2), QQ), ONES, [hint])[0] == f
    assert used == [q]


def test_two_dozen_unlucky_primes_in_a_row_do_not_end_the_minimal_polynomial_lift():
    # mod each prime of P the Krylov rank of diag(1, 1 + P) on (1, 1) drops to
    # 1, so the exact check refuses t - 1 at each reconstruction
    image = integer_image(diagonal(1, 1 + P), QQ)
    assert rational_minimal_polynomial(image, ONES)[0] == [1 + P, -2 - P, 1]


def run_isolated(code):
    """Run code against the engine in a fresh interpreter, so that a lift
    that never ends fails by timeout instead of hanging the suite; return
    what it prints."""
    src = Path(univariate.__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.split()


def test_a_certificate_that_never_accepts_ends_the_minimal_polynomial_lift():
    word, seconds = run_isolated("""
import time
import punctual.univariate as u
u.krylov_image = lambda coeffs, image, vector, space, field: [1]  # f(M)v is never zero
image = u.IntegerImage(3, [[(0, 1)], [(0, 6), (1, 15)]])  # [[1/3, 2], [0, 5]], by columns
start = time.perf_counter()
try:
    u.rational_minimal_polynomial(image, [1, 1])
except ArithmeticError:
    print("ArithmeticError", time.perf_counter() - start)
""")
    assert word == "ArithmeticError" and float(seconds) < 5


def test_a_trial_division_that_never_accepts_ends_the_squarefree_lift():
    word, seconds = run_isolated("""
import time
import punctual.univariate as u
exact = u.divmod
def inexact(a, b, p):  # every division over Z leaves a remainder
    return (exact(a, b, p)[0], [1]) if not p else exact(a, b, p)
u.divmod = inexact
start = time.perf_counter()
try:
    u._squarefree_part([-2, 5, -4, 1])  # (t - 1)^2 (t - 2)
except ArithmeticError:
    print("ArithmeticError", time.perf_counter() - start)
""")
    assert word == "ArithmeticError" and float(seconds) < 5


entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-4, 4)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)),
    st.builds(Fraction, st.integers(-(10**12), 10**12), st.sampled_from([1, 3, 32003, 10**6 + 3])),
)


@st.composite
def operators(draw):
    """(M, v) over QQ: a random matrix, or a diagonal one with repeated
    entries conjugated by a unitriangular integer matrix (repeated
    eigenvalues, smaller minimal polynomials), and a random vector made
    integral, the class of 1 or zero."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        matrix = [[draw(entries) for _ in range(n)] for _ in range(n)]
    else:
        values = draw(st.lists(entries, min_size=1, max_size=2))
        d = [draw(st.sampled_from(values)) for _ in range(n)]
        s = [[Fraction(1 if i == j else draw(st.integers(-2, 2)) if j > i else 0)
              for j in range(n)] for i in range(n)]
        s_inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for j in range(n - 1, -1, -1):  # back substitution on the unit upper triangle
            for i in range(j - 1, -1, -1):
                for c in range(n):
                    s_inv[i][c] -= s[i][j] * s_inv[j][c]
        matrix = [
            [sum(s[i][k] * d[k] * s_inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        if draw(st.booleans()):  # a Jordan block on top
            matrix[0][n - 1] += 1
    kind = draw(st.sampled_from(["random", "one", "zero"]))
    if kind == "random":
        vector = [draw(entries) for _ in range(n)]
    else:
        vector = [Fraction(int(kind == "one" and i == 0)) for i in range(n)]
    return matrix, integral(vector)


@given(operators())
@settings(max_examples=300, deadline=None)
def test_minimal_polynomial_matches_the_fraction_krylov(case):
    matrix, vector = case
    expected = primitive_minimal_polynomial(matrix, vector)
    assert rational_minimal_polynomial(integer_image(matrix, QQ), vector)[0] == expected


@st.composite
def image_cases(draw):
    """(field, M, v, g): a random operator of size <= 8 and an integer
    vector, with denominators over QQ (D > 1) made integral, and a monic g
    of degree <= 8, cut down to the degree of the least f with f(M)v = 0
    where it is larger."""
    field = draw(st.sampled_from([QQ] + fields(2, 7, 32003, 2**31 - 1)))
    element = entries if field == QQ else st.integers(0, field.p - 1)
    n = draw(st.integers(1, 8))
    matrix = [[draw(element) for _ in range(n)] for _ in range(n)]
    vector = integral([draw(element) for _ in range(n)])
    coeffs = [draw(element) for _ in range(draw(st.integers(0, 8)))] + [field.one()]
    return field, matrix, vector, coeffs


@given(image_cases())
@settings(max_examples=300, deadline=None)
def test_the_krylov_space_image_matches_both_horners(case):
    # on the space the minimal polynomial f of M on v was found on: f itself
    # (the certificate), every root's cofactor, a degree-0 g and a random g;
    # over QQ each g is the primitive multiple, positive at the top, of the
    # monic polynomial the Fraction oracle applies
    field, matrix, vector, coeffs = case
    p = field.characteristic
    image = integer_image(matrix, field)
    f, space = artinian._minimal_polynomial(image, vector, field)
    cofactors = [_cofactor(f, root, field) for root in univariate.roots(f, field)]
    assert krylov_image([1], image, vector, space, field) is vector
    random = coeffs[: len(f) - 1] + [field.one()]
    for g in [f, *cofactors, random if p else _primitive(random)]:
        assert p or (gcd(*g) == 1 and g[-1] > 0)
        new = krylov_image(g, image, vector, space, field)
        assert new == horner(g, image, vector, field)
        old = fraction_horner(g if p else [Fraction(c, g[-1]) for c in g], matrix, vector, field)
        if p:
            assert new == old
            continue
        # a positive multiple, stored as a primitive integer vector unless g = 1
        assert any(new) == any(old)
        assert dense_rank([new, old], QQ) <= 1
        assert all(a * b >= 0 for a, b in zip(new, old))
        if len(g) > 1:
            assert all(c.denominator == 1 for c in new)
            assert gcd(*(c.numerator for c in new)) == (1 if any(new) else 0)
    assert not any(krylov_image(f, image, vector, space, field))


def test_a_degree_zero_cofactor_returns_the_vector_itself():
    for field, vector in ((QQ, [1, 6]), (PrimeField(7), [3, 5])):
        matrix = [[field.one(), field.zero()], [field.one(), field.one()]]
        image = integer_image(matrix, field)
        _, space = artinian._minimal_polynomial(image, vector, field)
        assert krylov_image([1], image, vector, space, field) is vector


fractions = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**4))


@st.composite
def repeated_factor_polys(draw):
    """Products of rational factors of degree <= 2, each to a power <= 3."""
    coeffs = [draw(fractions.filter(bool))]
    for _ in range(draw(st.integers(1, 3))):
        factor = draw(st.lists(fractions, min_size=2, max_size=3).filter(lambda f: f[-1] != 0))
        for _ in range(draw(st.integers(1, 3))):
            product = [Fraction(0)] * (len(coeffs) + len(factor) - 1)
            for i, x in enumerate(coeffs):
                for j, y in enumerate(factor):
                    product[i + j] += x * y
            coeffs = product
    return coeffs


@given(repeated_factor_polys())
@settings(max_examples=200, deadline=None)
def test_squarefree_part_matches_euclid_over_qq(coeffs):
    part, field = _squarefree_part(_primitive(coeffs))
    assert part == euclid_squarefree_part(coeffs)
    assert part[-1] % field.p


def ladder(k):
    """x^k - 1, (y - x)^k - x, expanded."""
    terms = [(comb(k, j) * (-1) ** j, j, k - j) for j in range(k + 1)] + [(-1, 1, 0)]
    text = ""
    for c, a, b in terms:
        mono = "*".join(f"{v}^{e}" if e > 1 else v for v, e in (("x", a), ("y", b)) if e)
        body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        text += (f"-{body}" if c < 0 else body) if not text else f" {'-' if c < 0 else '+'} {body}"
    return f"x^{k} - 1, {text}"


@pytest.mark.parametrize("k", range(3, 12))
def test_ladder_rows(k):
    # x^k = 1 gives x = 1, and x = -1 for even k; then (y - x)^k = x gives
    # y = 2, and y = 0 for even k, at x = 1 and nothing at x = -1.  The
    # Jacobian k^2 x^(k-1) (y - x)^(k-1) is nonzero there, so each point is
    # reduced, and the rest of the k^2 is carried by non-rational points.
    gb = buchberger(parse_generators(ladder(k), QQ), DEFAULT_ORDER)
    decomposition = analyze_quotient(gb)
    points = [(1, 2)] if k % 2 else [(1, 0), (1, 2)]
    assert decomposition.components == tuple(
        LocalInvariants((Fraction(px), Fraction(py)), 1, 1, 2, 1, 1) for px, py in points
    )
    assert decomposition.residual_dimension == k * k - len(points)
    assert decomposition.colength == k * k
