"""Division and Buchberger: hand oracles, certificates, canonicality."""

import random

from hypothesis import given, settings, strategies as st

import punctual.groebner as groebner
from punctual.fields import PrimeField, QQ
from punctual.groebner import (
    buchberger,
    groebner_from_monomials,
    initial_ideal,
    is_reduced,
    is_zero_dimensional,
    normal_form,
    spolynomial_certificate,
)
from punctual.poly import (
    ALL_ORDERS,
    DEFAULT_ORDER,
    Monomial,
    MonomialOrder,
    Polynomial,
    parse_generators,
    parse_polynomial,
)

F101 = PrimeField(101)
LEX_XY = MonomialOrder("lex", "xy")
LEX_YX = MonomialOrder("lex", "yx")


def gb_of(text, order=DEFAULT_ORDER, field=QQ):
    return buchberger(parse_generators(text, field), order)


def test_normal_form_hand_oracles():
    # one-step: (x^2 + y) - (x^2 - y) = 2y
    f = parse_polynomial("x^2 + y", QQ)
    basis = [parse_polynomial("x^2 - y", QQ)]
    assert str(normal_form(f, basis, DEFAULT_ORDER)) == "2*y"
    # no leading monomial divides y
    g = parse_polynomial("y", QQ)
    assert normal_form(g, [parse_polynomial("x", QQ)], LEX_XY) == g
    # two-step: x^3 -> x*y, and x^3 - x*y = x(x^2 - y) lies in the ideal
    h = parse_polynomial("x^3", QQ)
    r = normal_form(h, basis, LEX_XY)
    assert str(r) == "x*y"
    gb = buchberger(basis, LEX_XY)
    assert gb.normal_form(h - r).is_zero()


def test_buchberger_pinned_cases():
    gb = gb_of("x, y")
    assert {str(g) for g in gb.generators} == {"x", "y"}
    gb = gb_of("y - x^2, x^3")
    assert {str(g) for g in gb.generators} == {"x^2 - y", "x*y", "y^2"}
    assert set(initial_ideal(gb)) == {Monomial(2, 0), Monomial(1, 1), Monomial(0, 2)}
    # a monomial ideal is its own reduced basis, under any order
    for order in (DEFAULT_ORDER, LEX_XY, LEX_YX):
        gb = gb_of("x^2, x*y, y^2", order)
        assert {str(g) for g in gb.generators} == {"x^2", "x*y", "y^2"}


def test_initial_ideal_lex_yx():
    gb = gb_of("y - x^2, x^3", LEX_YX)
    assert set(initial_ideal(gb)) == {Monomial(0, 1), Monomial(3, 0)}


def test_textbook_two_generator_example():
    # classic worked example: the reduced graded basis is x^2, x*y, y^2 - x/2
    gb = gb_of("x^3 - 2*x*y, x^2*y - 2*y^2 + x")
    assert [str(g) for g in gb.generators] == ["y^2 - 1/2*x", "x*y", "x^2"]
    assert spolynomial_certificate(gb)


def test_duplicate_generators_collapse():
    gb = gb_of("x, x, y")
    assert {str(g) for g in gb.generators} == {"x", "y"}


def test_zero_and_unit_ideals():
    zero = Polynomial.zero(QQ)
    gb = buchberger([zero, zero], DEFAULT_ORDER)
    assert gb.generators == ()
    assert not is_zero_dimensional(gb)
    unit = gb_of("x, y, x - 1")
    assert [str(g) for g in unit.generators] == ["1"]
    assert is_zero_dimensional(unit)


def test_is_zero_dimensional():
    assert is_zero_dimensional(gb_of("x^2, x*y, y^2"))
    assert not is_zero_dimensional(gb_of("x"))
    assert is_zero_dimensional(gb_of("y, x^3"))
    assert not is_zero_dimensional(gb_of("x*y"))


def test_idempotence_and_reducedness():
    for text in ("y - x^2, x^3", "x^2 - 1, y^2 - 1", "x^2 + y^2, x*y"):
        gb = gb_of(text)
        assert is_reduced(gb)
        again = buchberger(gb.generators, DEFAULT_ORDER)
        assert again.generators == gb.generators


def test_certificate_on_curated_bases():
    for text in ("y - x^2, x^3", "x^2 + y^2, x*y", "x^3 - 2*x, y"):
        for order in (DEFAULT_ORDER, LEX_XY, LEX_YX):
            assert spolynomial_certificate(gb_of(text, order))


def test_groebner_from_monomials_minimalizes():
    gb = groebner_from_monomials(
        [Monomial(2, 0), Monomial(2, 1), Monomial(0, 2), Monomial(1, 1)], DEFAULT_ORDER, QQ
    )
    assert set(initial_ideal(gb)) == {Monomial(2, 0), Monomial(1, 1), Monomial(0, 2)}
    assert is_reduced(gb)


def test_division_is_deterministic_largest_first():
    # x^2 reducible by both x and x^2 - y; the first divisor in sequence wins
    f = parse_polynomial("x^2", QQ)
    r1 = normal_form(f, parse_generators("x, x^2 - y", QQ), DEFAULT_ORDER)
    r2 = normal_form(f, parse_generators("x^2 - y, x", QQ), DEFAULT_ORDER)
    assert r1.is_zero()
    assert str(r2) == "y"


small_monos = st.builds(Monomial, st.integers(0, 3), st.integers(0, 3))


@st.composite
def fp_polys(draw):
    terms = draw(st.dictionaries(small_monos, st.integers(1, 100), min_size=1, max_size=4))
    return Polynomial(F101, {m: F101.from_int(c) for m, c in terms.items()})


@st.composite
def fp_ideals(draw):
    return draw(st.lists(fp_polys(), min_size=1, max_size=3))


@settings(max_examples=25, deadline=None)
@given(fp_ideals(), st.integers(0, 10**6))
def test_buchberger_ignores_generator_order(gens, seed):
    shuffled = list(gens)
    random.Random(seed).shuffle(shuffled)
    assert buchberger(gens, DEFAULT_ORDER).generators == buchberger(shuffled, DEFAULT_ORDER).generators


@settings(max_examples=25, deadline=None)
@given(fp_ideals())
def test_buchberger_certificate_randomized(gens):
    gb = buchberger(gens, DEFAULT_ORDER)
    assert spolynomial_certificate(gb)
    assert is_reduced(gb) or not gb.generators


@settings(max_examples=25, deadline=None)
@given(fp_ideals(), fp_polys())
def test_ideal_membership_consistency(gens, multiplier):
    gb = buchberger(gens, DEFAULT_ORDER)
    for g in gb.generators:
        assert gb.normal_form(multiplier * g).is_zero()


@settings(max_examples=25, deadline=None)
@given(fp_ideals(), fp_polys())
def test_division_correctness(gens, f):
    gb = buchberger(gens, DEFAULT_ORDER)
    if not gb.generators:
        return
    r = normal_form(f, gb.generators, DEFAULT_ORDER)
    assert gb.normal_form(f - r).is_zero()
    lms = gb.leading_monomials()
    for m in r.terms:
        assert not any(lm.divides(m) for lm in lms)


def sorted_every_step_normal_form(f, basis, order):
    """Reference division: re-sort the running remainder at every step and
    reduce its order-largest reducible monomial by the first basis element
    (in sequence order) whose leading monomial divides it."""
    inv, reduce = f.field.inv, f.field.reduce
    reducers = [
        (g.leading_monomial(order), inv(g.leading_coefficient(order)), g) for g in basis if g
    ]
    key = order.key_func()
    work = dict(f.terms)
    while True:
        target = None
        for m in sorted(work, key=key, reverse=True):
            for lm, lc_inv, g in reducers:
                if lm.divides(m):
                    target = (m, lm, lc_inv, g)
                    break
            if target:
                break
        if target is None:
            return Polynomial(f.field, work)
        m, lm, lc_inv, g = target
        factor = reduce(work[m] * lc_inv)
        shift = m.divided_by(lm)
        for mg, cg in g.terms.items():
            mm = mg * shift
            prev = work.get(mm)
            value = reduce(prev - factor * cg if prev is not None else -(factor * cg))
            if value:
                work[mm] = value
            else:
                work.pop(mm, None)


@st.composite
def division_cases(draw):
    """A polynomial and a divisor list that is in general no Groebner basis:
    non-monic divisors, possibly a zero divisor, and possibly two divisors
    with the same leading monomial but different leading coefficients and
    tails."""
    field = draw(st.sampled_from([QQ, PrimeField(7), F101]))
    order = draw(st.sampled_from(ALL_ORDERS))
    coefficient = st.builds(field.from_int, st.integers(-9, 9))

    def poly(max_exponent, min_size=0):
        monos = st.builds(Monomial, st.integers(0, max_exponent), st.integers(0, max_exponent))
        terms = draw(st.dictionaries(monos, coefficient, min_size=min_size, max_size=5))
        return Polynomial(field, terms)

    divisors = [poly(2, min_size=1) for _ in range(draw(st.integers(0, 3)))]
    nonzero = [d for d in divisors if d]
    if nonzero and draw(st.booleans()):
        d = draw(st.sampled_from(nonzero))
        lm, key = d.leading_monomial(order), order.key_func()
        tail = {m: c for m, c in poly(2).terms.items() if key(m) < key(lm)}
        lead = draw(coefficient.filter(bool))
        divisors.insert(draw(st.integers(0, len(divisors))), Polynomial(field, {lm: lead, **tail}))
    if draw(st.booleans()):
        divisors.insert(draw(st.integers(0, len(divisors))), Polynomial.zero(field))
    return poly(5), divisors, order


@settings(max_examples=200, deadline=None)
@given(division_cases())
def test_single_pass_division_matches_sorted_every_step(case):
    f, divisors, order = case
    assert normal_form(f, divisors, order) == sorted_every_step_normal_form(f, divisors, order)


def test_spair_sequence_is_pinned(monkeypatch):
    # spolynomial calls per Buchberger run, measured with the list-scan pair
    # selection that the lcm-keyed heap replaced; the same selection order
    # forms the same S-polynomials
    cases = (
        ("x^3 + 2*x*y - y^2 + x, y^3 - x^2*y + 3*x*y + y", LEX_XY, 14),
        ("x^3 + x^2*y - 2*x*y^2 + y^3 + x - y, x^2*y + 3*x*y^2 - y^3 + x^2 + 2*y", DEFAULT_ORDER, 5),
        ("x^3, x^2*y, x*y^2 - x^2, y^4", DEFAULT_ORDER, 5),
    )
    calls = []
    original = groebner.spolynomial
    monkeypatch.setattr(groebner, "spolynomial", lambda *args: calls.append(args) or original(*args))
    for text, order, expected in cases:
        calls.clear()
        gb_of(text, order)
        assert len(calls) == expected, text
