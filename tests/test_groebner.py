"""Division and Buchberger: hand oracles, certificates, canonicality."""

import random
from fractions import Fraction
from heapq import heappop, heappush

import pytest
from conftest import coprime, is_reduced, monic
from hypothesis import given, settings, strategies as st

import punctual.groebner as groebner
from punctual.fields import PrimeField, QQ
from punctual.groebner import (
    buchberger,
    initial_ideal,
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
F32003 = PrimeField(32003)
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
    assert normal_form(h - r, gb.generators, gb.order).is_zero()


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


def test_buchberger_minimalizes_monomials():
    monomials = [Monomial(2, 0), Monomial(2, 1), Monomial(0, 2), Monomial(1, 1)]
    gb = buchberger([Polynomial.monomial(QQ, m) for m in monomials], DEFAULT_ORDER)
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
        assert normal_form(multiplier * g, gb.generators, gb.order).is_zero()


@settings(max_examples=25, deadline=None)
@given(fp_ideals(), fp_polys())
def test_division_correctness(gens, f):
    gb = buchberger(gens, DEFAULT_ORDER)
    if not gb.generators:
        return
    r = normal_form(f, gb.generators, DEFAULT_ORDER)
    assert normal_form(f - r, gb.generators, gb.order).is_zero()
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
    field = draw(st.sampled_from([QQ, PrimeField(7), F101, F32003]))
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
    # S-pairs formed per Buchberger run with the Gebauer-Moeller pair
    # update (calls to the packed `_spair`), then without the criteria
    # (calls to `spolynomial` in the reference loop, which skips only
    # coprime pairs), the count before the update: 14, 5, 5, 13 and 14.
    # The fourth case is a `sample` draw: two dense degree-4 polynomials
    # with no constant term.  The fifth forms 7 S-pairs if the pairs are
    # popped in lex order instead of by degree.
    dense_sample_pair = (
        "31*x + 39*y + 14*x^2 + 93*x*y + 51*y^2 + 62*x^3 + 20*x^2*y + 12*x*y^2"
        " + 9*y^3 + 3*x^4 + 52*x^3*y + 71*x^2*y^2 + 38*x*y^3 + 98*y^4,"
        " 8*x + 29*y + 67*x^2 + 69*x*y + 47*y^2 + 36*x^3 + 23*x^2*y + 14*x*y^2"
        " + 34*y^3 + 28*x^4 + 4*x^3*y + 83*x^2*y^2 + 34*x*y^3 + 35*y^4"
    )
    cases = (
        ("x^3 + 2*x*y - y^2 + x, y^3 - x^2*y + 3*x*y + y", LEX_XY, QQ, 6, 14),
        (
            "x^3 + x^2*y - 2*x*y^2 + y^3 + x - y, x^2*y + 3*x*y^2 - y^3 + x^2 + 2*y",
            DEFAULT_ORDER,
            QQ,
            3,
            5,
        ),
        ("x^3, x^2*y, x*y^2 - x^2, y^4", DEFAULT_ORDER, QQ, 3, 5),
        (dense_sample_pair, DEFAULT_ORDER, PrimeField(32003), 5, 13),
        ("x^3*y^2, x^4*y^2 + y^4 + x^2, x*y^2 + x^4*y^2", DEFAULT_ORDER, QQ, 5, 14),
    )
    calls, reference_calls = [], []
    spair, spolynomial = groebner._spair, groebner.spolynomial
    monkeypatch.setattr(groebner, "_spair", lambda *args: calls.append(args) or spair(*args))
    monkeypatch.setattr(
        groebner, "spolynomial", lambda *args: reference_calls.append(args) or spolynomial(*args)
    )
    for text, order, field, expected, without_criteria in cases:
        calls.clear()
        reference_calls.clear()
        gb = gb_of(text, order, field)
        assert len(calls) == expected < without_criteria and not reference_calls, text
        assert gb.generators == criteria_free_buchberger(parse_generators(text, field), order)
        assert len(reference_calls) == without_criteria and len(calls) == expected, text


def criteria_free_buchberger(generators, order):
    """Reference Buchberger, without pair criteria: every pair of basis
    elements is queued, coprime ones are skipped when popped, and each
    S-polynomial is divided by the whole basis.  The result is minimalized
    and each element reduced by the others, giving the reduced basis."""
    key = order.key_func()
    basis, lms, pairs = [], [], []

    def add(g):
        lm = g.leading_monomial(order)
        for i, other in enumerate(lms):
            heappush(pairs, (key(other.lcm(lm)), i, len(lms)))
        basis.append(g)
        lms.append(lm)

    for g in generators:
        if g:
            add(monic(g, order))
    while pairs:
        _, i, j = heappop(pairs)
        if coprime(lms[i], lms[j]):
            continue
        s_poly = groebner.spolynomial(basis[i], basis[j], order)
        remainder = sorted_every_step_normal_form(s_poly, basis, order)
        if remainder:
            add(monic(remainder, order))
    minimal = []
    for g in sorted(basis, key=lambda g: key(g.leading_monomial(order))):
        if not any(m.leading_monomial(order).divides(g.leading_monomial(order)) for m in minimal):
            minimal.append(g)
    return tuple(
        monic(sorted_every_step_normal_form(g, minimal[:idx] + minimal[idx + 1 :], order), order)
        for idx, g in enumerate(minimal)
    )


@st.composite
def ideal_cases(draw):
    """Generator lists that exercise the pair update: zero generators,
    duplicates, non-monic elements, and a term multiple of another
    generator, so that one leading monomial divides another and, depending
    on the shuffled order, prunes the reducer list or is minimalized away
    at the end."""
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(7), F101, F32003]))
    order = draw(st.sampled_from(ALL_ORDERS))
    coefficient = st.builds(field.from_int, st.integers(-9, 9))
    monos = st.builds(Monomial, st.integers(0, 3), st.integers(0, 3))

    def poly():
        return Polynomial(field, draw(st.dictionaries(monos, coefficient, max_size=4)))

    gens = [poly() for _ in range(draw(st.integers(1, 3)))]
    nonzero = [g for g in gens if g]
    if nonzero and draw(st.booleans()):
        g = draw(st.sampled_from(nonzero))
        shift = draw(st.builds(Monomial, st.integers(0, 1), st.integers(0, 1)))
        gens.append(g.times_term(shift, draw(coefficient.filter(bool))))
    if draw(st.booleans()):
        gens.append(draw(st.sampled_from(gens)))
    if draw(st.booleans()):
        gens.append(Polynomial.zero(field))
    return draw(st.permutations(gens)), order


@settings(max_examples=300, deadline=None)
@given(ideal_cases())
def test_pair_criteria_match_criteria_free_loop(case):
    gens, order = case
    gb = buchberger(gens, order)
    assert gb.generators == criteria_free_buchberger(gens, order)
    assert gb.leading_monomials() == tuple(g.leading_monomial(order) for g in gb.generators)


def smallest_width(polys):
    """The narrowest field width that still packs every input monomial, so
    that the first product past the input's degrees overflows."""
    return max((m.a + m.b for g in polys for m in g.terms), default=1).bit_length() or 1


def recorded_widths(monkeypatch):
    """Start every packed run at `smallest_width`; list the widths tried."""
    widths = []

    class Recording(groebner._Packing):
        def __init__(self, order, width):
            widths.append(width)
            super().__init__(order, width)

    monkeypatch.setattr(groebner, "_Packing", Recording)
    monkeypatch.setattr(groebner, "_width", smallest_width)
    return widths


def test_width_restart_gives_the_same_results(monkeypatch):
    # lex bases reach degree d^2 from inputs of degree d; the first S-pair
    # of x - y^3 and x*y is y^4; and the lex normal form of x^3 + y by
    # 2*x - y^9 has degree 27 from inputs of degree 9
    cases = [
        ("x - y^3, x*y", LEX_XY, QQ),
        ("x^3 + 2*x*y - y^2 + x, y^3 - x^2*y + 3*x*y + y", LEX_XY, QQ),
        ("x^3 + 2*x*y - y^2 + x, y^3 - x^2*y + 3*x*y + y", LEX_YX, F32003),
        ("x^4 + y^3 + x*y + 1, y^4 + x^3 + 3*x", LEX_XY, PrimeField(7)),
        ("y - x^2, x^3", DEFAULT_ORDER, QQ),
    ]
    expected = [gb_of(*case).generators for case in cases]
    division = parse_polynomial("x^3 + y", QQ), parse_generators("2*x - y^9", QQ)
    remainder = normal_form(*division, LEX_XY)
    widths = recorded_widths(monkeypatch)
    for case, generators in zip(cases, expected):
        widths.clear()
        assert gb_of(*case).generators == generators, case
        assert len(widths) > 1 and widths[1:] == [2 * w for w in widths[:-1]], case
    widths.clear()
    assert normal_form(*division, LEX_XY) == remainder
    assert remainder == sorted_every_step_normal_form(*division, LEX_XY)
    assert str(remainder) == "1/8*y^27 + y" and len(widths) > 1


@settings(max_examples=100, deadline=None)
@given(ideal_cases(), division_cases())
def test_narrowest_start_matches_the_oracles(ideals, division):
    # each run starts at the narrowest width and restarts on overflow
    gens, order = ideals
    f, divisors, division_order = division
    with pytest.MonkeyPatch.context() as monkeypatch:
        recorded_widths(monkeypatch)
        assert buchberger(gens, order).generators == criteria_free_buchberger(gens, order)
        assert normal_form(f, divisors, division_order) == sorted_every_step_normal_form(
            f, divisors, division_order
        )


def test_exponents_past_two_to_the_64():
    # S-pairs and divisions on monomials with exponents past 2^64 and 2^32
    big = 2**64 + 1
    gens = parse_generators(f"x^{big} - y^2, x*y", QQ)
    for order in ALL_ORDERS:
        assert buchberger(gens, order).generators == criteria_free_buchberger(gens, order)
    gb = buchberger(gens, DEFAULT_ORDER)
    assert [str(g) for g in gb.generators] == ["x*y", "y^3", f"x^{big} - y^2"]
    lex = parse_generators("x^4294967297 - y^2, x*y - y", F32003)
    assert buchberger(lex, LEX_YX).generators == criteria_free_buchberger(lex, LEX_YX)
    # x^big*y^2 leads in every order, and f takes two reduction steps
    f = Polynomial(F32003, {Monomial(2 * big, big): 3, Monomial(2, 5): 1})
    divisors = [Polynomial(F32003, {Monomial(big, 2): 5, Monomial(3, 0): 1})]
    for order in ALL_ORDERS:
        assert normal_form(f, divisors, order) == sorted_every_step_normal_form(f, divisors, order)


def _sympy_reduced_basis(gens, order, sympy):
    """sympy's reduced basis of the same ideal, as monic punctual polynomials."""
    x, y = sympy.symbols("x y")
    field = gens[0].field
    variables = (x, y) if order.precedence == "xy" else (y, x)
    tag = {"lex": "lex", "deglex": "grlex", "degrevlex": "grevlex"}[order.tag]

    def coefficient(c):
        return sympy.Rational(c.numerator, c.denominator) if field is QQ else c

    exprs = [sum((coefficient(c) * x**m.a * y**m.b for m, c in g.terms.items()), sympy.S.Zero) for g in gens]
    options = {} if field is QQ else {"modulus": field.p}
    basis = sympy.groebner(exprs, *variables, order=tag, **options)
    out = []
    for expr in basis.exprs:
        # sympy gives residues mod p symmetrically, in (-p/2, p/2]
        terms = {
            Monomial(a, b): Fraction(c.p, c.q) if field is QQ else int(c) % field.p
            for (a, b), c in sympy.Poly(expr, x, y, **options).terms()
        }
        out.append(monic(Polynomial(field, terms), order))
    key = order.key_func()
    return tuple(sorted(out, key=lambda g: key(g.leading_monomial(order))))


@settings(max_examples=100, deadline=None)
@given(ideal_cases())
def test_buchberger_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    gens, order = case
    if not any(gens):
        assert buchberger(gens, order).generators == ()
        return
    assert buchberger(gens, order).generators == _sympy_reduced_basis(gens, order, sympy)
