"""Quotient bases, local splitting, socle and generator counts, multiplicity."""

from fractions import Fraction

import pytest
from conftest import (
    dense_kernel_basis,
    dense_mat_vec,
    dense_rank,
    dense_rref,
    dense_of,
    densify,
    division_operators,
    evaluate,
    horner,
    is_zero_matrix,
    local_ideal_truncation,
    mat_sub,
    minimal_generator_count,
    pairwise_components,
    primitive_basis,
    scaled_identity,
    stacked_socle_dimension,
    translated,
    vector_minimal_polynomial,
)
from hypothesis import example, given, settings, strategies as st

import punctual.artinian as artinian
import punctual.linalg as linalg
from punctual.artinian import (
    LocalInvariants,
    analyze_quotient,
    generator_count,
    local_component_at,
    local_components,
    local_invariants,
    multiplication_matrices,
    multiplicity_from_socle,
    nilpotency_index,
    quotient_basis,
    socle_dimension,
    truncation_monomials,
)
from punctual.errors import NotZeroDimensional
from punctual.fields import PrimeField, QQ
from punctual.groebner import buchberger, normal_form
from punctual.linalg import IntegerImage, identity, mat_mul, mat_pow, mat_vec, minimal_polynomial
from punctual.poly import (
    ALL_ORDERS,
    DEFAULT_ORDER,
    Monomial,
    MonomialOrder,
    Polynomial,
    X,
    Y,
    parse_generators,
)
from punctual.univariate import _cofactor, _primitive, roots
from punctual.verify import CURATED_CORPUS

F7 = PrimeField(7)
F32003 = PrimeField(32003)


def gb_of(text, order=DEFAULT_ORDER, field=QQ):
    return buchberger(parse_generators(text, field), order)


def test_quotient_basis_pinned_cases():
    assert quotient_basis(gb_of("x, y")) == (Monomial(0, 0),)
    qb = quotient_basis(gb_of("x^2, x*y, y^2"))
    assert set(qb) == {Monomial(0, 0), Monomial(1, 0), Monomial(0, 1)}
    assert len(qb) == 3
    assert quotient_basis(gb_of("y, x^3")) == (Monomial(0, 0), Monomial(1, 0), Monomial(2, 0))


def test_quotient_basis_sorted_ascending():
    qb = quotient_basis(gb_of("x^2, x*y, y^2"))
    key = DEFAULT_ORDER.key_func()
    assert list(qb) == sorted(qb, key=key)


def test_quotient_basis_is_a_staircase():
    # standard monomials are closed under divisibility
    for text in CURATED_CORPUS:
        monomials = set(quotient_basis(gb_of(text)))
        for m in monomials:
            if m.a:
                assert Monomial(m.a - 1, m.b) in monomials
            if m.b:
                assert Monomial(m.a, m.b - 1) in monomials


def test_staircase_area_is_the_colength():
    cases = list(CURATED_CORPUS) + ["x, y", "x, y, x - 1", "x^3, x^2*y, x*y^3, y^5", "y^2, x^7"]
    for text in cases:
        for order in ALL_ORDERS:
            gb = gb_of(text, order)
            steps = artinian._staircase(gb.lms)
            area = sum((end - start) * height for start, end, height in steps)
            assert area == len(quotient_basis(gb)), (text, order)


def test_quotient_basis_rejects_positive_dimension():
    with pytest.raises(NotZeroDimensional):
        quotient_basis(gb_of("x"))


def test_unit_ideal_has_colength_zero():
    gb = gb_of("x, y, x - 1")
    assert quotient_basis(gb) == ()
    analysis = analyze_quotient(gb)
    assert analysis.colength == 0
    assert analysis.components == ()
    assert analysis.residual_dimension == 0


def test_multiplication_matrices_pinned_cases():
    gb = gb_of("x, y")
    qb = quotient_basis(gb)
    pair = multiplication_matrices(qb, gb)
    assert densify(pair.on_x, QQ) == [[Fraction(0)]]
    assert densify(pair.on_y, QQ) == [[Fraction(0)]]

    gb = gb_of("x^2, x*y, y^2")
    qb = quotient_basis(gb)
    on_x = densify(multiplication_matrices(qb, gb).on_x, QQ)
    index = {m: i for i, m in enumerate(qb)}
    col_of_one = [on_x[i][index[Monomial(0, 0)]] for i in range(3)]
    assert col_of_one[index[Monomial(1, 0)]] == Fraction(1)
    # x kills both x and y in this quotient
    for mono in (Monomial(1, 0), Monomial(0, 1)):
        assert all(on_x[i][index[mono]] == 0 for i in range(3))

    gb = gb_of("y, x^3")
    qb = quotient_basis(gb)
    pair = multiplication_matrices(qb, gb)
    assert is_zero_matrix(densify(pair.on_y, QQ))
    assert mat_pow(densify(pair.on_x, QQ), 3, QQ) == [[Fraction(0)] * 3 for _ in range(3)]
    assert not is_zero_matrix(mat_pow(densify(pair.on_x, QQ), 2, QQ))


def test_matrices_commute_on_corpus():
    for text in CURATED_CORPUS:
        gb = gb_of(text)
        qb = quotient_basis(gb)
        pair = multiplication_matrices(qb, gb)
        on_x, on_y = densify(pair.on_x, QQ), densify(pair.on_y, QQ)
        assert mat_mul(on_x, on_y, QQ) == mat_mul(on_y, on_x, QQ)


@st.composite
def border_cases(draw):
    """x^a + f, y^b + g with f, g of lower degree, and maybe a third
    generator: zero-dimensional in every order (the leading forms x^a, y^b
    have no common zero at infinity).  Over QQ the coefficients have small
    denominators, so the operators' D exceeds 1, and under lex the basis
    elements' tails often have a higher degree than their leading
    monomials."""
    field = draw(st.sampled_from([QQ, F7, F32003]))
    if field == QQ:
        coefficient = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    else:
        coefficient = st.builds(field.from_int, st.integers(0, field.p - 1))

    def lower(degree):
        monos = st.lists(st.sampled_from(truncation_monomials(degree - 1)))
        return Polynomial(field, {m: draw(coefficient) for m in draw(monos)})

    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    gens = [
        Polynomial.monomial(field, Monomial(a, 0)) + lower(a),
        Polynomial.monomial(field, Monomial(0, b)) + lower(b),
    ]
    if draw(st.booleans()):
        gens.append(lower(3))
    return gens


# under lex its operators have D > 1 and its basis has tails of higher
# degree than their leading monomials, so a border visited by degree
# would need a normal form it has not built yet
LEX = MonomialOrder("lex", "xy")
LEX_WITNESS = "x^3 + y^2 + x*y + 1, 2*y^3 + x^2 + 3*x"


def test_lex_witness_has_scaled_operators_and_high_tails():
    gb = gb_of(LEX_WITNESS, LEX)
    pair = multiplication_matrices(quotient_basis(gb), gb)
    assert pair.on_x.denominator > 1 and pair.on_y.denominator > 1
    assert any(
        max(m.degree for m in g.terms) > g.leading_monomial(LEX).degree for g in gb.generators
    )


@settings(max_examples=80, deadline=None)
@example(parse_generators(LEX_WITNESS, QQ), LEX)
@given(border_cases(), st.sampled_from(ALL_ORDERS))
def test_recombined_operators_match_division(gens, order):
    gb = buchberger(gens, order)
    qb = quotient_basis(gb)
    if qb:
        assert multiplication_matrices(qb, gb) == division_operators(qb, gb)


def test_operators_with_denominators_match_the_fraction_built_reference():
    # the recombined normal forms are held as (least denominator, integers);
    # the reference divides every border monomial in Fractions
    for text in ("2*x^2 - x, 3*y^2 - y", "3*x^2 - y + 1, 5*y^2 - 2*x*y + 7*x", LEX_WITNESS):
        for order in ALL_ORDERS:
            gb = gb_of(text, order)
            qb = quotient_basis(gb)
            pair = multiplication_matrices(qb, gb)
            assert pair.on_x.denominator > 1 and pair.on_y.denominator > 1, (text, order)
            assert pair == division_operators(qb, gb), (text, order)


def test_local_components_pinned_cases():
    decomposition = local_components(gb_of("x, y"))
    assert len(decomposition.components) == 1
    lq = decomposition.components[0]
    assert lq.point == (Fraction(0), Fraction(0))
    assert lq.dimension == 1 and lq.nilpotency_index == 1

    decomposition = local_components(gb_of("x^2 - x, y"))
    points = [(c.point, c.dimension) for c in decomposition.components]
    assert points == [
        ((Fraction(0), Fraction(0)), 1),
        ((Fraction(1), Fraction(0)), 1),
    ]
    assert decomposition.residual_dimension == 0

    decomposition = local_components(gb_of("x^2, x*y, y^2"))
    lq = decomposition.components[0]
    assert lq.dimension == 3 and lq.nilpotency_index == 2


def test_local_additivity_on_corpus():
    for text in CURATED_CORPUS:
        decomposition = local_components(gb_of(text))
        total = sum(c.dimension for c in decomposition.components)
        assert total + decomposition.residual_dimension == decomposition.colength


def test_four_rational_points():
    decomposition = local_components(gb_of("x^2 - 1, y^2 - 1"))
    assert decomposition.residual_dimension == 0
    points = {(c.point[0], c.point[1]) for c in decomposition.components}
    assert points == {
        (Fraction(s), Fraction(t)) for s in (-1, 1) for t in (-1, 1)
    }
    assert all(c.dimension == 1 for c in decomposition.components)


def test_expanded_grid_rows():
    # prod (x - i), prod (y - j) for i, j = 0..3: sixteen reduced points,
    # four at each x-root, so four factors share each x_kernel
    grid = "x^4 - 6*x^3 + 11*x^2 - 6*x, y^4 - 6*y^3 + 11*y^2 - 6*y"
    decomposition = analyze_quotient(gb_of(grid))
    assert decomposition.components == tuple(
        LocalInvariants((Fraction(i), Fraction(j)), 1, 1, 2, 1, 1)
        for i in range(4)
        for j in range(4)
    )
    assert decomposition.residual_dimension == 0
    assert decomposition.colength == 16


def test_non_rational_support_is_residual():
    decomposition = local_components(gb_of("x^2 - 2, y"))
    assert decomposition.colength == 2
    assert decomposition.components == ()
    assert decomposition.residual_dimension == 2
    # same ideal over F7 splits: 3^2 = 2 mod 7
    decomposition = local_components(gb_of("x^2 - 2, y", field=F7))
    assert decomposition.residual_dimension == 0
    assert {c.point[0] for c in decomposition.components} == {3, 4}


def test_mixed_support_keeps_rational_part():
    decomposition = local_components(gb_of("x^3 - 2*x, y"))
    assert decomposition.colength == 3
    assert [c.point for c in decomposition.components] == [(Fraction(0), Fraction(0))]
    assert decomposition.residual_dimension == 2


def test_diagonal_points_need_joint_filtering():
    # eigenvalue candidates form a 2x2 grid but only the diagonal pairs
    # carry a factor
    decomposition = local_components(gb_of("x - y, x^2 - x"))
    points = [c.point for c in decomposition.components]
    assert points == [
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(1)),
    ]
    assert decomposition.residual_dimension == 0


def test_support_points_kill_generators():
    for text in CURATED_CORPUS:
        gens = parse_generators(text, QQ)
        for lq in local_components(buchberger(gens, DEFAULT_ORDER)).components:
            for g in gens:
                assert evaluate(g, *lq.point) == QQ.zero()


def test_socle_dimension_pinned_cases():
    assert socle_dimension(one_component("x, y")) == 1
    assert socle_dimension(one_component("x^2, x*y, y^2")) == 2
    assert socle_dimension(one_component("y, x^3")) == 1


def one_component(text, field=QQ):
    decomposition = local_components(gb_of(text, field=field))
    assert len(decomposition.components) == 1
    return decomposition.components[0]


def test_nilpotency_index_mixed_words():
    # both squares vanish but x*y does not, so the index is 3
    lq = one_component("x^2, y^2")
    assert lq.nilpotency_index == 3
    nil_x, nil_y = densify(lq.mult_x, QQ), densify(lq.mult_y, QQ)
    assert is_zero_matrix(mat_pow(nil_x, 2, QQ))
    assert is_zero_matrix(mat_pow(nil_y, 2, QQ))
    assert not is_zero_matrix(mat_mul(nil_x, nil_y, QQ))


def test_nilpotency_invariants_on_corpus():
    for text in CURATED_CORPUS:
        gb = gb_of(text)
        pair = multiplication_matrices(quotient_basis(gb), gb)
        for lq in local_components(gb).components:
            r = lq.nilpotency_index
            assert 1 <= r <= lq.dimension
            # on the factor (the generalized eigenspace) every length-r word
            # vanishes and some length r-1 word survives
            space = generalized_eigenspace(pair, lq.point, QQ)
            powers_x = [mat_pow(densify(lq.mult_x, QQ), i, QQ) for i in range(r + 1)]
            powers_y = [mat_pow(densify(lq.mult_y, QQ), i, QQ) for i in range(r + 1)]
            for length, vanishes in ((r, True), (r - 1, False)):
                words = [mat_mul(powers_x[i], powers_y[length - i], QQ) for i in range(length + 1)]
                images = [dense_mat_vec(word, v, QQ) for word in words for v in space]
                assert (not any(map(any, images))) == vanishes, text


def test_nilpotency_index_rejects_non_nilpotent(monkeypatch):
    with pytest.raises(ValueError):
        nilpotency_index(IntegerImage(1, [[(0, 1)]]), IntegerImage(1, [[]]), [1], QQ)
    # the word loop gives up by degree n + 1: layers 1..3 of a 2 x 2 pair
    # take 2 + 3 + 4 products
    calls, scattered = [], artinian._scattered
    monkeypatch.setattr(artinian, "_scattered", lambda *args: calls.append(1) or scattered(*args))
    shift_plus_one = IntegerImage(1, [[(0, 1), (1, 1)], [(1, 1)]])  # rows [1, 0], [1, 1]
    with pytest.raises(ValueError):
        nilpotency_index(shift_plus_one, shift_plus_one, [1, 0], QQ)
    assert len(calls) <= 9


def test_minimal_generator_count_pinned_cases():
    assert minimal_generator_count(parse_generators("x, y", QQ), 1) == 2
    assert minimal_generator_count(parse_generators("x^2, x*y, y^2", QQ), 2) == 3
    assert minimal_generator_count(parse_generators("y - x^2, x^3", QQ), 3) == 2


def test_minimal_generator_count_rejects_units():
    with pytest.raises(ValueError):
        minimal_generator_count(parse_generators("x - 1, y", QQ), 1)


def test_generator_count_routes_agree():
    # the operator route and the explicit-generator route are independent
    cases = {"x^2, x*y, y^2": 3, "y - x^2, x^3": 2, "x^2, y^2": 2, "y, x^5": 2}
    for text, expected in cases.items():
        lq = one_component(text)
        assert generator_count(lq) == expected
        gens = parse_generators(text, QQ)
        assert minimal_generator_count(gens, lq.nilpotency_index) == expected


def test_local_ideal_truncation_members():
    lq = one_component("x^2, x*y, y^2")
    members = local_ideal_truncation(lq)
    assert members
    gb = gb_of("x^2, x*y, y^2")
    for f in members:
        assert normal_form(f, gb.generators, gb.order).is_zero()


def test_betti_data_pinned_cases():
    # b1 = generators and b2 = socle
    for text, e in (("x, y", 2), ("x^2, x*y, y^2", 3), ("y, x^3", 2)):
        invariants = local_invariants(one_component(text))
        assert invariants.generators == e
        assert invariants.socle == e - 1


def test_betti_data_translated_fat_point():
    lq = one_component("x^2 - 2*x + 1, x*y + x - y - 1, y^2 + 2*y + 1")
    assert lq.point == (Fraction(1), Fraction(-1))
    invariants = local_invariants(lq)
    assert invariants.point == lq.point
    assert (invariants.generators, invariants.socle) == (3, 2)


def test_multiplicity_formula():
    assert multiplicity_from_socle(1) == 1
    assert multiplicity_from_socle(2) == 3
    assert multiplicity_from_socle(3) == 6
    with pytest.raises(ValueError):
        multiplicity_from_socle(0)
    values = [multiplicity_from_socle(b) for b in range(1, 12)]
    assert values == sorted(set(values))  # strictly increasing


def test_multiplicity_report_pinned_cases():
    report = local_invariants(one_component("x^2, x*y, y^2"))
    assert (report.socle, report.multiplicity, report.local_length) == (2, 3, 3)
    assert report.multiplicity == report.local_length
    report = local_invariants(one_component("y, x^5"))
    assert (report.socle, report.multiplicity, report.local_length) == (1, 1, 5)
    assert report.multiplicity != report.local_length  # the strict witness
    report = local_invariants(one_component("x, y"))
    assert (report.multiplicity, report.local_length) == (1, 1)


def test_multiplicity_bounded_on_corpus():
    for text in CURATED_CORPUS:
        analysis = analyze_quotient(gb_of(text))
        for component in analysis.components:
            assert component.multiplicity <= component.local_length
            assert component.multiplicity <= analysis.colength


def test_colength_is_order_invariant():
    for text in CURATED_CORPUS:
        gens = parse_generators(text, QQ)
        colengths = {len(quotient_basis(buchberger(gens, order))) for order in ALL_ORDERS}
        assert len(colengths) == 1


def test_invariants_are_order_invariant():
    for text in ("y - x^2, x^3", "x^2 - 1, y^2 - 1", "x^2 - y^3, x*y^2, y^4"):
        gens = parse_generators(text, QQ)
        profiles = set()
        for order in ALL_ORDERS:
            analysis = analyze_quotient(buchberger(gens, order))
            profiles.add(
                tuple(
                    (str(c.point[0]), str(c.point[1]), c.local_length, c.socle)
                    for c in analysis.components
                )
            )
        assert len(profiles) == 1


def test_local_component_at(monkeypatch):
    gb = gb_of("x^2 - x, y")
    origin = local_component_at(gb, (QQ.zero(), QQ.zero()))
    assert origin is not None and origin.dimension == 1
    outside = local_component_at(gb, (QQ.from_int(2), QQ.zero()))
    assert outside is None
    # the one-point case of the split: each support point's factor equals
    # the whole split's, and no root is searched for
    searched = []
    original = artinian.roots
    monkeypatch.setattr(artinian, "roots", lambda *args: searched.append(args) or original(*args))

    def absent(field, taken):
        return next(field.from_int(i) for i in range(8) if field.from_int(i) not in taken)

    for field in (QQ, F7):
        for text in (*CURATED_CORPUS, "x^2 - x, y^2 - 2*y"):
            gb = gb_of(text, field=field)
            components = local_components(gb).components
            searched.clear()
            for lq in components:
                assert local_component_at(gb, lq.point) == lq
            px = absent(field, {lq.point[0] for lq in components})
            assert local_component_at(gb, (px, field.zero())) is None
            for x in {lq.point[0] for lq in components}:
                py = absent(field, {lq.point[1] for lq in components if lq.point[0] == x})
                assert local_component_at(gb, (x, py)) is None
            assert searched == []


def test_analysis_over_prime_field():
    analysis = analyze_quotient(gb_of("x^2 + x, y", field=F7))
    assert analysis.colength == 2
    assert {c.point[0] for c in analysis.components} == {0, 6}
    for component in analysis.components:
        assert component.socle == 1


# Oracles: the generalized eigenspace of a point (the joint kernel of the
# n-th powers of the translated pair), and the word-table and operator
# evaluation routines restricted to it.


def generalized_eigenspace(pair, point, field):
    """Echelon basis of the joint kernel of (Mx - px)^n and (My - py)^n."""
    n = len(pair.on_x)
    powers = [
        mat_pow(mat_sub(densify(image, field), scaled_identity(p, n, field), field), n, field)
        for image, p in zip((pair.on_x, pair.on_y), point)
    ]
    return dense_kernel_basis(powers[0] + powers[1], field)


def word_table_nilpotency_index(nil_x, nil_y, space, field):
    """Least r with every length-r word in {Nx, Ny} zero on the space."""
    n = len(nil_x)
    words = {(0, 0): identity(n, field)}
    for r in range(1, n + 1):
        current = {(r, 0): mat_mul(words[(r - 1, 0)], nil_x, field)}
        for b in range(1, r + 1):
            current[(r - b, b)] = mat_mul(words[(r - b, b - 1)], nil_y, field)
        if all(not any(dense_mat_vec(w, v, field)) for w in current.values() for v in space):
            return r
        words = current
    raise ValueError("not jointly nilpotent")


def operator_evaluation_kernel(lq, space):
    """Kernel of f -> f(Nx, Ny) on the space, evaluated on every basis vector."""
    field, n, r = lq.field, len(lq.mult_x), lq.nilpotency_index
    nil_x, nil_y = densify(lq.mult_x, field), densify(lq.mult_y, field)
    monos = truncation_monomials(r)
    words = {(0, 0): identity(n, field)}
    for a in range(1, r + 1):
        words[(a, 0)] = mat_mul(words[(a - 1, 0)], nil_x, field)
    for a in range(r + 1):
        for b in range(1, r + 1 - a):
            words[(a, b)] = mat_mul(words[(a, b - 1)], nil_y, field)
    images = {
        mono: [dense_mat_vec(words[(mono.a, mono.b)], v, field) for v in space] for mono in monos
    }
    evaluation = [
        [images[mono][k][u] for mono in monos] for k in range(len(space)) for u in range(n)
    ]
    return monos, dense_kernel_basis(evaluation, field)


def row_space(vectors, field):
    reduced, pivots = dense_rref(vectors, field)
    return reduced[: len(pivots)]


def cyclic_span(lq):
    """Echelon basis of the smallest space holding w and closed under Nx, Ny."""
    field = lq.field
    basis = row_space([lq.generator], field)
    operators = (densify(lq.mult_x, field), densify(lq.mult_y, field))
    while True:
        images = [dense_mat_vec(nil, v, field) for nil in operators for v in basis]
        grown = row_space(basis + images, field)
        if len(grown) == len(basis):
            return grown
        basis = grown


# the last case has operators with D = 2 and D = 3 over QQ: minimal
# polynomials that are not monic over the integers
ORACLE_CASES = [(text, field) for field in (QQ, F32003) for text in CURATED_CORPUS] + [
    (f"x^{k}, y^{k}", field) for field in (QQ, F32003) for k in range(1, 6)
] + [("2*x^2 - x, 3*y^2 - y", QQ)]


@pytest.fixture(scope="module")
def oracle_cases():
    out = []
    for text, field in ORACLE_CASES:
        gb = gb_of(text, field=field)
        pair = multiplication_matrices(quotient_basis(gb), gb)
        components = [
            (lq, generalized_eigenspace(pair, lq.point, field))
            for lq in local_components(gb).components
        ]
        out.append((text, field, pair, components))
    return out


def test_word_nilpotency_matches_word_table(oracle_cases):
    for text, field, _, components in oracle_cases:
        for lq, space in components:
            nil_x, nil_y = densify(lq.mult_x, field), densify(lq.mult_y, field)
            expected = word_table_nilpotency_index(nil_x, nil_y, space, field)
            assert lq.nilpotency_index == expected, text
            r, _ = nilpotency_index(lq.mult_x, lq.mult_y, lq.generator, field)
            assert r == expected, text


def kernel_form(coeffs, field):
    """A monic polynomial of the dense oracles as the kernel holds it: over
    QQ its primitive integer multiple with a positive leading coefficient."""
    return _primitive(coeffs) if field == QQ else coeffs


def test_class_of_one_minimal_polynomial_matches_matrix_powers(oracle_cases):
    for text, field, pair, _ in oracle_cases:
        one = [1] + [0] * (len(pair.on_x) - 1)
        for image in (pair.on_x, pair.on_y):
            assert artinian._minimal_polynomial(image, one, field)[0] == kernel_form(
                minimal_polynomial(densify(image, field), field), field
            ), text
        # on u = g_x(Mx)[1] of each x-root, the minimal polynomial of My
        # restricted to the cyclic space of u
        on_y = densify(pair.on_y, field)
        f_x, _ = artinian._minimal_polynomial(pair.on_x, one, field)
        for px in roots(f_x, field):
            u = horner(_cofactor(f_x, px, field), pair.on_x, one, field)
            assert artinian._minimal_polynomial(pair.on_y, u, field)[0] == kernel_form(
                vector_minimal_polynomial(on_y, list(map(field.from_int, u)), field), field
            ), (text, px)


def test_each_generator_is_the_horner_image(oracle_cases):
    # w = h(My) g_x(Mx)[1], the cofactors taken of the minimal polynomials
    # of the dense matrices, applied by Horner's rule over all rows
    for text, field, pair, components in oracle_cases:
        one = [1] + [0] * (len(pair.on_x) - 1)
        f_x = kernel_form(minimal_polynomial(densify(pair.on_x, field), field), field)
        on_y = densify(pair.on_y, field)
        for lq, _ in components:
            px, py = lq.point
            u = horner(_cofactor(f_x, px, field), pair.on_x, one, field)
            f_y = vector_minimal_polynomial(on_y, list(map(field.from_int, u)), field)
            w = horner(_cofactor(kernel_form(f_y, field), py, field), pair.on_y, u, field)
            assert lq.generator == w, (text, lq.point)


def test_generator_words_span_the_generalized_eigenspace(oracle_cases):
    for text, field, _, components in oracle_cases:
        for lq, space in components:
            assert lq.dimension == len(space), text
            assert cyclic_span(lq) == row_space(space, field), text


def test_unit_vector_kernel_matches_operator_evaluation(oracle_cases):
    # w = h(My) g_x(Mx)[1] generates the factor, so f(Nx, Ny)w = 0
    # exactly when f(Nx, Ny) kills the whole factor
    for text, field, _, components in oracle_cases:
        for lq, space in components:
            _, kernel = operator_evaluation_kernel(lq, space)
            assert lq.local_ideal == primitive_basis(kernel, field), text


def test_root_search_runs_once_per_coordinate(monkeypatch):
    calls = []
    original = artinian.roots

    def counted(coeffs, field):
        calls.append(coeffs)
        return original(coeffs, field)

    monkeypatch.setattr(artinian, "roots", counted)
    decomposition = local_components(gb_of("x^2 - 1, y^2 - 1", field=F32003))
    assert len(decomposition.components) == 4
    assert len(calls) == 2


def test_factor_on_the_whole_quotient_is_not_restricted():
    fat_point_at_1_2 = "x^2 - 2*x + 1, x*y - 2*x - y + 2, y^2 - 4*y + 4"
    for text, field in ((fat_point_at_1_2, QQ), ("x^3, y^2 - x", F7)):
        gb = gb_of(text, field=field)
        pair = multiplication_matrices(quotient_basis(gb), gb)
        (lq,) = local_components(gb).components
        n = len(pair.on_x)
        assert lq.dimension == n
        for image, p, nil in zip((pair.on_x, pair.on_y), lq.point, (lq.mult_x, lq.mult_y)):
            identity_p = scaled_identity(p, n, field)
            assert densify(nil, field) == mat_sub(densify(image, field), identity_p, field)
    # with two points each factor is a proper subspace, generated by its w
    # inside the whole quotient's translated operators
    gb = gb_of("x^2 - 1, y")
    pair = multiplication_matrices(quotient_basis(gb), gb)
    components = local_components(gb).components
    assert len(components) == 2
    for lq in components:
        assert lq.dimension == 1
        on_x = densify(pair.on_x, QQ)
        assert densify(lq.mult_x, QQ) == mat_sub(on_x, scaled_identity(lq.point[0], 2, QQ), QQ)
        assert dense_rank([lq.generator] + generalized_eigenspace(pair, lq.point, QQ), QQ) == 1


def test_translation_at_the_origin_shares_the_operator(monkeypatch):
    # M - p*Id is M itself at p = 0 and equals mat_sub(M, p*Id) elsewhere
    pairs = []
    original = artinian.multiplication_matrices
    monkeypatch.setattr(
        artinian, "multiplication_matrices", lambda *args: pairs.append(original(*args)) or pairs[-1]
    )
    for field in (QQ, F7):
        gb = gb_of("x^2 - x, y^2 - 2*y", field=field)
        origin = (field.zero(), field.zero())
        components = local_components(gb).components
        at_origin = local_component_at(gb, origin)
        whole, at = pairs
        assert {lq.point for lq in components} == {
            (field.from_int(a), field.from_int(b)) for a in (0, 1) for b in (0, 2)
        }
        n = len(whole.on_x)
        for lq, pair in [(lq, whole) for lq in components] + [(at_origin, at)]:
            for image, p, translated in (
                (pair.on_x, lq.point[0], lq.mult_x),
                (pair.on_y, lq.point[1], lq.mult_y),
            ):
                expected = mat_sub(densify(image, field), scaled_identity(p, n, field), field)
                assert densify(translated, field) == expected
                assert (translated is image) == (p == 0)
        pairs.clear()


def test_translates_are_the_integer_images_of_the_translated_operators():
    # _translated(image, p) is the IntegerImage of M - p*Id, over c = b*D
    # for p = a/b over QQ (points with b > 1 on operators with D > 1 in
    # the scaled cases) and over 1 mod p; at p = 0 it is the image itself
    cases = [(buchberger(gens, DEFAULT_ORDER), QQ) for gens in scaled_cases()]
    cases += [
        (gb_of(text, field=field), field)
        for field in (QQ, F7, F32003)
        for text in ("x^2 - x, y^2 - 2*y", "3*x^2 - y + 1, 5*y^2 - 2*x*y + 7*x", CUBES_AT_ONE_TWO)
    ]
    scaled = set()
    for gb, field in cases:
        pair = multiplication_matrices(quotient_basis(gb), gb)
        for lq in local_components(gb).components:
            for image, p, nil in zip(pair, lq.point, (lq.mult_x, lq.mult_y)):
                translate = artinian._translated(image, p, field)
                assert translate == nil and (translate is image) == (p == 0)
                expected = translated(densify(image, field), p, field)
                assert densify(translate, field) == expected, (field, lq.point)
                b = p.denominator if field == QQ else 1
                assert translate.denominator == b * image.denominator
                assert translate.rows == linalg.transposed(translate.columns, len(translate))
                scaled.add((b > 1, image.denominator > 1))
    assert (True, True) in scaled


def test_operator_rows_and_columns_densify_alike():
    for field in (QQ, F32003):
        for text in CURATED_CORPUS:
            gb = gb_of(text, field=field)
            for image in multiplication_matrices(quotient_basis(gb), gb):
                by_columns = [list(c) for c in zip(*dense_of(image.columns, image.denominator, field))]
                assert densify(image, field) == by_columns, text


def test_local_component_at_non_root_takes_no_matrix_power(monkeypatch):
    calls = []
    for module, name in (
        (linalg, "mat_pow"),
        (linalg, "mat_mul"),
        (artinian, "krylov_image"),
        (artinian, "nilpotency_index"),
    ):
        original = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *args, _n=name, _f=original: calls.append(_n) or _f(*args)
        )
    gb = gb_of("x^2 - x, y")
    assert local_component_at(gb, (QQ.from_int(2), QQ.zero())) is None
    assert calls == []
    assert local_component_at(gb, (QQ.one(), QQ.zero())).dimension == 1
    assert sorted(calls) == ["krylov_image", "krylov_image", "nilpotency_index"]


@pytest.mark.parametrize(
    "text,point", [("x^2, y^2", (0, 0)), ("x^2 - 2*x + 1, y^2 - 4*y + 4", (1, 2))]
)
def test_factor_builds_each_word_once(monkeypatch, text, point):
    # r = 3 here, so the words of degree <= 3 number 10; every word but w
    # itself costs one operator application, and the kernel reuses them
    lq = local_component_at(gb_of(text), tuple(map(QQ.from_int, point)))
    calls, scattered = [], artinian._scattered
    monkeypatch.setattr(artinian, "_scattered", lambda *args: calls.append(1) or scattered(*args))
    rebuilt = artinian._component_at(
        lq.point, lq.mult_x, lq.mult_y, lq.generator, QQ, lq.x_kernel
    )
    assert rebuilt == lq
    assert lq.nilpotency_index == 3
    assert len(calls) == len(truncation_monomials(3)) - 1 == 9


def mat_vec_words(nil_x, nil_y, generator, field, r):
    """The words Nx^a Ny^b w of degree <= r, layer by layer, each applied
    as ``mat_vec`` applies the operators' rows to a dense vector."""
    words, layer = [], [generator]
    for _ in range(r + 1):
        words += layer
        layer = [mat_vec(nil_y, v, field) for v in layer] + [mat_vec(nil_x, layer[-1], field)]
    return words


# the expanded (x - 1)^3, (y - 2)^3, whose translated operators have dense columns
CUBES_AT_ONE_TWO = "x^3 - 3*x^2 + 3*x - 1, y^3 - 6*y^2 + 12*y - 8"


@pytest.mark.parametrize("field", [QQ, F7, F32003])
def test_scattered_words_equal_the_mat_vec_words(field):
    # the words scattered over the operators' columns are the sparse forms
    # of the words that mat_vec builds from the rows, in the same order
    for text in (*CURATED_CORPUS, CUBES_AT_ONE_TWO):
        for lq in local_components(gb_of(text, field=field)).components:
            r, words = nilpotency_index(lq.mult_x, lq.mult_y, lq.generator, field)
            expected = mat_vec_words(lq.mult_x.rows, lq.mult_y.rows, lq.generator, field, r)
            dense = [[dict(word).get(i, 0) for i in range(len(lq.generator))] for word in words]
            assert dense == expected, (text, field)
            assert all(a for word in words for _, a in word), (text, field)
            assert r == lq.nilpotency_index and not any(map(any, expected[-r - 1 :]))


def test_generator_route_never_reads_the_socle_kernel(monkeypatch):
    # every elimination in the split and in generator_count is recorded:
    # the split eliminates Nx once per x-root, for the socle route, and
    # otherwise only the local ideal's kernel; generator_count eliminates
    # neither Nx nor the stacked translated pair, whatever the order of the
    # (column, entry) pairs in a row; the ladder's x-root -1 carries no
    # rational factor, so its Nx is never eliminated
    def forbidden(lq):
        raise AssertionError("generator route called socle_dimension")

    def rows(matrix):
        return [sorted(row) for row in matrix]

    ladder_4 = "x^4 - 1, y^4 - 4*x*y^3 + 6*x^2*y^2 - 4*x^3*y + x^4 - x"
    for text in ("x^2, x*y, y^2", "x^2 - y^3, x*y^2, y^4", "x^2 - 1, y^2 - 1", ladder_4):
        gb = gb_of(text)
        in_split, in_count = [], []
        eliminated = in_split
        for name in ("kernel_basis", "rank"):
            original = getattr(artinian, name)
            monkeypatch.setattr(
                artinian,
                name,
                lambda matrix, *rest, _f=original: eliminated.append(matrix) or _f(matrix, *rest),
            )
        monkeypatch.setattr(artinian, "socle_dimension", forbidden)
        components = local_components(gb).components
        eliminated = in_count
        for lq in components:
            generator_count(lq)
        monkeypatch.undo()
        assert components and in_count, text
        x_roots = {lq.point[0] for lq in components}
        stacked = [rows(lq.mult_x.rows) + rows(lq.mult_y.rows) for lq in components]
        nil_xs = [rows(lq.mult_x.rows) for lq in components]
        assert len(in_split) == len(x_roots) + len(components), text
        assert sum(rows(matrix) in nil_xs for matrix in in_split) == len(x_roots), text
        for matrix in in_split + in_count:
            assert rows(matrix) not in stacked, text
        for matrix in in_count:
            assert rows(matrix) not in nil_xs, text


def test_socle_route_never_reads_the_generator():
    for text in ("x^2, x*y, y^2", "x^2 - 1, y^2 - 1", "x^3 - 2*x, y"):
        for lq in local_components(gb_of(text)).components:
            blind = lq._replace(generator=None, local_ideal=None)  # the generator route's data
            assert socle_dimension(blind) == socle_dimension(lq), text


def test_socle_takes_one_x_kernel_per_x_root(monkeypatch):
    # two x-roots with two factors each: K = ker(Nx) is eliminated twice, in
    # the split, and never again however often the socle is asked for
    eliminated = []
    original = artinian.kernel_basis
    monkeypatch.setattr(
        artinian,
        "kernel_basis",
        lambda matrix, width, f: eliminated.append((matrix, width)) or original(matrix, width, f),
    )
    components = local_components(gb_of("x^2 - 1, y^2 - 1")).components
    nil_xs = [(components[i].mult_x.rows, 4) for i in (0, 2)]
    assert sorted(e for e in eliminated if e in nil_xs) == sorted(nil_xs)
    assert len(eliminated) == 2 + len(components)  # and each factor's local ideal
    eliminated.clear()
    for _ in range(2):
        assert [socle_dimension(lq) for lq in components] == [1, 1, 1, 1]
    assert eliminated == []
    for a in components:
        for b in components:
            assert (a.x_kernel is b.x_kernel) == (a.point[0] == b.point[0])
        dense = primitive_basis(dense_kernel_basis(densify(a.mult_x, QQ), QQ), QQ)
        assert a.x_kernel == dense


def non_square(field):
    """A nonzero element that is not a square (2 over QQ)."""
    if field == QQ:
        return QQ.from_int(2)
    squares = {field.reduce(a * a) for a in range(field.p)}
    return next(d for d in range(1, field.p) if d not in squares)


def minus(field, mono, value):
    return Polynomial(field, {mono: field.one(), Monomial(0, 0): -value})


@st.composite
def split_ideals(draw):
    """Generators prod (x - a)^e * q(x), prod (y - b)^f and a third one.

    The rational support lies in the grid of the a and b; q is 1 or an
    irreducible quadratic (x^2 - d, or x^2 + x + 1 over F2), whose points
    are not rational, so the residual can be positive.
    """
    field = draw(st.sampled_from([QQ] + [PrimeField(p) for p in (2, 3, 7, 101)]))
    element = st.builds(field.from_int, st.integers(-3, 3))
    xs = draw(st.lists(element, min_size=1, max_size=2, unique=True))
    ys = draw(st.lists(element, min_size=1, max_size=2, unique=True))
    x_part = y_part = Polynomial.monomial(field, Monomial(0, 0))
    for a in xs:
        for _ in range(draw(st.integers(1, 2))):
            x_part = x_part * minus(field, X, a)
    for b in ys:
        for _ in range(draw(st.integers(1, 2))):
            y_part = y_part * minus(field, Y, b)
    if draw(st.booleans()):
        if field == PrimeField(2):
            quadratic = Polynomial(field, {Monomial(2, 0): 1, X: 1, Monomial(0, 0): 1})
        else:
            quadratic = minus(field, Monomial(2, 0), non_square(field))
        x_part = x_part * quadratic
    # the third generator vanishes on the line x = a of one of the a, so it
    # cuts the support without emptying it
    monos = truncation_monomials(2)
    third = Polynomial(field, {m: draw(element) for m in draw(st.lists(st.sampled_from(monos)))})
    third = third * minus(field, X, draw(st.sampled_from(xs)))
    return field, [x_part, y_part, third], [(a, b) for a in xs for b in ys]


@settings(max_examples=60, deadline=None)
@given(split_ideals(), st.sampled_from(ALL_ORDERS))
def test_local_lengths_match_generalized_eigenspaces(case, order):
    field, gens, grid = case
    gb = buchberger(gens, order)
    decomposition = local_components(gb)
    n = decomposition.colength
    pair = multiplication_matrices(quotient_basis(gb), gb)
    lengths = {lq.point: lq.dimension for lq in decomposition.components}
    assert set(lengths) <= set(grid)
    oracle = {point: len(generalized_eigenspace(pair, point, field)) for point in grid}
    for point in grid:
        assert lengths.get(point, 0) == oracle[point], point
    assert decomposition.residual_dimension == n - sum(oracle.values())


# monomial ideals by their generators' exponents: colength <= 4, socle 1 or 2
LOCAL_SHAPES = (
    ((1, 0), (0, 1)),
    ((2, 0), (0, 1)),
    ((1, 0), (0, 2)),
    ((2, 0), (1, 1), (0, 2)),
    ((3, 0), (1, 1), (0, 2)),
)


@st.composite
def fat_point_products(draw):
    """Products of monomial ideals translated to two or three points of a
    2 x 2 grid, so that two points share an x-coordinate and the socles
    differ from point to point; the factors are comaximal, so the product
    is their intersection."""
    field = draw(st.sampled_from([QQ, PrimeField(7), PrimeField(101)]))
    xs = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2, unique=True))
    ys = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2, unique=True))
    x_shared = draw(st.sampled_from(xs))
    points = [(x_shared, ys[0]), (x_shared, ys[1])]
    others = [(x, y) for x in xs for y in ys if x != x_shared]
    points += draw(st.lists(st.sampled_from(others), max_size=1))
    gens = [Polynomial.monomial(field, Monomial(0, 0))]
    for a, b in points:
        u, v = minus(field, X, field.from_int(a)), minus(field, Y, field.from_int(b))
        local = []
        for i, j in draw(st.sampled_from(LOCAL_SHAPES)):
            g = Polynomial.monomial(field, Monomial(0, 0))
            for factor in [u] * i + [v] * j:
                g = g * factor
            local.append(g)
        gens = [g * h for g in gens for h in local]
    grid = [(field.from_int(a), field.from_int(b)) for a in xs for b in ys]
    return field, gens, grid


@settings(max_examples=60, deadline=None)
@given(st.one_of(split_ideals(), fat_point_products()), st.sampled_from(ALL_ORDERS))
def test_socle_on_the_x_kernel_matches_the_stacked_pair(case, order):
    field, gens, _ = case
    components = local_components(buchberger(gens, order)).components
    for lq in components:
        assert socle_dimension(lq) == stacked_socle_dimension(lq), (field, lq.point)
    for a in components:
        for b in components:
            assert (a.x_kernel is b.x_kernel) == (a.point[0] == b.point[0])
        dense = dense_kernel_basis(densify(a.mult_x, field), field)
        assert a.x_kernel == primitive_basis(dense, field), (field, a.point)


def ladder(k, field):
    """x^k - 1, (y - x)^k - x: over QQ for k = 4, and over F7, the fiber
    over x = -1 holds no rational point."""
    step = Polynomial(field, {Y: field.one(), X: field.from_int(-1)})
    power = Polynomial.monomial(field, Monomial(0, 0))
    for _ in range(k):
        power = power * step
    gens = [minus(field, Monomial(k, 0), field.one()), power - Polynomial.monomial(field, X)]
    return field, gens, []


@settings(max_examples=60, deadline=None)
@given(st.one_of(split_ideals(), fat_point_products()), st.sampled_from(ALL_ORDERS))
@example(ladder(3, QQ), DEFAULT_ORDER)
@example(ladder(4, QQ), DEFAULT_ORDER)
@example(ladder(4, F7), DEFAULT_ORDER)
def test_restricted_split_matches_the_pairwise_split(case, order):
    # the y-split on each x-root's u = g_x(Mx)[1] finds the factors that
    # every pair of roots of the two minimal polynomials on [1] finds; its
    # generator differs by a unit of the factor, so it spans the same space
    field, gens, _ = case
    gb = buchberger(gens, order)
    components = local_components(gb).components
    expected = pairwise_components(gb)
    assert [lq.point for lq in components] == [lq.point for lq in expected]
    pair = multiplication_matrices(quotient_basis(gb), gb)
    for lq, oracle in zip(components, expected):
        for name in ("dimension", "nilpotency_index", "local_ideal", "mult_x", "mult_y"):
            assert getattr(lq, name) == getattr(oracle, name), (field, lq.point, name)
        space = generalized_eigenspace(pair, lq.point, field)
        assert cyclic_span(lq) == row_space(space, field), (field, lq.point)


# Points p = a/b with b > 1 and operators with D > 1: the translated rows
# are c*(M - p*Id), c = b*D, and the invariants must be those of M - p*Id.


def linear(mono, scale, value):
    """scale*mono - value over QQ."""
    return Polynomial(QQ, {mono: Fraction(scale), Monomial(0, 0): -Fraction(value)})


def product(factors):
    out = Polynomial.monomial(QQ, Monomial(0, 0))
    for f in factors:
        out = out * f
    return out


def moved_to_origin(f, point):
    """f(x + px, y + py): the generator in coordinates centred at the point."""
    x, y = linear(X, 1, -point[0]), linear(Y, 1, -point[1])
    out = Polynomial.zero(QQ)
    for m, c in f.terms.items():
        out = out + Polynomial(QQ, {Monomial(0, 0): c}) * product([x] * m.a + [y] * m.b)
    return out


def scaled_cases():
    # prod (3x - i), prod (5y - j) for i, j = 0..3: sixteen points (i/3, j/5)
    grid = [product(linear(X, 3, i) for i in range(4)), product(linear(Y, 5, j) for j in range(4))]
    # (v - u^2, u^3) with u = 2x - 1, v = 3y + 2 at (1/2, -2/3), times
    # (u^2, uv, v^2) with u = x - 2, v = 5y - 1 at (2, 1/5)
    u, v = linear(X, 2, 1), linear(Y, 3, -2)
    curvilinear = [v - u * u, u * u * u]
    u, v = linear(X, 1, 2), linear(Y, 5, 1)
    fat = [u * u, u * v, v * v]
    return [grid, [f * g for f in curvilinear for g in fat]]


def test_scaled_operators_keep_every_invariant():
    grid, dense = scaled_cases()
    for gens in (grid, dense):
        gb = buchberger(gens, DEFAULT_ORDER)
        pair = multiplication_matrices(quotient_basis(gb), gb)
        components = local_components(gb).components
        assert any(p.denominator > 1 for lq in components for p in lq.point)
        if gens is dense:
            assert pair.on_x.denominator > 1 or pair.on_y.denominator > 1
            assert {lq.point for lq in components} == {
                (Fraction(1, 2), Fraction(-2, 3)),
                (Fraction(2), Fraction(1, 5)),
            }
        else:
            assert len(components) == 16
        n = len(pair.on_x)
        for lq in components:
            # the unscaled translated pair M - p*Id, on Fractions
            nil_x, nil_y = (
                translated(densify(image, QQ), p, QQ)
                for image, p in zip((pair.on_x, pair.on_y), lq.point)
            )
            space = generalized_eigenspace(pair, lq.point, QQ)
            invariants = local_invariants(lq)
            assert lq.dimension == invariants.local_length == len(space)
            r = word_table_nilpotency_index(nil_x, nil_y, space, QQ)
            assert lq.nilpotency_index == r
            socle = n - dense_rank(nil_x + nil_y, QQ)
            assert invariants.socle == stacked_socle_dimension(lq) == socle
            centred = [moved_to_origin(g, lq.point) for g in gens]
            assert invariants.generators == minimal_generator_count(centred, r)
    # the dense pair has one non-reduced factor of each shape
    analysis = analyze_quotient(buchberger(dense, DEFAULT_ORDER))
    rows = {(c.local_length, c.nilpotency_index, c.generators, c.socle) for c in analysis.components}
    assert rows == {(3, 3, 2, 1), (3, 2, 3, 2)}
