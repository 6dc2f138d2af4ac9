"""Quotient bases, local splitting, socle and generator counts, multiplicity."""

from fractions import Fraction

import pytest

import punctual.artinian as artinian
from punctual.artinian import (
    LocalQuotient,
    analyze_quotient,
    generator_count,
    local_component_at,
    local_components,
    local_ideal_kernel,
    local_ideal_truncation,
    local_invariants,
    local_unit,
    minimal_generator_count,
    multiplication_matrices,
    multiplicity_from_socle,
    nilpotency_index,
    quotient_basis,
    socle_dimension,
    truncation_monomials,
)
from punctual.errors import NotZeroDimensional, PointNotInSupport
from punctual.fields import PrimeField, QQ
from punctual.groebner import buchberger
from punctual.linalg import (
    identity,
    is_zero_matrix,
    kernel_basis,
    mat_mul,
    mat_pow,
    mat_sub,
    minimal_polynomial,
    scaled_identity,
)
from punctual.poly import ALL_ORDERS, DEFAULT_ORDER, Monomial, parse_generators
from punctual.verify import CURATED_CORPUS

F7 = PrimeField(7)
F32003 = PrimeField(32003)


def gb_of(text, order=DEFAULT_ORDER, field=QQ):
    return buchberger(parse_generators(text, field), order)


def test_quotient_basis_pinned_cases():
    assert quotient_basis(gb_of("x, y")).monomials == (Monomial(0, 0),)
    qb = quotient_basis(gb_of("x^2, x*y, y^2"))
    assert set(qb.monomials) == {Monomial(0, 0), Monomial(1, 0), Monomial(0, 1)}
    assert qb.dimension == 3
    qb = quotient_basis(gb_of("y, x^3"))
    assert qb.monomials == (Monomial(0, 0), Monomial(1, 0), Monomial(2, 0))


def test_quotient_basis_sorted_ascending():
    qb = quotient_basis(gb_of("x^2, x*y, y^2"))
    key = DEFAULT_ORDER.key_func()
    assert list(qb.monomials) == sorted(qb.monomials, key=key)


def test_quotient_basis_is_a_staircase():
    # standard monomials are closed under divisibility
    for text in CURATED_CORPUS:
        monomials = set(quotient_basis(gb_of(text)).monomials)
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
            steps = artinian._staircase(gb.leading_monomials())
            area = sum((end - start) * height for start, end, height in steps)
            assert area == quotient_basis(gb).dimension, (text, order)


def test_quotient_basis_rejects_positive_dimension():
    with pytest.raises(NotZeroDimensional):
        quotient_basis(gb_of("x"))


def test_unit_ideal_has_colength_zero():
    gb = gb_of("x, y, x - 1")
    assert quotient_basis(gb).dimension == 0
    analysis = analyze_quotient(gb)
    assert analysis.colength == 0
    assert analysis.components == ()
    assert analysis.residual_dimension == 0


def test_multiplication_matrices_pinned_cases():
    gb = gb_of("x, y")
    qb = quotient_basis(gb)
    pair = multiplication_matrices(qb, gb)
    assert pair.on_x == [[Fraction(0)]]
    assert pair.on_y == [[Fraction(0)]]

    gb = gb_of("x^2, x*y, y^2")
    qb = quotient_basis(gb)
    pair = multiplication_matrices(qb, gb)
    index = {m: i for i, m in enumerate(qb.monomials)}
    col_of_one = [pair.on_x[i][index[Monomial(0, 0)]] for i in range(3)]
    assert col_of_one[index[Monomial(1, 0)]] == Fraction(1)
    # x kills both x and y in this quotient
    for mono in (Monomial(1, 0), Monomial(0, 1)):
        assert all(pair.on_x[i][index[mono]] == 0 for i in range(3))

    gb = gb_of("y, x^3")
    qb = quotient_basis(gb)
    pair = multiplication_matrices(qb, gb)
    assert is_zero_matrix(pair.on_y)
    assert mat_pow(pair.on_x, 3, QQ) == [[Fraction(0)] * 3 for _ in range(3)]
    assert not is_zero_matrix(mat_pow(pair.on_x, 2, QQ))


def test_matrices_commute_on_corpus():
    for text in CURATED_CORPUS:
        gb = gb_of(text)
        qb = quotient_basis(gb)
        pair = multiplication_matrices(qb, gb)
        assert mat_mul(pair.on_x, pair.on_y, QQ) == mat_mul(pair.on_y, pair.on_x, QQ)


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
                assert g.evaluate(*lq.point) == QQ.zero()


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
    assert is_zero_matrix(mat_pow(lq.mult_x, 2, QQ))
    assert is_zero_matrix(mat_pow(lq.mult_y, 2, QQ))
    assert not is_zero_matrix(mat_mul(lq.mult_x, lq.mult_y, QQ))


def test_nilpotency_invariants_on_corpus():
    for text in CURATED_CORPUS:
        for lq in local_components(gb_of(text)).components:
            r = lq.nilpotency_index
            assert 1 <= r <= lq.dimension
            assert is_zero_matrix(mat_pow(lq.mult_x, r, QQ))
            assert is_zero_matrix(mat_pow(lq.mult_y, r, QQ))
            if r > 1:
                # some length r-1 word survives
                powers_x = [mat_pow(lq.mult_x, i, QQ) for i in range(r)]
                powers_y = [mat_pow(lq.mult_y, i, QQ) for i in range(r)]
                assert any(
                    not is_zero_matrix(mat_mul(powers_x[i], powers_y[r - 1 - i], QQ))
                    for i in range(r)
                )


def test_nilpotency_index_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        nilpotency_index([[Fraction(1)]], [[Fraction(0)]], QQ)


def test_minimal_generator_count_pinned_cases():
    assert minimal_generator_count(parse_generators("x, y", QQ), 1) == 2
    assert minimal_generator_count(parse_generators("x^2, x*y, y^2", QQ), 2) == 3
    assert minimal_generator_count(parse_generators("y - x^2, x^3", QQ), 3) == 2


def test_minimal_generator_count_rejects_units():
    with pytest.raises(PointNotInSupport):
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
        assert gb.normal_form(f).is_zero()


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
        colengths = {
            quotient_basis(buchberger(gens, order)).dimension for order in ALL_ORDERS
        }
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


def test_local_component_at():
    gb = gb_of("x^2 - x, y")
    origin = local_component_at(gb, (QQ.zero(), QQ.zero()))
    assert origin is not None and origin.dimension == 1
    outside = local_component_at(gb, (QQ.from_int(2), QQ.zero()))
    assert outside is None


def test_analysis_over_prime_field():
    analysis = analyze_quotient(gb_of("x^2 + x, y", field=F7))
    assert analysis.colength == 2
    assert {c.point[0] for c in analysis.components} == {0, 6}
    for component in analysis.components:
        assert component.socle == 1


# Oracles: the word-table and n-th power routines the engine used before it
# moved to the filtration, the root-multiplicity exponent and the unit vector.


def word_table_nilpotency_index(nil_x, nil_y, field):
    """Least r with every length-r word in {Nx, Ny} zero, from all words."""
    m = len(nil_x)
    words = {(0, 0): identity(m, field)}
    for r in range(1, m + 1):
        current = {(r, 0): mat_mul(words[(r - 1, 0)], nil_x, field)}
        for b in range(1, r + 1):
            current[(r - b, b)] = mat_mul(words[(r - b, b - 1)], nil_y, field)
        if all(is_zero_matrix(w) for w in current.values()):
            return r
        words = current
    raise ValueError("not jointly nilpotent")


def operator_evaluation_kernel(lq):
    """Kernel of f -> f(Nx, Ny) as an m^2-row evaluation on the truncation."""
    field, m, r = lq.field, lq.dimension, lq.nilpotency_index
    monos = truncation_monomials(r)
    words = {(0, 0): identity(m, field)}
    for a in range(1, r + 1):
        words[(a, 0)] = mat_mul(words[(a - 1, 0)], lq.mult_x, field)
    for a in range(r + 1):
        for b in range(1, r + 1 - a):
            words[(a, b)] = mat_mul(words[(a, b - 1)], lq.mult_y, field)
    evaluation = [
        [words[(mono.a, mono.b)][u][v] for mono in monos] for u in range(m) for v in range(m)
    ]
    return monos, kernel_basis(evaluation, field)


ORACLE_CASES = [(text, field) for field in (QQ, F32003) for text in CURATED_CORPUS] + [
    (f"x^{k}, y^{k}", field) for field in (QQ, F32003) for k in range(1, 6)
]


@pytest.fixture(scope="module")
def oracle_cases():
    out = []
    for text, field in ORACLE_CASES:
        gb = gb_of(text, field=field)
        pair = multiplication_matrices(quotient_basis(gb), gb)
        out.append((text, field, pair, local_components(gb).components))
    return out


def test_filtration_nilpotency_matches_word_table(oracle_cases):
    for text, field, _, components in oracle_cases:
        for lq in components:
            expected = word_table_nilpotency_index(lq.mult_x, lq.mult_y, field)
            assert nilpotency_index(lq.mult_x, lq.mult_y, field) == expected, text


def test_class_of_one_minimal_polynomial_matches_matrix_powers(oracle_cases):
    for text, field, pair, _ in oracle_cases:
        for matrix in (pair.on_x, pair.on_y):
            assert artinian._minimal_polynomial(matrix, field) == (
                minimal_polynomial(matrix, field)
            ), text


def test_root_multiplicity_power_has_the_full_generalized_kernel(oracle_cases):
    for text, field, pair, _ in oracle_cases:
        for matrix in (pair.on_x, pair.on_y):
            n = len(matrix)
            for p, s in artinian._eigenvalue_candidates(matrix, field):
                full = mat_pow(mat_sub(matrix, scaled_identity(p, n, field), field), n, field)
                assert kernel_basis(artinian._primary_power(matrix, p, s, field), field) == (
                    kernel_basis(full, field)
                ), text


def test_unit_vector_kernel_matches_operator_evaluation(oracle_cases):
    for text, _, _, components in oracle_cases:
        for lq in components:
            assert local_ideal_kernel(lq) == operator_evaluation_kernel(lq), text


def test_local_unit_rejects_non_local_pair():
    zero = [[Fraction(0)] * 2 for _ in range(2)]
    lq = LocalQuotient((QQ.zero(), QQ.zero()), 2, zero, zero, 1, QQ)
    with pytest.raises(ValueError):
        local_unit(lq)


def test_root_search_runs_once_per_coordinate(monkeypatch):
    calls = []
    original = artinian._fp_roots

    def counted(coeffs, p):
        calls.append(coeffs)
        return original(coeffs, p)

    monkeypatch.setattr(artinian, "_fp_roots", counted)
    decomposition = local_components(gb_of("x^2 - 1, y^2 - 1", field=F32003))
    assert len(decomposition.components) == 4
    assert len(calls) == 2


def test_factor_on_the_whole_quotient_is_not_restricted(monkeypatch):
    def refuse(*args):
        raise AssertionError("restricted a factor that is the whole quotient")

    fat_point_at_1_2 = "x^2 - 2*x + 1, x*y - 2*x - y + 2, y^2 - 4*y + 4"
    for text, field in ((fat_point_at_1_2, QQ), ("x^3, y^2 - x", F7)):
        gb = gb_of(text, field=field)
        pair = multiplication_matrices(quotient_basis(gb), gb)
        monkeypatch.setattr(artinian, "solve_in_column_space", refuse)
        (lq,) = local_components(gb).components
        monkeypatch.undo()
        n = len(pair.on_x)
        assert lq.dimension == n
        assert lq.mult_x == mat_sub(pair.on_x, scaled_identity(lq.point[0], n, field), field)
        assert lq.mult_y == mat_sub(pair.on_y, scaled_identity(lq.point[1], n, field), field)
    # with two points each factor is a proper subspace and is restricted
    calls = []
    original = artinian.solve_in_column_space
    monkeypatch.setattr(
        artinian, "solve_in_column_space", lambda *args: calls.append(args) or original(*args)
    )
    assert len(local_components(gb_of("x^2 - 1, y")).components) == 2
    assert len(calls) == 4


def test_local_component_at_non_root_takes_no_matrix_power(monkeypatch):
    calls = []
    original = artinian.mat_pow
    monkeypatch.setattr(artinian, "mat_pow", lambda *args: calls.append(args) or original(*args))
    gb = gb_of("x^2 - x, y")
    assert local_component_at(gb, (QQ.from_int(2), QQ.zero())) is None
    assert calls == []
    assert local_component_at(gb, (QQ.one(), QQ.zero())).dimension == 1
    assert len(calls) == 2


def test_generator_route_never_reads_the_socle_kernel(monkeypatch):
    kernels = []
    original = artinian.kernel_basis

    def recorded(matrix, field):
        kernels.append(matrix)
        return original(matrix, field)

    def forbidden(lq):
        raise AssertionError("generator route called socle_dimension")

    for text in ("x^2, x*y, y^2", "x^2 - y^3, x*y^2, y^4"):
        lq = one_component(text)
        monkeypatch.setattr(artinian, "kernel_basis", recorded)
        monkeypatch.setattr(artinian, "socle_dimension", forbidden)
        generator_count(lq)
        monkeypatch.undo()
        assert kernels and all(k != lq.mult_x + lq.mult_y for k in kernels)
