"""Shared test oracles: direct, slower routes to values the package computes
another way, kept out of the package because only the tests read them."""

import sys
from itertools import accumulate, repeat
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from punctual.artinian import truncation_monomials  # noqa: E402
from punctual.fields import QQ  # noqa: E402
from punctual.linalg import _first_dependence, mat_vec, rank  # noqa: E402
from punctual.poly import Monomial, Polynomial  # noqa: E402
from punctual.staircase import Partition  # noqa: E402
from punctual import univariate  # noqa: E402


def evaluate(f: Polynomial, px, py):
    """f at the point (px, py) of two field elements, exactly."""
    return f.field.reduce(sum(c * px**m.a * py**m.b for m, c in f.terms.items()))


# The curated ideals supported only at the origin, where degeneration
# comparisons are meaningful.
ORIGIN_CORPUS: tuple[str, ...] = (
    "y - x^2, x^3",
    "x^2 + y^2, x*y",
    "x^2 - y^2, x*y",
    "y^2 - x^3, x^2*y",
    "x^2 + x*y, y^2",
    "y - x^2, x^4",
    "x^2 - y, y^2",
    "x^3 - y, y^3",
    "x^2 - y^3, x*y^2, y^4",
    "x^3, x*y - y^3, y^4",
    "x^2 + y^3, x*y^3, y^5",
    "x^3, x^2*y, x*y^2 - x^2, y^4",
)


def scaled_identity(factor, n: int, field) -> list[list]:
    z = field.zero()
    return [[factor if i == j else z for j in range(n)] for i in range(n)]


def mat_sub(a: list[list], b: list[list], field) -> list[list]:
    reduce = field.reduce
    return [[reduce(x - y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def vector_minimal_polynomial(matrix: list[list], vector: list, field) -> list:
    """Coefficients (constant first, monic) of the least f with f(M)v = 0.

    The first linear dependence among v, Mv, M**2 v, ..., eliminated on
    field elements: the route before the packed ``krylov_dependence``.
    """
    n = len(matrix)
    krylov = accumulate(repeat(matrix, n), lambda v, m: mat_vec(m, v, field), initial=vector)
    return _first_dependence(krylov, field)


def fraction_minimal_polynomial(matrix: list[list], vector: list) -> list:
    """The least monic f with f(M)v = 0 over QQ, as the first dependence of
    the Krylov sequence eliminated in ``Fraction`` arithmetic: the QQ route
    before the modular kernel."""
    return vector_minimal_polynomial(matrix, vector, QQ)


def fraction_horner(coeffs: list, matrix: list[list], vector: list, field) -> list:
    """f(M)v for a monic f by Horner's rule with ``mat_vec`` on field
    elements: the cofactor route before the integer image."""
    reduce = field.reduce
    acc = vector
    for c in reversed(coeffs[:-1]):
        acc = [reduce(a + c * v) for a, v in zip(mat_vec(matrix, acc, field), vector)]
    return acc


def stacked_socle_dimension(lq) -> int:
    """n minus the rank of the stacked translated pair: the socle route
    before the kernel of Ny on ker(Nx)."""
    return len(lq.mult_x) - rank(lq.mult_x + lq.mult_y, lq.field)


def euclid_squarefree_part(coeffs: list) -> list[int]:
    """f / gcd(f, f') with the gcd by Euclid's algorithm over QQ, as a
    primitive integer polynomial: the QQ route before the modular kernel."""
    derivative = [i * c for i, c in enumerate(coeffs)][1:]
    common = univariate.gcd(coeffs, derivative, QQ)
    return univariate._primitive(univariate.divmod(coeffs, common, QQ)[0])


def is_zero_matrix(a: list[list]) -> bool:
    return all(not entry for row in a for entry in row)


def is_reduced(gb) -> bool:
    """Check the reducedness contract of a Groebner basis directly."""
    one = gb.field.one()
    lms = gb.leading_monomials()
    for g, lm in zip(gb.generators, lms):
        if g.leading_coefficient(gb.order) != one:
            return False
        for m in g.terms:
            for other in lms:
                if other != lm and other.divides(m):
                    return False
    return True


def staircase_witness(b: int) -> Partition:
    """The partition (b, b-1, ..., 1); its inner corner count is exactly b."""
    if b < 1:
        raise ValueError("witness is defined for b >= 1")
    return Partition(tuple(range(b, 0, -1)))


def partition_from_boxes(monomials) -> Partition:
    """Recover the partition from a staircase set of standard monomials."""
    rows: dict[int, int] = {}
    for m in monomials:
        rows[m.b] = rows.get(m.b, 0) + 1
    if not rows:
        raise ValueError("no boxes")
    parts = []
    for j in range(len(rows)):
        if j not in rows:
            raise ValueError("rows are not contiguous from the bottom")
        parts.append(rows[j])
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError("row lengths are not weakly decreasing")
    expected = {(i, j) for j, width in enumerate(parts) for i in range(width)}
    if {(m.a, m.b) for m in monomials} != expected:
        raise ValueError("boxes are not left-justified")
    return Partition(tuple(parts))


def local_ideal_truncation(lq) -> list[Polynomial]:
    """A factor's ``local_ideal`` kernel vectors rendered as polynomials."""
    monos = truncation_monomials(lq.nilpotency_index)
    return [
        Polynomial(lq.field, {monos[i]: c for i, c in enumerate(vec) if c})
        for vec in lq.local_ideal
    ]


def minimal_generator_count(generators, nilpotency: int) -> int:
    """Minimal generator count of a local-at-origin ideal given generators.

    Works in the truncation k[x,y]/m^(r+1) with r = nilpotency: the image
    of the ideal is spanned by monomial multiples of the generators
    together with all degree-r monomials (which lie in the ideal since
    m^r does), and e = rank(image) - rank(m * image).
    """
    gens = [g for g in generators if g]
    if not gens:
        raise ValueError("no nonzero generators")
    coeff_field = gens[0].field
    if any(g.constant_term for g in gens):
        raise ValueError(
            "a generator has nonzero constant term, so the origin is not a support point"
        )
    r = nilpotency
    monos = truncation_monomials(r)
    index = {mono: i for i, mono in enumerate(monos)}
    zero, reduce = coeff_field.zero(), coeff_field.reduce

    def truncate_rows(polys_as_rows):
        rows = []
        for source in polys_as_rows:
            row = [zero] * len(monos)
            for mono, c in source:
                if mono.degree <= r:
                    i = index[mono]
                    row[i] = reduce(row[i] + c)
            if any(row):
                rows.append(row)
        return rows

    products = []
    for g in gens:
        for mono in monos:
            products.append([(mg * mono, cg) for mg, cg in g.terms.items()])
    one = coeff_field.one()
    padding = [[(mono, one)] for mono in monos if mono.degree == r]
    image_rows = truncate_rows(products + padding)

    shifted = []
    for source in products + padding:
        for dx, dy in ((1, 0), (0, 1)):
            shifted.append([(Monomial(m.a + dx, m.b + dy), c) for m, c in source])
    shifted_rows = truncate_rows(shifted)
    return rank(image_rows, coeff_field) - rank(shifted_rows, coeff_field)
