"""Shared test oracles: direct, slower routes to values the package computes
another way, kept out of the package because only the tests read them."""

import math
import sys
from fractions import Fraction
from itertools import accumulate, repeat
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from punctual import artinian  # noqa: E402
from punctual.artinian import MultiplicationPair, truncation_monomials  # noqa: E402
from punctual.fields import QQ  # noqa: E402
from punctual.linalg import IntegerImage, _first_dependence, _normalised, kernel_basis  # noqa: E402
from punctual.poly import UNIT, Monomial, Polynomial, X, Y  # noqa: E402
from punctual.staircase import Partition  # noqa: E402
from punctual import univariate  # noqa: E402
from punctual.univariate import _image, _integral  # noqa: E402


def evaluate(f: Polynomial, px, py):
    """f at the point (px, py) of two field elements, exactly."""
    return f.field.reduce(sum(c * px**m.a * py**m.b for m, c in f.terms.items()))


def constant_term(f: Polynomial):
    return f.terms.get(UNIT, f.field.zero())


def coprime(m: Monomial, n: Monomial) -> bool:
    """Whether two monomials share no variable: the packed Buchberger tests
    this as lcm == product."""
    return min(m.a, n.a) == 0 and min(m.b, n.b) == 0


def monic(f: Polynomial, order) -> Polynomial:
    """f divided by its leading coefficient (zero stays zero): the packed
    Buchberger stores its elements monic itself."""
    if not f:
        return f
    return f.times_term(UNIT, f.field.inv(f.leading_coefficient(order)))


def dense_mat_vec(a: list[list], v: list, field) -> list:
    """A dense matrix of field elements times a vector: the product before
    the sparse integer ``mat_vec``."""
    zero, reduce = field.zero(), field.reduce
    support = [(j, y) for j, y in enumerate(v) if y]
    out = []
    for row in a:
        acc = zero
        for j, y in support:
            x = row[j]
            if x:
                acc = acc + x * y
        out.append(reduce(acc))
    return out


def dense_rref(matrix: list[list], field) -> tuple[list[list], list[int]]:
    """Reduced row echelon form on field elements (ints are read in the
    field), pivots normalised to 1: the dense oracle of the sparse integer
    ``rref`` and ``kernel_basis``."""
    rows = [[field.from_int(v) for v in row] for row in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    one, inv, reduce = field.one(), field.inv, field.reduce
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        if pv != one:
            scale = inv(pv)
            rows[r] = [reduce(v * scale) for v in rows[r]]
        lead = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [reduce(v - f * w) if w else v for v, w in zip(rows[i], lead)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def dense_rank(matrix: list[list], field) -> int:
    return len(dense_rref(matrix, field)[1]) if matrix else 0


def dense_kernel_basis(matrix: list[list], field) -> list[list]:
    """Echelon basis of the right kernel on field elements, 1 at each free
    column."""
    reduced, pivots = dense_rref(matrix, field)
    ncols = len(matrix[0])
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        v = [field.zero()] * ncols
        v[free] = field.one()
        for i, p in enumerate(pivots):
            if reduced[i][free]:
                v[p] = field.reduce(-reduced[i][free])
        basis.append(v)
    return basis


def sparse(matrix: list[list]) -> list[list]:
    """The rows of a dense integer matrix as (column, entry) pairs, the
    form ``rref``, ``rank`` and ``kernel_basis`` read."""
    return [[(j, a) for j, a in enumerate(row) if a] for row in matrix]


def primitive_basis(basis: list[list], field) -> list[list]:
    """Kernel vectors of ``dense_kernel_basis`` as the integer ``kernel_basis``
    returns them: over QQ each one's primitive integer multiple, positive
    at its free column; over Fp unchanged."""
    return [_normalised(_integral(v, QQ)[1], 0) for v in basis] if field == QQ else basis


def integer_image(matrix: list[list], field) -> IntegerImage:
    """The integer image of a dense matrix of field elements."""
    n = len(matrix)
    denominator, entries = _integral([c for row in matrix for c in row], field)
    return IntegerImage(denominator, columns_of([entries[i * n : (i + 1) * n] for i in range(n)]))


def sorted_every_step_normal_form(f, basis, order):
    """Reference division on field elements, keyed by ``Monomial``: re-sort
    the running remainder at every step and reduce its order-largest
    reducible monomial by the first basis element (in sequence order) whose
    leading monomial divides it.  The division before the packed integer
    kernel of ``normal_form``."""
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


def division_operators(qb, gb) -> MultiplicationPair:
    """The multiplication pair with column j of M_v the normal form of
    v*m_j by multivariate division on field elements: the build before
    recombination, and before the integer normal forms."""
    n = len(qb)
    index = {m: i for i, m in enumerate(qb)}

    def image(shift: Monomial) -> IntegerImage:
        cells = []  # (row, column, coefficient)
        for j, m in enumerate(qb):
            t = m * shift
            if t in index:
                nf = {t: 1}
            else:
                t_poly = Polynomial.monomial(gb.field, t)
                nf = sorted_every_step_normal_form(t_poly, gb.generators, gb.order).terms
            cells.extend((index[mm], j, c) for mm, c in nf.items())
        denominator, values = _integral([c for _, _, c in cells], gb.field)
        columns = [[] for _ in range(n)]
        for (i, j, _), a in zip(cells, values):
            columns[j].append((i, a))
        return IntegerImage(denominator, columns)

    return MultiplicationPair(image(X), image(Y))


def schoolbook_mulmod(a: list, b: list, f: list, field) -> list:
    product = [field.zero()] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                product[i + j] += x * y
    return univariate.divmod(_image(product, field.p), f, field.p)[1]


def schoolbook_powmod(a: list, e: int, f: list, field) -> list:
    """a^e mod f by repeated squaring, each product reduced by ``divmod``:
    the route before the folded ``_powmod``."""
    result, a = [field.one()], univariate.divmod(a, f, field.p)[1]
    while e:
        if e & 1:
            result = schoolbook_mulmod(result, a, f, field)
        e >>= 1
        if e:
            a = schoolbook_mulmod(a, a, f, field)
    return result


def densify(image: IntegerImage, field) -> list[list]:
    """The dense matrix of field elements M = A/D of an ``IntegerImage``
    (a ``MultiplicationPair`` member, or a factor's translated ``mult_x``,
    ``mult_y``), read off its rows."""
    return dense_of(image.rows, image.denominator, field)


def columns_of(matrix: list[list]) -> list[list]:
    """The sparse columns, (row, entry) pairs, of a dense square matrix."""
    return [[(i, row[j]) for i, row in enumerate(matrix) if row[j]] for j in range(len(matrix))]


def dense_of(rows: list[list], denominator: int, field) -> list[list]:
    """The dense square matrix of field elements of sparse integer rows,
    (column, entry) pairs, over a common denominator."""
    matrix = [[field.zero()] * len(rows) for _ in rows]
    for out, row in zip(matrix, rows):
        for j, a in row:
            out[j] = Fraction(a, denominator) if field == QQ else field.from_int(a)
    return matrix


def translated(matrix: list[list], p, field) -> list[list]:
    """M - p*Id on field elements, p subtracted on the diagonal only: the
    translation before the integer rows b*A - a*D*Id."""
    reduce = field.reduce
    return [row[:i] + [reduce(row[i] - p)] + row[i + 1 :] for i, row in enumerate(matrix)]


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
    krylov = accumulate(repeat(matrix, n), lambda v, m: dense_mat_vec(m, v, field), initial=vector)
    return _first_dependence(krylov, field)


def fraction_minimal_polynomial(matrix: list[list], vector: list) -> list:
    """The least monic f with f(M)v = 0 over QQ, as the first dependence of
    the Krylov sequence eliminated in ``Fraction`` arithmetic: the QQ route
    before the modular kernel."""
    return vector_minimal_polynomial(matrix, vector, QQ)


def fraction_divmod(a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder of a by b (b nonzero) over QQ, on ``Fraction``
    coefficients: the QQ division before exact division over Z."""
    rem, db = [Fraction(c) for c in a], len(b) - 1
    quotient = [Fraction(0)] * max(len(a) - db, 0)
    for k in range(len(a) - 1 - db, -1, -1):
        c = quotient[k] = rem[k + db] / b[-1]
        for i, bi in enumerate(b):
            rem[k + i] -= c * bi
    rem = rem[:db]
    while rem and not rem[-1]:
        rem.pop()
    return quotient, rem


def fraction_cofactor(coeffs: list, root, field):
    """The g with coeffs = (t - root)^s * g, s >= 1 and g(root) != 0, or
    None if root is not a root, by synthetic division by t - root on field
    elements: the route before the integer division by b*t - a."""
    reduce = field.reduce
    cofactor = None
    while True:
        *quotient, remainder = accumulate(reversed(coeffs), lambda acc, c: reduce(acc * root + c))
        if remainder:
            return cofactor
        coeffs = cofactor = quotient[::-1]


def fraction_horner(coeffs: list, matrix: list[list], vector: list, field) -> list:
    """f(M)v for a monic f by Horner's rule with ``mat_vec`` on field
    elements: the cofactor route before the integer image."""
    reduce = field.reduce
    acc = vector
    for c in reversed(coeffs[:-1]):
        acc = [reduce(a + c * v) for a, v in zip(dense_mat_vec(matrix, acc, field), vector)]
    return acc


def horner(coeffs: list, image: IntegerImage, vector: list, field) -> list:
    """f(M)v up to a positive scalar, for a monic f of any degree, as
    integers: Horner's rule on sum_i F_i D^(d-i) A^i w with F = L*f and
    w = E*v integral, which is L E D^d f(M)v, over all rows of A for each
    coefficient.  Over QQ the primitive integer vector, divided by its
    content; over Fp, where L = E = D = 1, f(M)v itself, every entry
    reduced.  A degree-0 f returns v itself.  The cofactor route before
    ``krylov_image`` read f(M)v off v's Krylov space."""
    if len(coeffs) == 1:
        return vector
    p = field.characteristic
    _, scaled = _integral(coeffs, field)
    _, w = _integral(vector, field)
    acc, power = [scaled[-1] * x for x in w], 1
    for c in reversed(scaled[:-1]):
        power *= image.denominator
        shift = c * power
        acc = [sum(a * acc[j] for j, a in row) + shift * x for row, x in zip(image.rows, w)]
        if p:
            acc = [a % p for a in acc]
    content = 1 if p else math.gcd(*acc) or 1
    return [a // content for a in acc] if content > 1 else acc


def pairwise_components(gb) -> list:
    """The local factors, ordered by point, as the split before the
    restriction to each x-root found them: from the minimal polynomials of
    both operators on [1], w = g_x(Mx) g_y(My)[1] for every pair of roots,
    a factor wherever w != 0."""
    qb = artinian.quotient_basis(gb)
    if not qb:
        return []
    pair = artinian.multiplication_matrices(qb, gb)
    field = gb.field
    one = [1] + [0] * (len(qb) - 1)

    def candidates(image):
        coeffs, _ = artinian._minimal_polynomial(image, one, field)
        roots = univariate.roots(coeffs, field)
        return [(p, univariate._cofactor(coeffs, p, field)) for p in roots]

    roots_y = [
        (
            py,
            artinian._translated(pair.on_y, py, field),
            horner(g, pair.on_y, one, field),
        )
        for py, g in candidates(pair.on_y)
    ]
    components = []
    for px, g in candidates(pair.on_x):
        nil_x = artinian._translated(pair.on_x, px, field)
        x_kernel = kernel_basis(nil_x.rows, len(nil_x), field)
        for py, nil_y, w_y in roots_y:
            generator = horner(g, pair.on_x, w_y, field)
            if any(generator):
                components.append(
                    artinian._component_at((px, py), nil_x, nil_y, generator, field, x_kernel)
                )
    return sorted(components, key=lambda lq: lq.point)


def stacked_socle_dimension(lq) -> int:
    """n minus the rank of the stacked translated pair: the socle route
    before the kernel of Ny on ker(Nx), on field elements."""
    stacked = densify(lq.mult_x, lq.field) + densify(lq.mult_y, lq.field)
    return len(lq.mult_x) - dense_rank(stacked, lq.field)


def euclid_squarefree_part(coeffs: list) -> list[int]:
    """f / gcd(f, f') with the gcd by Euclid's algorithm over QQ, as a
    primitive integer polynomial with a positive leading coefficient: the
    QQ route before the modular kernel."""
    a, b = coeffs, [i * c for i, c in enumerate(coeffs)][1:]
    while b:
        a, b = b, fraction_divmod(a, b)[1]
    return univariate._primitive(fraction_divmod(coeffs, a)[0])


def is_zero_matrix(a: list[list]) -> bool:
    return all(not entry for row in a for entry in row)


def is_reduced(gb) -> bool:
    """Check the reducedness contract of a Groebner basis directly."""
    one = gb.field.one()
    lms = gb.lms
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
    """A factor's ``local_ideal`` kernel vectors rendered as polynomials:
    members of the local ideal itself where the operators carry no scale
    (a point with integer coordinates and D = 1)."""
    monos = truncation_monomials(lq.nilpotency_index)
    return [
        Polynomial(lq.field, {monos[i]: lq.field.from_int(c) for i, c in enumerate(vec) if c})
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
    if any(constant_term(g) for g in gens):
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
    return dense_rank(image_rows, coeff_field) - dense_rank(shifted_rows, coeff_field)
