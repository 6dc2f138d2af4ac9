"""Artinian quotients k[x,y]/I and their local invariants at rational points.

The quotient of a zero-dimensional ideal is carried by the pair of
commuting multiplication operators on the standard-monomial basis, each
built once as its integer image M = A/D (D = 1 over Fp) from normal
forms recombined out of the basis's tails, not by division.  All
invariants come out of exact linear algebra on integers over both fields:

* the minimal polynomial of an operator on the cyclic space k[x,y] v is
  the first dependence among v, Mv, M^2 v, ...: over Fp by
  ``linalg.krylov_dependence`` on A's columns, over QQ as the images of
  that dependence mod many primes lifted by
  ``univariate.rational_minimal_polynomial``, which accepts the lift only
  after checking f(M)v = 0 exactly; its roots in the field come from
  ``univariate.roots``, by modular algorithms (over QQ after a sieve mod
  small primes that only rules roots out, and directly where the
  squarefree part is linear), and are confirmed exactly;
* the quotient is cyclic on the class of 1, and a root px splits the
  minimal polynomial of Mx on [1] as (t - px)^s * g_x; g_x(Mx) is
  invertible on the factors with x = px and zero on all others, non-rational
  ones included, so u = g_x(Mx)[1] generates their sum V.  Since My
  commutes with Mx, the minimal polynomial of My on u is that of My on V:
  its roots py are exactly the points (px, py) of the support, and with
  (t - py)^s' * h its split, w = h(My)u generates the local factor
  A_p = k[x,y] w.  u and w, read off the Krylov spaces of [1] and of u by
  ``univariate.krylov_image``, matter only up to a unit of A_p;
* the words Nx^a Ny^b w in the translated operators N, the integer
  images of M - p*Id (the columns of b*D*(M - p*Id) over b*D for
  p = a/b), span A_p: the nilpotency index r is the first degree at which
  they all vanish, and the words are built once, in that search;
* the local ideal's image in k[x,y]/m^(r+1) is the kernel of
  f -> f(Nx, Ny)w on the (r+1)(r+2)/2 monomials of degree <= r, read off
  those words once per factor; that map is onto A_p, so the local length
  is (r+1)(r+2)/2 minus the dimension of the image;
* the socle is the joint kernel of the translated pair (a vector killed
  by both lies in A_p), read as the kernel of Ny on K = ker(Nx), which
  the split eliminates once per x-root;
* the minimal generator count of the local ideal is dim I/mI of that
  image.

The socle route reads the joint kernel of the pair and never w, the
generator route only the words on w, so they are independent.
``local_invariants`` runs both on one factor and returns the flat
``LocalInvariants`` record (the multiplicity b2*(b2+1)/2 is read from the
socle); it is the one place that asserts socle = generators - 1 and
multiplicity <= length, and a violation raises LemmaViolation because it
can only mean an engine bug.  ``analyze_quotient`` is the local split
followed by ``local_invariants`` on every factor.  ``local_components``
and ``local_component_at`` run one split loop; at a given point each
coordinate's root search is replaced by one cofactor test.
"""

from __future__ import annotations

import math
from itertools import compress, count
from typing import NamedTuple

from .errors import ConfigError, LemmaViolation, NotZeroDimensional
from .fields import element_text
from .groebner import GroebnerBasis, is_zero_dimensional
from .linalg import IntegerImage, kernel_basis, krylov_dependence, mat_vec, rank, transposed
from .poly import Monomial, X, Y
from .univariate import _cofactor, _integral, krylov_image, rational_minimal_polynomial, roots

# quotients above this colength are refused before their basis is listed:
# in-process on a 2-core VM analyze takes 0.004-0.006 s on x^11, y^11
# (colength 121) and 0.003-0.004 s on x^10, y^10; dense operators cost more,
# 0.01-0.013 s for (x - 1)^11, (y - 2)^11 and 0.09-0.12 s for the 121 points
# of an 11 x 11 grid, over QQ or Fp:32003, or of prod (3x - i), prod (5y - j)
MAX_COLENGTH = 121


class MultiplicationPair(NamedTuple):
    """Multiplication by x and by y on the standard basis, as integer images."""

    on_x: IntegerImage
    on_y: IntegerImage


class LocalQuotient(NamedTuple):
    """One local factor A_p of the quotient at a rational support point p.

    ``mult_x`` and ``mult_y`` are the whole quotient's operators translated
    to p = a/b, as the ``IntegerImage`` of M - p*Id: the sparse integer
    columns and rows of N = b*A - a*D*Id = c*(M - p*Id) over c = b*D (1
    over Fp), and ``generator`` is the primitive integer vector w, a
    multiple of h(My) g_x(Mx)[1], with A_p = k[x,y] w.
    The words Nx^a Ny^b w span A_p and ``nilpotency_index`` is the least r
    at which all words of degree r vanish; the function of that name
    returns r and the sparse words of degree <= r, built in one pass.
    ``local_ideal`` is the echelon kernel of f -> f(Nx, Ny)w on the
    monomials of degree <= r, read off those same words (primitive integer
    vectors over QQ, ordered like ``truncation_monomials(r)``): the f with
    f(c_x*x, c_y*y) in the local ideal, modulo m^(r+1), which
    ``generator_count`` reads directly.  ``dimension`` (the local length) is
    the number of those monomials minus its size.  ``x_kernel``, the echelon
    basis of ker(Nx), is built by the split once per x-root and is the same
    list in every factor there.
    """

    point: tuple
    dimension: int
    mult_x: IntegerImage
    mult_y: IntegerImage
    nilpotency_index: int
    field: object
    generator: list
    local_ideal: list
    x_kernel: list


class Decomposition(NamedTuple):
    """Local factors at rational points (``LocalQuotient`` from
    ``local_components``, ``LocalInvariants`` from ``analyze_quotient``)."""

    components: tuple
    residual_dimension: int
    colength: int


class LocalInvariants(NamedTuple):
    """The invariants of one local factor; b1 = generators, b2 = socle."""

    point: tuple
    local_length: int
    nilpotency_index: int
    generators: int
    socle: int
    multiplicity: int


def point_text(point) -> str:
    return f"({element_text(point[0])}, {element_text(point[1])})"


def _staircase(lms) -> list[tuple[int, int, int]]:
    """Steps (first x-exponent, last x-exponent + 1, height) under the
    leading monomials of a zero-dimensional basis."""
    steps = []
    by_x = sorted(lms, key=lambda m: (m.a, m.b))
    height = by_x[0].b  # the pure power of y
    for m in by_x[1:]:
        if m.b < height:
            steps.append((steps[-1][1] if steps else 0, m.a, height))
            height = m.b
    return steps


def quotient_basis(gb: GroebnerBasis) -> tuple[Monomial, ...]:
    """Standard monomials (outside the initial ideal), ascending in gb's order.

    The colength, the area under the staircase, is checked against
    ``MAX_COLENGTH`` before any monomial is listed.
    """
    if not is_zero_dimensional(gb):
        raise NotZeroDimensional(
            "leading monomials contain no pure power of x or no pure power of y"
        )
    steps = _staircase(gb.lms)
    colength = sum((end - start) * height for start, end, height in steps)
    if colength > MAX_COLENGTH:
        raise ConfigError(f"colength {colength} exceeds the limit colength <= {MAX_COLENGTH}")
    standard = [
        Monomial(a, b)
        for start, end, height in steps
        for a in range(start, end)
        for b in range(height)
    ]
    standard.sort(key=gb.order.key_func())
    return tuple(standard)


def multiplication_matrices(qb: tuple[Monomial, ...], gb: GroebnerBasis) -> MultiplicationPair:
    """Column j of M_v = A/D is the normal form of v*m_j (v = x, y), read
    without division: the border monomials v*m_j outside the basis are
    visited ascending in gb's order.  A leading monomial is minus its
    generator's tail.  Any other t has s = t/v on the border, and
    NF(t) = sum c_b*NF(v*b) over the terms c_b*b of NF(s): each b < s, so
    v*b < t is a basis monomial or a border monomial already visited.
    A normal form is held as (d, [(row, integer)]), d its least denominator."""
    p = gb.field.characteristic
    index = {m: i for i, m in enumerate(qb)}
    forms = {m: (1, [(i, 1)]) for m, i in index.items()}  # monomial -> (d, [(row, integer)])
    generators = dict(zip(gb.lms, gb.generators))
    shifted = {v: [m * v for m in qb] for v in (X, Y)}
    border = {t for column in shifted.values() for t in column} - forms.keys()
    for t in sorted(border, key=gb.order.key_func()):
        if g := generators.get(t):
            tail = [(index[m], c) for m, c in g.terms.items() if m != t]
            d, ints = _integral([c for _, c in tail], gb.field)
            forms[t] = d, [(i, -a % p if p else -a) for (i, _), a in zip(tail, ints)]
            continue
        v = X if t.a and Monomial(t.a - 1, t.b) not in index else Y
        d, terms = forms[t.divided_by(v)]
        if not terms:  # NF(s) = 0
            forms[t] = d, terms
            continue
        column, expanded = shifted[v], {}
        common = 1 if p else math.lcm(*[forms[column[i]][0] for i, _ in terms])
        for i, c in terms:
            e, form = forms[column[i]]
            if e != common:
                c *= common // e
            for k, a in form:
                expanded[k] = expanded.get(k, 0) + c * a
        content = 1 if p else math.gcd(d * common, *expanded.values())
        values = [(k, a) for k, c in expanded.items() if (a := c % p if p else c // content)]
        forms[t] = d * common // content, values

    def image(shift: Monomial) -> IntegerImage:
        columns = [forms[t] for t in shifted[shift]]
        denominator = math.lcm(*[d for d, _ in columns])
        return IntegerImage(denominator, [
            form if d == denominator else [(i, a * (denominator // d)) for i, a in form]
            for d, form in columns
        ])

    return MultiplicationPair(image(X), image(Y))


def _minimal_polynomial(image: IntegerImage, vector: list, coeff_field, known=()) -> tuple:
    """The least monic f with f(M)v = 0, the minimal polynomial of M on the
    cyclic space k[x,y] v (M commutes with both operators), and its Krylov
    space; on [1] (basis vector 0) that of M itself.  Over Fp the first
    Krylov dependence, over QQ its certified lift from the images mod p of
    M's integer image, with the polynomials ``known`` tried first, as the
    primitive integer multiple with a positive leading coefficient."""
    if p := coeff_field.characteristic:
        return krylov_dependence(image.columns, vector, p, image.packed)
    return rational_minimal_polynomial(image, vector, known)


def _eigenvalue_candidates(
    image: IntegerImage, vector: list, coeff_field, found: list, root=None
) -> list:
    """(root p, g(M)v for its cofactor g, read off v's Krylov space, the
    image of M - p*Id) for each root in the field of the minimal
    polynomial of M on v, or for ``root`` alone when given and a root, with
    no root search.  ``found`` pairs each polynomial already searched with
    its roots, cofactors and translates, matched by equality, and offers
    the polynomials to the lift."""
    coeffs, space = _minimal_polynomial(image, vector, coeff_field, [f for f, _ in found])
    if (known := next((c for f, c in found if f == coeffs), None)) is None:
        known = [
            (p, g, _translated(image, p, coeff_field))
            for p in (roots(coeffs, coeff_field) if root is None else [root])
            if (g := _cofactor(coeffs, p, coeff_field)) is not None
        ]
        found.append((coeffs, known))
    return [(p, krylov_image(g, image, vector, space, coeff_field), nil) for p, g, nil in known]


def nilpotency_index(nil_x, nil_y, generator: list, coeff_field) -> tuple[int, list]:
    """Least r such that every product of r factors from {Nx, Ny} kills w,
    hence the whole factor k[x,y] w, and the words Nx^a Ny^b w of degree
    <= r in the order of ``truncation_monomials(r)``.

    The words are built once, layer by layer: layer k lists Nx^a Ny^(k-a) w
    for a = 0..k.  Mixed products matter: for the pair coming from
    (x^2, y^2) both pure squares vanish while Nx*Ny does not, so the index
    is 3 there.  The index of a factor is at most its length, so the words
    must all vanish by degree n.  They are sparse integer vectors, (row,
    entry) pairs, each applied by scattering its entries over the columns
    that the images of Nx and Ny hold; reduced mod p over Fp.  Over QQ the
    columns are those of c_x*(Mx - px) and c_y*(My - py) (``_translated``)
    and no word loses its content: x -> c_x*x, y -> c_y*y is an
    automorphism of k[x,y] fixing m, so the index, length, socle and
    generator count do not change.
    """
    p, by_x, by_y = coeff_field.characteristic, nil_x.columns, nil_y.columns
    words, layer = [], [[(i, a) for i, a in enumerate(generator) if a]]
    for r in count():
        words += layer
        if not any(layer):
            return r, words
        if r == len(generator):
            raise ValueError("multiplication operators are not jointly nilpotent")
        layer = [_scattered(by_y, v, p) for v in layer] + [_scattered(by_x, layer[-1], p)]


def _scattered(columns: list, word: list, p: int) -> list:
    """An operator, by its sparse columns, applied to a sparse word: each
    entry v in column j adds v times column j; mod p over Fp, no zeros."""
    acc = {}
    for j, v in word:
        for i, a in columns[j]:
            acc[i] = acc.get(i, 0) + a * v
    return [(i, a) for i, c in acc.items() if (a := c % p if p else c)]


def _translated(image: IntegerImage, p, coeff_field) -> IntegerImage:
    """The integer image of M - p*Id for p = a/b: the columns of
    b*A - a*D*Id over b*D, changed on the diagonal only; over Fp, where
    b = D = 1, M - p*Id mod p.  At p = 0 the image itself, shared, since
    no operator is ever mutated."""
    if not p:
        return image
    b, shift, reduce = p.denominator, p.numerator * image.denominator, coeff_field.reduce
    columns = [[(i, b * a) for i, a in column if i != j] for j, column in enumerate(image.columns)]
    for j, column in enumerate(image.columns):
        if diagonal := reduce(b * dict(column).get(j, 0) - shift):
            columns[j].append((j, diagonal))
    return IntegerImage(b * image.denominator, columns)


def _component_at(point: tuple, nil_x, nil_y, generator, coeff_field, x_kernel) -> LocalQuotient:
    """The factor k[x,y] w generated by w = h(My) g_x(Mx)[1] (up to a unit
    of the factor), nonzero since h is a proper factor of the minimal
    polynomial of My on u = g_x(Mx)[1]; ``x_kernel`` is ker(Nx)."""
    r, words = nilpotency_index(nil_x, nil_y, generator, coeff_field)
    table = transposed(words, len(generator))  # row i: (word, entry) of the words with entry i
    local_ideal = kernel_basis(table, len(words), coeff_field)
    return LocalQuotient(
        point=point,
        dimension=len(words) - len(local_ideal),
        mult_x=nil_x,
        mult_y=nil_y,
        nilpotency_index=r,
        field=coeff_field,
        generator=generator,
        local_ideal=local_ideal,
        x_kernel=x_kernel,
    )


def _split(gb: GroebnerBasis, qb: tuple | None, point=(None, None)):
    """The colength and the local factors at rational support points, or
    only at ``point`` where its coordinates are given; qb is gb's quotient
    basis where the caller has already listed it.

    Points are located as joint eigenvalues of the commuting pair: each
    root px of Mx's minimal polynomial gives u = g_x(Mx)[1], and each root
    py of My's minimal polynomial on u gives w = h(My)u, which generates
    the factor at (px, py).  ker(Nx) is eliminated at an x-root's first
    factor, from Nx's sparse rows, and that one ``x_kernel`` goes to every
    factor there; each distinct polynomial on u has its roots, their
    cofactors and the translated My built once.  A given coordinate
    replaces its root search by one cofactor test.
    """
    qb = quotient_basis(gb) if qb is None else qb
    if not qb:  # the unit ideal
        return 0, []
    assert qb[0] == Monomial(0, 0)  # the class of 1 is basis vector 0
    pair = multiplication_matrices(qb, gb)
    n = len(qb)
    coeff_field = gb.field
    one = [1] + [0] * (n - 1)
    components, found_y = [], []
    for px, u, nil_x in _eigenvalue_candidates(pair.on_x, one, coeff_field, [], point[0]):
        x_kernel = None
        for py, w, nil_y in _eigenvalue_candidates(pair.on_y, u, coeff_field, found_y, point[1]):
            if x_kernel is None:
                x_kernel = kernel_basis(nil_x.rows, n, coeff_field)
            components.append(_component_at((px, py), nil_x, nil_y, w, coeff_field, x_kernel))
    return n, components


def local_component_at(gb: GroebnerBasis, point: tuple):
    """The local factor at one rational point, or None if the point is not
    in the support: the split with both coordinates given."""
    _, components = _split(gb, None, point)
    return components[0] if components else None


def local_components(gb: GroebnerBasis, qb: tuple | None = None) -> Decomposition:
    """Split the quotient into local factors at rational support points
    (``_split``), sorted by point.  Any dimension carried by non-rational
    points is reported as the residual and gets no local invariants.
    """
    n, components = _split(gb, qb)
    components.sort(key=lambda c: c.point)
    residual = n - sum(c.dimension for c in components)
    return Decomposition(components=tuple(components), residual_dimension=residual, colength=n)


def socle_dimension(lq: LocalQuotient) -> int:
    """Dimension of the joint kernel of the translated pair: dim K minus
    the rank of Ny on K = ker(Nx), the factor's ``x_kernel``, with the
    images of K handed to ``rank`` as pairs.

    A vector killed by both Nx and Ny lies in the factor, so the kernel on
    the whole quotient is the socle of the factor.  Ny maps K into K, and
    a vector of K is fixed by its entries at the free columns of K's
    echelon basis (each basis vector's last nonzero), so only those rows
    of Ny are applied.
    """
    rows = [lq.mult_y.rows[max(i for i, c in enumerate(k) if c)] for k in lq.x_kernel]
    images = [[(j, a) for j, a in enumerate(mat_vec(rows, k, lq.field)) if a] for k in lq.x_kernel]
    return len(lq.x_kernel) - rank(images, lq.field)


def truncation_monomials(max_degree: int) -> list[Monomial]:
    """All monomials of degree <= max_degree, sorted by (degree, x-exponent)."""
    return [Monomial(a, d - a) for d in range(max_degree + 1) for a in range(d + 1)]


def generator_count(lq: LocalQuotient) -> int:
    """Minimal generators of the local ideal, via its truncated image.

    The image is ``lq.local_ideal``, computed with the factor: f of degree
    <= r lies in the local ideal exactly when f(Nx, Ny)w vanishes.
    e = dim(I/mI) computed as dim(image) - dim(m * image); the shifts by
    x and y stay inside the truncation because products that leave degree
    r are zero there.  Times x (y) the monomial at index i, of degree d,
    moves to index i + d + 2 (i + d + 1).
    """
    kernel, r = lq.local_ideal, lq.nilpotency_index
    if not kernel:
        raise ValueError("local ideal image is empty; quotient is not Artinian local")
    degrees = [mono.degree for mono in truncation_monomials(r - 1)]  # those below r lead
    shifted_rows = []
    for vec in kernel:
        support = [(i + degrees[i], vec[i]) for i in compress(range(len(degrees)), vec)]
        shifted_rows += [[(i + step, c) for i, c in support] for step in (2, 1) if support]
    return len(kernel) - rank(shifted_rows, lq.field)


def multiplicity_from_socle(b2: int) -> int:
    """The triangular number b2*(b2+1)/2 attached to the socle dimension."""
    if b2 < 1:
        raise ValueError("socle dimension of a nonempty local quotient is at least 1")
    return b2 * (b2 + 1) // 2


def local_invariants(lq: LocalQuotient) -> LocalInvariants:
    """Socle dimension and generator count by their independent routes, and
    the multiplicity b2*(b2+1)/2 read from the socle.

    Every Artinian quotient of k[x,y] has socle = e - 1 and multiplicity at
    most its length; a violation of either is an engine bug and raises
    LemmaViolation.
    """
    socle = socle_dimension(lq)
    e = generator_count(lq)
    if socle != e - 1:
        problem = f"socle dimension {socle} != minimal generators {e} - 1"
    elif (mu := multiplicity_from_socle(socle)) > lq.dimension:
        problem = f"multiplicity {mu} exceeds local length {lq.dimension}"
    else:
        return LocalInvariants(lq.point, lq.dimension, lq.nilpotency_index, e, socle, mu)
    raise LemmaViolation(f"{problem} at point {point_text(lq.point)}")


def analyze_quotient(gb: GroebnerBasis, qb: tuple | None = None) -> Decomposition:
    """Split locally, then every factor's invariants (qb as for ``_split``)."""
    decomposition = local_components(gb, qb)
    return decomposition._replace(
        components=tuple(map(local_invariants, decomposition.components))
    )
