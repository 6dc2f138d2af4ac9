"""Artinian quotients k[x,y]/I and their local invariants at rational points.

The quotient of a zero-dimensional ideal is carried by the pair of
commuting multiplication operators on the standard-monomial basis.  All
invariants come out of exact linear algebra on those operators:

* the quotient is cyclic on the class of 1, so each operator's minimal
  polynomial is the first dependence among [1], M[1], M^2[1], ...; its
  roots in the field come from modular algorithms (``_fp_roots``,
  ``_rational_roots``), each root p of multiplicity s gives the
  generalized eigenspace ker (M - p)^s, and the local factors are the
  nonzero joint kernels of those spaces;
* each factor is translated to the origin on the matrix side (M - p*Id),
  never by substituting into polynomials;
* the nilpotency index r is the length of the m-adic filtration
  V_0 = A, V_(k+1) = Nx V_k + Ny V_k;
* the socle dimension is the kernel of the stacked translated pair;
* the minimal generator count of the local ideal comes from its image in
  k[x,y]/m^(r+1): the f with f(Nx, Ny)u = 0 for a u outside m*A.

The socle route reads the joint kernel of the pair, the generator route
only its joint image, so they are independent.  ``local_invariants`` runs
both on one factor and returns the flat ``LocalInvariants`` record (the
multiplicity b2*(b2+1)/2 is read from the socle); it is the one place
that asserts socle = generators - 1 and multiplicity <= length, and a
violation raises LemmaViolation because it can only mean an engine bug.
``analyze_quotient`` is the local split followed by ``local_invariants``
on every factor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from math import gcd

from .errors import ConfigError, LemmaViolation, NotZeroDimensional, PointNotInSupport
from .fields import is_prime
from .groebner import GroebnerBasis, is_zero_dimensional
from .linalg import (
    identity,
    kernel_basis,
    mat_pow,
    mat_sub,
    mat_vec,
    rank,
    rref,
    scaled_identity,
    solve_in_column_space,
    vector_minimal_polynomial,
)
from .poly import Monomial, Polynomial, X, Y

# quotients above this colength are refused before their basis is listed:
# analyze x^11, y^11 (colength 121) takes 11-12 s on a 2-core VM, x^10, y^10
# about 5.5 s and x^12, y^12 about 15 s
MAX_COLENGTH = 121


@dataclass(frozen=True)
class QuotientBasis:
    """Standard monomials (those outside the initial ideal), order ascending."""

    monomials: tuple[Monomial, ...]

    @property
    def dimension(self) -> int:
        return len(self.monomials)


@dataclass
class MultiplicationPair:
    """Matrices of multiplication by x and by y on the standard basis."""

    on_x: list
    on_y: list


@dataclass
class LocalQuotient:
    """One local factor of the quotient at a rational support point.

    The multiplication pair is already translated to the origin, so both
    matrices are nilpotent; ``nilpotency_index`` is the least r for which
    every length-r product of them vanishes.
    """

    point: tuple
    dimension: int
    mult_x: list
    mult_y: list
    nilpotency_index: int
    field: object


@dataclass(frozen=True)
class Decomposition:
    """Local factors at rational points (``LocalQuotient`` from
    ``local_components``, ``LocalInvariants`` from ``analyze_quotient``)."""

    components: tuple
    residual_dimension: int
    colength: int


@dataclass(frozen=True)
class LocalInvariants:
    """The invariants of one local factor; b1 = generators, b2 = socle."""

    point: tuple
    local_length: int
    nilpotency_index: int
    generators: int
    socle: int
    multiplicity: int


def point_text(point) -> str:
    return f"({point[0]}, {point[1]})"


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


def quotient_basis(gb: GroebnerBasis) -> QuotientBasis:
    """Monomials outside the initial ideal, sorted ascending by gb's order.

    The colength, the area under the staircase, is checked against
    ``MAX_COLENGTH`` before any monomial is listed.
    """
    if not is_zero_dimensional(gb):
        raise NotZeroDimensional(
            "leading monomials contain no pure power of x or no pure power of y"
        )
    steps = _staircase(gb.leading_monomials())
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
    return QuotientBasis(tuple(standard))


def multiplication_matrices(qb: QuotientBasis, gb: GroebnerBasis) -> MultiplicationPair:
    """Column j of each matrix expands (variable times j-th basis monomial)."""
    coeff_field = gb.field
    n = qb.dimension
    index = {m: i for i, m in enumerate(qb.monomials)}
    zero, one = coeff_field.zero(), coeff_field.one()

    def action(shift: Monomial) -> list:
        columns = []
        for m in qb.monomials:
            t = m * shift
            col = [zero] * n
            if t in index:
                col[index[t]] = one
            else:
                nf = gb.normal_form(Polynomial.monomial(coeff_field, t))
                for mm, c in nf.terms.items():
                    col[index[mm]] = c
            columns.append(col)
        return [[columns[j][i] for j in range(n)] for i in range(n)]

    return MultiplicationPair(action(X), action(Y))


# Roots of one-variable polynomials.  Coefficient lists run constant
# first; the Fp kernel works on plain ints in [0, p) with no trailing zeros.


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _fp_divmod(a: list, b: list, p: int) -> tuple[list, list]:
    """Quotient and remainder of a by b over Fp (b trimmed and nonzero)."""
    rem = [c % p for c in a]
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    quotient = [0] * max(len(a) - db, 0)
    for k in range(len(a) - 1 - db, -1, -1):
        c = rem[k + db] * inv % p
        if c:
            quotient[k] = c
            for i, bi in enumerate(b):
                rem[k + i] = (rem[k + i] - c * bi) % p
    return quotient, _trim(rem[:db])


def _fp_gcd(a: list, b: list, p: int) -> list:
    """The monic gcd over Fp (a nonzero)."""
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _fp_mulmod(a: list, b: list, f: list, p: int) -> list:
    product = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                product[i + j] += x * y
    return _fp_divmod(product, f, p)[1]


def _fp_powmod(a: list, e: int, f: list, p: int) -> list:
    """a^e mod f over Fp, by repeated squaring."""
    result, a = [1], _fp_divmod(a, f, p)[1]
    while e:
        if e & 1:
            result = _fp_mulmod(result, a, f, p)
        e >>= 1
        if e:
            a = _fp_mulmod(a, a, f, p)
    return result


def _fp_minus(a: list, b: list, p: int) -> list:
    a = a + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        a[i] = (a[i] - c) % p
    return _trim(a)


def _fp_split(r: list, p: int, roots: list) -> None:
    """Collect the roots of r, a monic product of distinct linear factors
    over Fp with p odd, by equal-degree splitting (Cantor-Zassenhaus).

    gcd(r, (t + a)^((p-1)/2) - 1) keeps the roots at which t + a is a
    nonzero square.  The shifts a = 0, 1, 2, ... are tried in turn, so the
    split is deterministic; any two distinct roots are separated by
    (p - 1)/2 of the p shifts.
    """
    if len(r) == 2:
        roots.append(-r[0] % p)
        return
    for a in range(p):
        half = _fp_minus(_fp_powmod([a, 1], (p - 1) // 2, r, p), [1], p)
        g = _fp_gcd(r, half, p)
        if 1 < len(g) < len(r):
            _fp_split(g, p, roots)
            _fp_split(_fp_divmod(r, g, p)[0], p, roots)
            return


def _fp_roots(coeffs: list[int], p: int) -> list[int]:
    """The roots in [0, p), ascending, of a nonzero polynomial over Fp.

    The roots in Fp are those of r = gcd(f, t^p - t), with t^p mod f by
    repeated squaring, and ``_fp_split`` splits r into its linear factors:
    the cost is polynomial in the degree and in log p.  For p = 2 the
    polynomial is evaluated at 0 and 1.
    """
    f = _trim([c % p for c in coeffs])
    if p == 2:
        return [t for t, value in ((0, f[0]), (1, sum(f) % 2)) if not value]
    if len(f) < 2:
        return []
    f = _fp_gcd(f, [], p)  # monic
    r = _fp_gcd(f, _fp_minus(_fp_powmod([0, 1], p, f, p), [0, 1], p), p)
    roots: list[int] = []
    if len(r) > 1:
        _fp_split(r, p, roots)
    return sorted(roots)


def _qq_divmod(a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder of Fraction polynomials (b trimmed and nonzero)."""
    rem = list(a)
    db = len(b) - 1
    quotient = [Fraction(0)] * max(len(a) - db, 0)
    for k in range(len(a) - 1 - db, -1, -1):
        c = rem[k + db] / b[-1]
        if c:
            quotient[k] = c
            for i, bi in enumerate(b):
                rem[k + i] -= c * bi
    return quotient, _trim(rem[:db])


def _primitive(coeffs: list) -> list[int]:
    """The integer polynomial with coprime coefficients proportional to a
    Fraction polynomial."""
    denominators = 1
    for c in coeffs:
        denominators = denominators * c.denominator // gcd(denominators, c.denominator)
    ints = [int(c * denominators) for c in coeffs]
    content = 0
    for c in ints:
        content = gcd(content, c)
    return [c // content for c in ints]


def _squarefree_part(coeffs: list[Fraction]) -> list[int]:
    """f / gcd(f, f') as a primitive integer polynomial, by Euclid over QQ."""
    a, b = coeffs, _trim([i * c for i, c in enumerate(coeffs)][1:])
    while b:
        a, b = b, _qq_divmod(a, b)[1]
    return _primitive(_qq_divmod(coeffs, a)[0])


def _integer_roots(h: list[int]) -> list[int]:
    """The integer roots of a monic squarefree integer polynomial.

    They lie within the Cauchy bound B = 1 + max |h_i|.  Each root modulo
    the first prime from 32003 up at which h stays squarefree is a simple
    root there, so Newton's iteration lifts it until the modulus exceeds
    2B; the symmetric residue is kept only if h vanishes on it exactly.
    """
    bound = 1 + max(abs(c) for c in h[:-1])
    derivative = [i * c for i, c in enumerate(h)][1:]
    p = 32003
    while len(_fp_gcd(h, _trim([c % p for c in derivative]), p)) > 1:
        p += 2
        while not is_prime(p):
            p += 2
    found = []
    for z in _fp_roots(h, p):
        modulus = p
        while modulus <= 2 * bound:
            modulus *= modulus
            slope = _eval_int(derivative, z) % modulus
            z = (z - _eval_int(h, z) * pow(slope, -1, modulus)) % modulus
        if z > modulus // 2:
            z -= modulus
        if _eval_int(h, z) == 0:
            found.append(z)
    return found


def _eval_int(coeffs: list[int], value: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * value + c
    return acc


def _rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """All rational roots, ascending, of a nonzero Fraction polynomial.

    Zero is read off the low coefficients.  Every other root is a root of
    the squarefree part g = sum g_i t^i with integer coefficients; with
    d = deg g and c = g_d, the monic h(z) = c^(d-1) g(z/c) has integer
    coefficients, and t = z/c runs over the rational roots of g as z runs
    over the integer roots of h (``_integer_roots``, each one confirmed by
    exact evaluation).
    """
    v = 0
    while not coeffs[v]:
        v += 1
    roots = [Fraction(0)] if v else []
    core = coeffs[v:]
    if len(core) > 1:
        g = _squarefree_part(core)
        d, c = len(g) - 1, g[-1]
        h = [g_i * c ** (d - 1 - i) for i, g_i in enumerate(g[:-1])] + [1]
        roots.extend(Fraction(z, c) for z in _integer_roots(h))
    return sorted(roots)


def _root_multiplicity(coeffs, root) -> int:
    """How often (t - root) divides the polynomial, by synthetic division."""
    s = 0
    while True:
        *quotient, remainder = accumulate(reversed(coeffs), lambda acc, c: acc * root + c)
        if remainder:
            return s
        coeffs, s = quotient[::-1], s + 1


def _minimal_polynomial(matrix, coeff_field) -> list:
    """From the class of 1 (basis vector 0): f(M) = 0 iff f(M)[1] = 0."""
    one = [coeff_field.one()] + [coeff_field.zero()] * (len(matrix) - 1)
    return vector_minimal_polynomial(matrix, one, coeff_field)


def _eigenvalue_candidates(matrix, coeff_field) -> list:
    """(root, multiplicity) for each root in the field of the minimal polynomial."""
    coeffs = _minimal_polynomial(matrix, coeff_field)
    if coeff_field.characteristic == 0:
        roots = _rational_roots(coeffs)
    else:
        residues = _fp_roots([c.value for c in coeffs], coeff_field.characteristic)
        roots = [coeff_field.from_int(t) for t in residues]
    return [(p, _root_multiplicity(coeffs, p)) for p in roots]


def _primary_power(matrix, root, s: int, coeff_field) -> list:
    """(M - root)^s; its kernel is the generalized eigenspace of the root."""
    shifted = mat_sub(matrix, scaled_identity(root, len(matrix), coeff_field))
    return mat_pow(shifted, s, coeff_field)


def nilpotency_index(nil_x: list, nil_y: list, coeff_field) -> int:
    """Least r such that every product of r factors from {Nx, Ny} vanishes.

    Mixed products matter: for the pair coming from (x^2, y^2) both pure
    squares vanish while Nx*Ny does not, so the index is 3 there.  The
    length-k products span V_k in V_0 = A, V_(k+1) = Nx V_k + Ny V_k.
    """
    m = len(nil_x)
    basis = identity(m, coeff_field)
    for r in range(1, m + 1):
        images = [mat_vec(nil, v, coeff_field) for nil in (nil_x, nil_y) for v in basis]
        reduced, pivots = rref(images, coeff_field)
        if not pivots:
            return r
        basis = reduced[: len(pivots)]
    raise ValueError("multiplication operators are not jointly nilpotent")


def _operators(gb: GroebnerBasis):
    """The multiplication pair of the quotient, or None for the unit ideal."""
    qb = quotient_basis(gb)
    if qb.dimension == 0:
        return None
    assert qb.monomials[0] == Monomial(0, 0)  # the class of 1 is basis vector 0
    return multiplication_matrices(qb, gb)


def local_component_at(gb: GroebnerBasis, point: tuple):
    """The local factor at one rational point, or None if the point is not
    in the support."""
    pair = _operators(gb)
    if pair is None:
        return None
    coeff_field = gb.field
    powers = []
    for matrix, p in zip((pair.on_x, pair.on_y), point):
        s = _root_multiplicity(_minimal_polynomial(matrix, coeff_field), p)
        if s == 0:
            return None
        powers.append(_primary_power(matrix, p, s, coeff_field))
    return _component_at(pair, point, *powers, coeff_field)


def _component_at(pair: MultiplicationPair, point: tuple, nil_x, nil_y, coeff_field):
    """The factor on the joint kernel of the two primary powers, or None."""
    px, py = point
    n = len(pair.on_x)
    kernel = kernel_basis(nil_x + nil_y, coeff_field)
    if not kernel:
        return None
    m = len(kernel)
    if m == n:
        # the echelon basis of the whole space is the identity
        local_x, local_y = pair.on_x, pair.on_y
    else:
        columns = [[vec[i] for vec in kernel] for i in range(n)]
        targets_x = [mat_vec(pair.on_x, vec, coeff_field) for vec in kernel]
        targets_y = [mat_vec(pair.on_y, vec, coeff_field) for vec in kernel]
        coords_x = solve_in_column_space(columns, targets_x, coeff_field)
        coords_y = solve_in_column_space(columns, targets_y, coeff_field)
        # restricted action, columns indexed by the kernel basis
        local_x = [[coords_x[j][i] for j in range(m)] for i in range(m)]
        local_y = [[coords_y[j][i] for j in range(m)] for i in range(m)]
    translated_x = mat_sub(local_x, scaled_identity(px, m, coeff_field))
    translated_y = mat_sub(local_y, scaled_identity(py, m, coeff_field))
    r = nilpotency_index(translated_x, translated_y, coeff_field)
    return LocalQuotient(
        point=point,
        dimension=m,
        mult_x=translated_x,
        mult_y=translated_y,
        nilpotency_index=r,
        field=coeff_field,
    )


def local_components(gb: GroebnerBasis) -> Decomposition:
    """Split the quotient into local factors at rational support points.

    Points are located as joint eigenvalues of the commuting pair; any
    dimension carried by non-rational points is reported as the residual
    and gets no local invariants.
    """
    pair = _operators(gb)
    if pair is None:
        return Decomposition(components=(), residual_dimension=0, colength=0)
    n = len(pair.on_x)
    coeff_field = gb.field
    powers_y = [
        (py, _primary_power(pair.on_y, py, s, coeff_field))
        for py, s in _eigenvalue_candidates(pair.on_y, coeff_field)
    ]
    components = []
    for px, s in _eigenvalue_candidates(pair.on_x, coeff_field):
        nil_x = _primary_power(pair.on_x, px, s, coeff_field)
        for py, nil_y in powers_y:
            lq = _component_at(pair, (px, py), nil_x, nil_y, coeff_field)
            if lq is not None:
                components.append(lq)
    components.sort(
        key=lambda c: (coeff_field.sort_key(c.point[0]), coeff_field.sort_key(c.point[1]))
    )
    residual = n - sum(c.dimension for c in components)
    return Decomposition(components=tuple(components), residual_dimension=residual, colength=n)


def socle_dimension(lq: LocalQuotient) -> int:
    """Dimension of the joint kernel of the translated pair (stacked 2n x n)."""
    stacked = [row[:] for row in lq.mult_x] + [row[:] for row in lq.mult_y]
    return len(kernel_basis(stacked, lq.field))


def truncation_monomials(max_degree: int) -> list[Monomial]:
    """All monomials of degree <= max_degree, sorted by (degree, x-exponent)."""
    return [Monomial(a, d - a) for d in range(max_degree + 1) for a in range(d + 1)]


def local_unit(lq: LocalQuotient) -> list:
    """A coordinate vector outside m*A (the span of the columns of Nx and
    Ny), hence a generator of the factor: the single free coordinate."""
    m = lq.dimension
    columns = [[nil[i][j] for i in range(m)] for nil in (lq.mult_x, lq.mult_y) for j in range(m)]
    free = sorted(set(range(m)) - set(rref(columns, lq.field)[1]))
    if len(free) != 1:
        raise ValueError(f"m*A has codimension {len(free)}, not 1; the factor is not local")
    return [lq.field.one() if i == free[0] else lq.field.zero() for i in range(m)]


def local_ideal_kernel(lq: LocalQuotient):
    """The local ideal's image in k[x,y]/m^(r+1), as kernel vectors.

    A polynomial f of degree <= r lies in the local ideal exactly when
    f(Nx, Ny) is the zero operator on the factor, that is when f(Nx, Ny)u
    vanishes for a generator u of the factor (``local_unit``), so the image
    is the kernel of f -> f(Nx, Ny)u on the truncation grid.
    """
    coeff_field = lq.field
    r = lq.nilpotency_index
    monos = truncation_monomials(r)
    words = {(0, 0): local_unit(lq)}
    for a in range(1, r + 1):
        words[(a, 0)] = mat_vec(lq.mult_x, words[(a - 1, 0)], coeff_field)
    for a in range(r + 1):
        for b in range(1, r + 1 - a):
            words[(a, b)] = mat_vec(lq.mult_y, words[(a, b - 1)], coeff_field)
    evaluation = [
        [words[(mono.a, mono.b)][u] for mono in monos] for u in range(lq.dimension)
    ]
    return monos, kernel_basis(evaluation, coeff_field)


def local_ideal_truncation(lq: LocalQuotient) -> list[Polynomial]:
    """The kernel above, rendered as honest polynomials."""
    monos, kernel = local_ideal_kernel(lq)
    return [
        Polynomial(lq.field, {monos[i]: c for i, c in enumerate(vec) if c})
        for vec in kernel
    ]


def generator_count(lq: LocalQuotient) -> int:
    """Minimal generators of the local ideal, via its truncated image.

    e = dim(I/mI) computed as dim(image) - dim(m * image); the shifts by
    x and y stay inside the truncation because products that leave degree
    r are zero there.
    """
    monos, kernel = local_ideal_kernel(lq)
    if not kernel:
        raise ValueError("local ideal image is empty; quotient is not Artinian local")
    coeff_field = lq.field
    r = monos[-1].degree
    index = {mono: i for i, mono in enumerate(monos)}
    zero = coeff_field.zero()
    shifted_rows = []
    for vec in kernel:
        for dx, dy in ((1, 0), (0, 1)):
            row = [zero] * len(monos)
            nonzero = False
            for i, c in enumerate(vec):
                if not c:
                    continue
                mono = monos[i]
                if mono.degree + 1 > r:
                    continue
                row[index[Monomial(mono.a + dx, mono.b + dy)]] = c
                nonzero = True
            if nonzero:
                shifted_rows.append(row)
    return len(kernel) - rank(shifted_rows, coeff_field)


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
    for g in gens:
        if g.constant_term:
            raise PointNotInSupport(
                "a generator has nonzero constant term, so the origin is not a support point"
            )
    r = nilpotency
    monos = truncation_monomials(r)
    index = {mono: i for i, mono in enumerate(monos)}
    zero = coeff_field.zero()

    def truncate_rows(polys_as_rows):
        rows = []
        for source in polys_as_rows:
            row = [zero] * len(monos)
            for mono, c in source:
                if mono.degree <= r:
                    i = index[mono]
                    row[i] = row[i] + c
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
    where = f"at point {point_text(lq.point)}"
    if socle != e - 1:
        raise LemmaViolation(f"socle dimension {socle} != minimal generators {e} - 1 {where}")
    mu = multiplicity_from_socle(socle)
    if mu > lq.dimension:
        raise LemmaViolation(f"multiplicity {mu} exceeds local length {lq.dimension} {where}")
    return LocalInvariants(lq.point, lq.dimension, lq.nilpotency_index, e, socle, mu)


def analyze_quotient(gb: GroebnerBasis) -> Decomposition:
    """Full pipeline: split locally, then the invariants of every factor."""
    decomposition = local_components(gb)
    return replace(
        decomposition, components=tuple(map(local_invariants, decomposition.components))
    )
