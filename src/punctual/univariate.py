"""Polynomials in one variable over the coefficient fields, and their roots.

A polynomial is a list of ints, constant first, trimmed (no trailing
zeros; [] is zero): over Fp stored mod p, over QQ the primitive integer
polynomial with a positive leading coefficient, which has the roots,
cofactors and images of its rational multiples (Gauss's lemma).  As in
``linalg`` the kernels take p, 0 over QQ: one ``divmod`` is Euclid's step
mod p and exact division over Z, so ``_cofactor``, which splits a root a/b
off with its multiplicity, divides by b*t - a over both fields.

The minimal polynomial on v of an operator's ``IntegerImage`` (the sparse
rows of A = D*M, D = 1 over Fp, built by ``artinian`` from the normal
forms) comes with the Krylov space of v it was found on; ``krylov_image``
reads g(M)v off that space, up to a positive scalar, in integers: the
certificate of the minimal polynomial and each cofactor's image.

Over QQ no Krylov elimination or Euclid runs on rationals: the minimal
polynomial of an operator (``rational_minimal_polynomial``) and the
squarefree part (``_squarefree_part``) are computed mod the primes of one
shared source (``_prime_fields``, from 32003 up) with the Fp kernels,
combined by the Chinese remainder theorem and rational reconstruction
(``_Lift``), each reconstruction going straight to an exact check, the
only certificate: f(M)v = 0, in integers, for the minimal polynomial, and
exact division of f and f' by their gcd over Z for the squarefree part.
Where f mod p is already squarefree, that one gcd is the certificate, and
the same prime starts the Hensel lifting of the roots.  Before any of that,
``_rational_roots`` reads the root of a linear core directly, and a sieve
mod the small primes of ``_SIEVE_PRIMES`` rules out every nonzero root of
most cores that have none; it never reports a root.
"""

from __future__ import annotations

import math
from contextlib import suppress
from fractions import Fraction
from functools import cache
from itertools import count

from .errors import ParseError
from .fields import QQ, PrimeField
from .linalg import _normalised, krylov_dependence, mat_vec


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _image(coeffs: list[int], p: int) -> list[int]:
    """An integer polynomial mod p."""
    return _trim([c % p for c in coeffs])


def divmod(a: list[int], b: list[int], p: int) -> tuple[list, list] | None:
    """Quotient and remainder of a by b (b nonzero) mod p, or over Z for
    p = 0, where it is None unless every quotient coefficient is an
    integer."""
    rem, db = list(a), len(b) - 1
    lead = pow(b[-1], -1, p) if p else b[-1]
    quotient = [0] * max(len(a) - db, 0)
    for k in range(len(a) - 1 - db, -1, -1):
        if not p and rem[k + db] % lead:
            return None
        if c := rem[k + db] * lead % p if p else rem[k + db] // lead:
            quotient[k] = c
            for i, bi in enumerate(b):
                rem[k + i] -= c * bi
    return quotient, _image(rem[:db], p) if p else _trim(rem[:db])


def gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd mod p (a nonzero), by Euclid's algorithm."""
    while b:
        a, b = b, divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _minus(a: list[int], b: list[int], p: int) -> list[int]:
    a = a + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        a[i] = (a[i] - c) % p
    return _trim(a)


def _powmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    """a^e mod f mod p, by repeated squaring on plain ints.  With f made
    monic of degree d, t^d = tail(t) mod f: a product is taken unreduced and
    folded from the top, each coefficient reduced once."""
    d, inv = len(f) - 1, pow(f[-1], -1, p)
    tail = [-c * inv % p for c in f[:-1]]

    def fold(product: list) -> list:
        for k in range(len(product) - 1, d - 1, -1):
            if c := product[k] % p:
                for i, t in enumerate(tail, k - d):
                    product[i] += c * t
        return _trim([c % p for c in product[:d]])

    def mul(a: list, b: list) -> list:
        product = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    product[j] += x * y
        return fold(product)

    result, a = [1], fold(list(a))
    while e:
        if e & 1:
            result = mul(result, a)
        e >>= 1
        if e:
            a = mul(a, a)
    return result


def _fp_split(r: list[int], p: int) -> list[int]:
    """The roots of r, a monic product of distinct linear factors mod an
    odd prime p, by equal-degree splitting (Cantor-Zassenhaus).

    gcd(r, (t + a)^((p-1)/2) - 1) keeps the roots at which t + a is a
    nonzero square.  The shifts a = 0, 1, 2, ... are tried in turn, so the
    split is deterministic; any two distinct roots are separated by
    (p - 1)/2 of the p shifts.
    """
    if len(r) == 2:
        return [-r[0] % p]
    for a in range(p):
        g = gcd(r, _minus(_powmod([a, 1], (p - 1) // 2, r, p), [1], p), p)
        if 1 < len(g) < len(r):
            return _fp_split(g, p) + _fp_split(divmod(r, g, p)[0], p)


def _integral(values: list, field) -> tuple[int, list]:
    """(L, L*values) with L the common denominator over QQ, 1 over Fp."""
    if field.characteristic:
        return 1, values
    common = math.lcm(*(c.denominator for c in values))
    return common, [c.numerator * (common // c.denominator) for c in values]


def _primitive(coeffs: list) -> list[int]:
    """The primitive integer polynomial with a positive leading coefficient
    proportional to a nonzero list of rational coefficients, trimmed."""
    ints = _trim(_integral(coeffs, QQ)[1])
    content = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)
    return [c // content for c in ints]


@cache
def _prime_field(i: int) -> PrimeField:
    """The field of the i-th prime from 32003 up, built once per process;
    PrimeField's own primality test picks the prime."""
    p = _prime_field(i - 1).p if i else 32001
    while True:
        p += 2
        with suppress(ParseError):
            return PrimeField(p)


def _prime_fields():
    """The prime fields of the modular kernels, in order.  The QQ minimal
    polynomial and squarefree part draw from here, and so does the Hensel
    lifting of the roots; a field is built when first reached, never at
    import."""
    return map(_prime_field, count())


# a reconstruction is kept only where the next quotient exceeds this
_QUOTIENT_MARGIN = 2**10


def _rational_reconstruction(u: int, m: int) -> Fraction | None:
    """The fraction a/b = u mod m with the largest next quotient in the
    Euclidean remainder sequence of (m, u), if that quotient exceeds
    ``_QUOTIENT_MARGIN`` (Monagan's maximal quotient rule, ISSAC 2004).

    The remainders satisfy r_i = t_i u (mod m) and |r_i t_i| is about
    m / q_i, so a large quotient q_i marks the one pair (r_i, t_i) small
    enough to be the answer: it needs only a few more bits of m than a
    and b together.  No quotient exceeds the remainder it divides, so the
    search stops once the remainders fall below the best quotient.
    """
    if not u:
        return Fraction(0)
    r0, r1, t0, t1 = m, u, 0, 1
    best, largest = None, _QUOTIENT_MARGIN
    while r1 and r0 > largest:
        q = r0 // r1
        if q > largest:
            best, largest = (r1, t1), q
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return best and Fraction(*best)


def _reproduces(candidate: list[int], image: list[int], p: int) -> bool:
    """Whether F / F_d, F an integer polynomial, is p-integral with the
    monic image mod p: p does not divide F_d, and F = F_d * image mod p."""
    lc = candidate[-1] % p
    return len(candidate) == len(image) and lc != 0 and all(
        (c - lc * r) % p == 0 for c, r in zip(candidate, image)
    )


class _Lift:
    """The polynomial over QQ with given monic images modulo many primes,
    by the Chinese remainder theorem and rational reconstruction, made
    primitive with a positive leading coefficient once reconstructed.

    Images of other degrees than the preferred one are unlucky: ``sign``
    +1 keeps the largest degree seen (a Krylov rank mod p is at most the
    rank over QQ), -1 the least (a gcd mod p is at least the gcd over QQ),
    and a better degree restarts the lift.  The residues are reconstructed
    at the first prime and after each quarter more (all retries cost no
    more than the last); each result, even one refused before, is offered.

    For images of degree k the caller's ``bounds(k)`` is (s, u) in bits:
    were k the degree over QQ, each coefficient a/b has |a| b < 2^s, and
    were it not, each prime of degree k divides one integer 0 < |N| < 2^u.
    Past 2^u and 2^(2s + 1), s >= 11, a/b has the maximal quotient, so a
    refused candidate means an engine bug: the lift raises ArithmeticError.
    At each restart an integer polynomial of ``hints`` that the image
    reproduces is offered first, and the reconstruction waits for the next
    prime.
    """

    def __init__(self, sign: int, bounds, hints=()):
        self.sign, self.bounds, self.hints = sign, bounds, hints
        self.residues, self.past = None, False

    def add(self, image: list[int], p: int) -> list[int] | None:
        """Combine the image mod p; return a candidate for the caller's
        check, a hint or a reconstruction, else None."""
        if self.past:  # the caller refused a candidate past the bounds
            raise ArithmeticError("a candidate lifted past the coefficient bound failed its check")
        hint = None
        if self.residues is None or self.sign * len(image) > self.sign * len(self.residues):
            self.residues, self.modulus, self.primes, self.retry = [0] * len(image), 1, 0, 1
            hint = next((list(h) for h in self.hints if _reproduces(h, image, p)), None)
            size, unlucky = self.bounds(len(image) - 1)
            self.bound = max(unlucky, 2 * max(size, _QUOTIENT_MARGIN.bit_length()) + 1)
        elif len(image) != len(self.residues):
            return None
        m = self.modulus
        inverse = pow(m, -1, p)
        self.residues = [x + m * ((r - x) * inverse % p) for x, r in zip(self.residues, image)]
        self.modulus, self.primes = m * p, self.primes + 1
        if hint is not None or self.primes < self.retry:
            return hint
        self.retry = self.primes + max(1, self.primes // 4)
        reconstructed = [_rational_reconstruction(x, self.modulus) for x in self.residues]
        if None in reconstructed:
            return None
        self.past = self.modulus.bit_length() > self.bound
        return _primitive(reconstructed)


class IntegerImage:
    """An operator M = A/D, D = 1 over Fp, by A's nonzero (column, entry)
    pairs per row (the QQ Krylov powers) and its entries row after row;
    its length is M's size.  ``columns`` holds A's packed columns per prime
    for ``linalg.krylov_dependence``, each packed on first use; images
    compare equal by D, rows and entries, whatever their caches hold."""

    __slots__ = ("denominator", "rows", "entries", "columns")

    def __init__(self, denominator: int, rows: list, entries: list):
        self.denominator, self.rows, self.entries, self.columns = denominator, rows, entries, {}

    def __eq__(self, other) -> bool:
        if type(other) is not IntegerImage:
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self.__slots__[:-1])

    def __len__(self) -> int:
        return len(self.rows)

    def packed_columns(self, p: int) -> list:
        return self.columns.setdefault(p, [None] * len(self.rows))


def krylov_image(coeffs: list, image: IntegerImage, vector: list, space: list, field) -> list:
    """g(M)v up to a positive scalar, for an integer vector v and a g of
    degree at most that of the minimal polynomial of M on v, with lc(g) > 0
    over QQ, as integers, read off the ``space`` that polynomial was found
    on; a degree-0 g returns v itself.

    Over Fp the space holds r_k = q_k(M)v and the monic q_k: g = sum b_k q_k
    by back-substitution mod p, and g(M)v = sum b_k r_k, reduced.  Over QQ
    it holds P_k = A^k v, extended as deg g needs, and sum g_i D^(d-i) P_i
    is D^d g(M)v, the primitive integer vector, divided by its content.
    """
    if len(coeffs) == 1:
        return vector
    p, d = field.characteristic, len(coeffs) - 1
    if p:  # each q_k is the last k + 1 entries of space[k]
        weights, rest, scale = [0] * (d + 1), coeffs, 1
        for k in range(d, -1, -1):
            weights[k] = b = rest[k] % p
            rest = [a - b * c for a, c in zip(rest, space[k][-k - 1 : -1])]
    else:
        while len(space) <= d:
            space.append(mat_vec(image.rows, space[-1], field))
        weights, scale = coeffs, image.denominator
    acc = [0] * len(vector)
    for b, kept in zip(weights, space):  # Horner's rule in D: no D^(d-i) is formed
        acc = [a * scale + b * x for a, x in zip(acc, kept)]
    return _normalised(acc, p)


def rational_minimal_polynomial(image: IntegerImage, vector: list, known=()) -> tuple[list, list]:
    """The least f over QQ with f(M)v = 0, v an integer vector, from its
    images mod p, primitive with F_d > 0 as all polynomials here, and the
    powers A^k v, k = 0..deg f, that certified it.

    With M = A/D (an ``IntegerImage``), each prime p not dividing D gives
    f_p, the first Krylov dependence of v mod p under M mod p, read off
    that of A (``linalg.krylov_dependence`` on the entries that the image
    lists once per operator).  Its degree, the Krylov rank mod p, is at
    most deg f, and where they are equal f / f_d is p-integral with image
    f_p; so ``_Lift`` keeps the largest degree.  Each candidate F, a
    reconstruction or a polynomial of ``known`` (the lift's hints) that the
    first image reproduces, is accepted only after the exact check
    F(M)v = 0, in integers by ``krylov_image`` on powers A^k v built once
    for all: then F is a multiple of the minimal polynomial of degree
    deg f_p, which is at most its degree, so it is the minimal polynomial.
    A candidate is refused before the check unless F_d divides each
    D^(d-i) F_i, as for g below.

    Bounds at degree k, with r - 1 the largest absolute row sum of A: g
    below is a monic factor of A's characteristic polynomial, in Z[t] with
    roots within r.  Were the degree over QQ larger, a prime of degree k
    would divide a nonzero minor of v, ..., A^k v, which Hadamard's bound
    puts below ((k + 1) (1 + |v|)^2)^((k+1)/2) r^(k(k+1)/2).
    """
    powers, denominator = [vector], image.denominator
    r = (1 + max((sum(abs(a) for _, a in row) for row in image.rows), default=0)).bit_length()
    height = (1 + max(map(abs, vector), default=0)) ** 2

    def bounds(k):  # in bits
        hadamard = (k + 1) * ((k + 1) * height).bit_length() + k * (k + 1) * r
        return k * (r + denominator.bit_length()), (hadamard + 1) // 2 * (k < len(vector))

    lift = _Lift(+1, bounds, known)
    for field in _prime_fields():
        p = field.p
        if not denominator % p:
            continue
        # the dependence g of A = D*M gives f(t) = g(D t) / D^deg(g) for M
        g, _ = krylov_dependence(image.entries, vector, p, image.packed_columns(p))
        scale = pow(denominator, -1, p)
        candidate = lift.add([c * pow(scale, len(g) - 1 - i, p) % p for i, c in enumerate(g)], p)
        integral = candidate and not any(
            c * pow(denominator, e, candidate[-1]) % candidate[-1]
            for e, c in enumerate(reversed(candidate))
        )
        if integral and not any(krylov_image(candidate, image, vector, powers, QQ)):
            return candidate, powers
    raise ArithmeticError("the prime source is exhausted")


def _squarefree_part(f: list[int]) -> tuple[list[int], PrimeField]:
    """The squarefree part g of a nonconstant polynomial f over QQ, and the
    first field of the prime source in which g keeps its degree and stays
    squarefree.

    A prime p not dividing lc(f) with gcd(f mod p, f' mod p) = 1 certifies
    that f is squarefree, since a repeated factor would survive mod p; that
    is the usual case and costs one gcd.  Otherwise G = gcd(f, f') comes
    from its images mod p (an image of degree 0 again certifies f): each
    reconstruction is accepted only if it divides f and f' over Z, exactly
    where it divides them over QQ (Gauss's lemma), and g is f / G.

    Bounds at degree e: G, whose leading coefficient divides lc(f), is a
    factor of f over Z, within 2^e |f|_2 (Mignotte); an unlucky prime
    divides a subresultant of f and f', below (d |f|^2)^d.
    """
    derivative = [i * c for i, c in enumerate(f)][1:]
    d, bits = len(f) - 1, (len(f) * sum(c * c for c in f)).bit_length()
    lift = _Lift(-1, lambda e: (e + bits + f[-1].bit_length(), d * bits))
    for field in _prime_fields():
        p = field.p
        if not f[-1] % p:
            continue
        image = gcd(_image(f, p), _image(derivative, p), p)
        if len(image) == 1:
            return f, field
        if candidate := lift.add(image, p):
            division, derived = divmod(f, candidate, 0), divmod(derivative, candidate, 0)
            if division and derived and not division[1] and not derived[1]:
                return _squarefree_part(division[0])
    raise ArithmeticError("the prime source is exhausted")


def _integer_roots(h: list[int], field: PrimeField) -> list[int]:
    """The integer roots of a monic integer polynomial h that stays
    squarefree mod p = field.p.

    They lie within the Cauchy bound B = 1 + max |h_i|.  Each root modulo
    p is a simple root there, so Newton's iteration lifts it until the
    modulus exceeds 2B; the symmetric residue is kept only if h vanishes on
    it exactly.
    """
    bound = 1 + max(abs(c) for c in h[:-1])
    derivative = [i * c for i, c in enumerate(h)][1:]
    found = []
    for z in roots(h, field):
        modulus = field.p
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


# the sieve's primes: a monic integer polynomial with an integer root has a
# zero mod each of them
_SIEVE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _rational_roots(coeffs: list[int]) -> list[Fraction]:
    """All rational roots, ascending, of a nonzero polynomial over QQ.

    Zero is read off the low coefficients, which leaves the core f.  For a
    polynomial g with integer coefficients, d = deg g and c = g_d, the
    monic h(z) = c^(d-1) g(z/c) has integer coefficients, and t = z/c runs
    over the rational roots of g as z runs over the integer roots of h.

    An integer root of f's h is a zero of h mod every prime, so a prime of
    ``_SIEVE_PRIMES`` at which h mod p
    (coefficients f_i c^(d-1-i) mod p) has none rules out every nonzero
    root; the sieve never reports one.  The other roots are those of the
    squarefree part g: -g_0/g_1 if g is linear, else the integer roots of
    its h (``_integer_roots``, each one confirmed by exact evaluation).
    """
    v = next(i for i, c in enumerate(coeffs) if c)
    found = [Fraction(0)] if v else []
    if v == len(coeffs) - 1:
        return found
    f = coeffs[v:]
    d, c = len(f) - 1, f[-1]
    for p in _SIEVE_PRIMES if d > 1 else ():
        h = [f_i * pow(c, d - 1 - i, p) % p for i, f_i in enumerate(f[:-1])] + [1]
        if all(_eval_int(h, z) % p for z in range(p)):
            return found
    g, field = _squarefree_part(f) if d > 1 else (f, None)
    d, c = len(g) - 1, g[-1]
    if d == 1:
        found.append(Fraction(-g[0], c))
    else:
        h = [g_i * c ** (d - 1 - i) for i, g_i in enumerate(g[:-1])] + [1]
        found.extend(Fraction(z, c) for z in _integer_roots(h, field))
    return sorted(found)


def roots(coeffs: list, field) -> list:
    """The roots in the field, ascending, of a nonzero polynomial whose
    coefficients are field elements, or integers read in the field.

    Over QQ they are ``_rational_roots`` of the primitive integer multiple.
    Over Fp they are the roots of r = gcd(f, t^p - t), with t^p mod f by
    repeated squaring, which ``_fp_split`` splits into linear factors: the
    cost is polynomial in the degree and in log p.  For p = 2 the
    polynomial is evaluated at 0 and 1.
    """
    p = field.characteristic
    if not p:
        return _rational_roots(_primitive(coeffs))
    f = _image(coeffs, p)
    if p == 2:
        return [t for t, value in ((0, f[0]), (1, sum(f) % 2)) if not value]
    if len(f) < 2:
        return []
    r = gcd(f, _minus(_powmod([0, 1], p, f, p), [0, 1], p), p)
    return sorted(_fp_split(r, p)) if len(r) > 1 else []


def _cofactor(coeffs: list[int], root, field) -> list[int] | None:
    """The g with coeffs = (b*t - a)^s * g, s >= 1 and g(root) != 0, for
    root = a/b, or None if root is not a root: repeated division by
    b*t - a, mod p over Fp (b = 1), and over Z, where the primitive b*t - a
    divides exactly where root is a root, and g is primitive with lc > 0
    (Gauss's lemma)."""
    p, a, b = field.characteristic, root.numerator, root.denominator
    g, s, divisor = coeffs, 0, [-a % p, 1] if p else [-a, b]
    while (division := divmod(g, divisor, p)) and not division[1]:
        g, s = division[0], s + 1
    return g if s else None
