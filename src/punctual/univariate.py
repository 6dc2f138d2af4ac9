"""Polynomials in one variable over the coefficient fields, and their roots.

A polynomial is a list of coefficients, constant first, trimmed (no
trailing zeros; [] is zero), every entry stored through the field's
``reduce``.  As in ``linalg``, every division goes through ``inv``, so one
``divmod`` and one monic ``gcd`` serve both fields, and so do ``roots``,
the roots in the field, and ``_cofactor``, which splits one off with its
multiplicity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, count

from .fields import QQ, PrimeField, is_prime


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _image(coeffs: list, field) -> list:
    """An integer or field polynomial stored in the field."""
    return _trim([field.reduce(c) for c in coeffs])


def divmod(a: list, b: list, field) -> tuple[list, list]:
    """Quotient and remainder of a by b (b nonzero)."""
    reduce = field.reduce
    rem = list(a)
    db = len(b) - 1
    inv = field.inv(b[-1])
    quotient = [field.zero()] * max(len(a) - db, 0)
    for k in range(len(a) - 1 - db, -1, -1):
        c = reduce(rem[k + db] * inv)
        if c:
            quotient[k] = c
            for i, bi in enumerate(b):
                rem[k + i] = reduce(rem[k + i] - c * bi)
    return quotient, _trim(rem[:db])


def gcd(a: list, b: list, field) -> list:
    """The monic gcd (a nonzero), by Euclid's algorithm."""
    while b:
        a, b = b, divmod(a, b, field)[1]
    inv = field.inv(a[-1])
    return [field.reduce(c * inv) for c in a]


def _minus(a: list, b: list, field) -> list:
    a = a + [field.zero()] * (len(b) - len(a))
    for i, c in enumerate(b):
        a[i] = field.reduce(a[i] - c)
    return _trim(a)


def _mulmod(a: list, b: list, f: list, field) -> list:
    product = [field.zero()] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                product[i + j] += x * y
    return divmod(_image(product, field), f, field)[1]


def _powmod(a: list, e: int, f: list, field) -> list:
    """a^e mod f, by repeated squaring."""
    result, a = [field.one()], divmod(a, f, field)[1]
    while e:
        if e & 1:
            result = _mulmod(result, a, f, field)
        e >>= 1
        if e:
            a = _mulmod(a, a, f, field)
    return result


def _fp_split(r: list, field: PrimeField) -> list:
    """The roots of r, a monic product of distinct linear factors over Fp
    with p odd, by equal-degree splitting (Cantor-Zassenhaus).

    gcd(r, (t + a)^((p-1)/2) - 1) keeps the roots at which t + a is a
    nonzero square.  The shifts a = 0, 1, 2, ... are tried in turn, so the
    split is deterministic; any two distinct roots are separated by
    (p - 1)/2 of the p shifts.
    """
    if len(r) == 2:
        return [field.reduce(-r[0])]
    for a in range(field.p):
        half = _minus(_powmod([a, 1], (field.p - 1) // 2, r, field), [1], field)
        g = gcd(r, half, field)
        if 1 < len(g) < len(r):
            return _fp_split(g, field) + _fp_split(divmod(r, g, field)[0], field)


def _primitive(coeffs: list) -> list[int]:
    """The integer polynomial with coprime coefficients proportional to a
    Fraction polynomial."""
    denominators = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denominators) for c in coeffs]
    content = math.gcd(*ints)
    return [c // content for c in ints]


def _squarefree_part(coeffs: list[Fraction]) -> list[int]:
    """f / gcd(f, f') over QQ, as a primitive integer polynomial."""
    derivative = _trim([i * c for i, c in enumerate(coeffs)][1:])
    return _primitive(divmod(coeffs, gcd(coeffs, derivative, QQ), QQ)[0])


def _integer_roots(h: list[int]) -> list[int]:
    """The integer roots of a monic squarefree integer polynomial.

    They lie within the Cauchy bound B = 1 + max |h_i|.  Each root modulo
    the first prime from 32003 up at which h stays squarefree is a simple
    root there, so Newton's iteration lifts it until the modulus exceeds
    2B; the symmetric residue is kept only if h vanishes on it exactly.
    """
    bound = 1 + max(abs(c) for c in h[:-1])
    derivative = [i * c for i, c in enumerate(h)][1:]
    for p in filter(is_prime, count(32003, 2)):
        field = PrimeField(p)
        if len(gcd(_image(h, field), _image(derivative, field), field)) == 1:
            break
    found = []
    for z in roots(h, field):
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
    v = next(i for i, c in enumerate(coeffs) if c)
    found = [Fraction(0)] if v else []
    core = coeffs[v:]
    if len(core) > 1:
        g = _squarefree_part(core)
        d, c = len(g) - 1, g[-1]
        h = [g_i * c ** (d - 1 - i) for i, g_i in enumerate(g[:-1])] + [1]
        found.extend(Fraction(z, c) for z in _integer_roots(h))
    return sorted(found)


def roots(coeffs: list, field) -> list:
    """The roots in the field, ascending, of a nonzero polynomial whose
    coefficients are field elements, or integers read in the field.

    Over QQ they are ``_rational_roots``.  Over Fp they are the roots of
    r = gcd(f, t^p - t), with t^p mod f by repeated squaring, which
    ``_fp_split`` splits into linear factors: the cost is polynomial in
    the degree and in log p.  For p = 2 the polynomial is evaluated at 0
    and 1.
    """
    if field.characteristic == 0:
        return _rational_roots(coeffs)
    f = _image(coeffs, field)
    if field.p == 2:
        return [t for t, value in ((0, f[0]), (1, sum(f) % 2)) if not value]
    if len(f) < 2:
        return []
    r = gcd(f, _minus(_powmod([0, 1], field.p, f, field), [0, 1], field), field)
    return sorted(_fp_split(r, field)) if len(r) > 1 else []


def _cofactor(coeffs, root, field):
    """The g with coeffs = (t - root)^s * g and g(root) != 0, by synthetic
    division, or None if root is not a root."""
    reduce = field.reduce
    cofactor = None
    while True:
        *quotient, remainder = accumulate(reversed(coeffs), lambda acc, c: reduce(acc * root + c))
        if remainder:
            return cofactor
        coeffs = cofactor = quotient[::-1]
