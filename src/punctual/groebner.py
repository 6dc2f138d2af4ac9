"""Multivariate division and Buchberger's algorithm.

The reduced Groebner basis is the canonical form of an ideal here: monic
generators, no monomial of any generator divisible by the leading
monomial of another, generators listed ascending by leading monomial.
For a fixed ideal and order that basis is unique, which is what makes the
golden tests and the permutation-invariance property possible.

Division and Buchberger run on monomials packed into one int (Monagan
and Pearce, *Sparse polynomial division using a heap*): x^a*y^b is the
fields k1 | k2 | a | b, where (k1, k2) is the order's key, linear in
(a, b).  Each field has W value bits and a guard bit above them, so a
product is an int addition, the order is int comparison, and lm divides
m iff m - lm sets no guard bit.  A product that sets one raises
``_Overflow``, and the run restarts at twice the width.  Each element is
kept once as (packed leading monomial, leading coefficient a, integer
tail), monic over Fp and primitive with a > 0 over QQ, and reduced
fraction-free (von zur Gathen and Gerhard, *Modern Computer Algebra*,
ch. 6): division subtracts shifted tails, and an S-pair is two tails
shifted to the lcm, so no leading term is ever formed.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from typing import NamedTuple

from .poly import Monomial, MonomialOrder, Polynomial
from .univariate import _integral


class GroebnerBasis(NamedTuple):
    order: MonomialOrder
    field: object
    generators: tuple[Polynomial, ...]
    lms: tuple[Monomial, ...]  # one per generator, as the run that built the basis found them


class _Overflow(Exception):
    """A packed product set a guard bit."""


class _Packing:
    """Packed monomials of one order, with fields of W = width value bits."""

    def __init__(self, order: MonomialOrder, width: int):
        s = width + 1
        (k1a, k2a), (k1b, k2b) = order.key(Monomial(1, 0)), order.key(Monomial(0, 1))
        self.order, self.shift, self.mask = order, s, (1 << width) - 1
        self.pa = k1a << 3 * s | k2a << 2 * s | 1 << s
        self.pb = k1b << 3 * s | k2b << 2 * s | 1
        self.guard = sum(1 << width + i * s for i in range(4))

    def pack(self, m: Monomial) -> int:
        if m.a + m.b > self.mask:  # k1, k2, a and b are at most a + b
            raise _Overflow
        return m.a * self.pa + m.b * self.pb

    def unpack(self, m: int) -> Monomial:
        return Monomial(m >> self.shift & self.mask, m & self.mask)

    def divides(self, d: int, m: int) -> bool:
        return m >= d and not (m - d) & self.guard

    def lcm(self, m: int, n: int) -> int:
        s, mask = self.shift, self.mask
        l = max(m >> s & mask, n >> s & mask) * self.pa + max(m & mask, n & mask) * self.pb
        if l & self.guard:
            raise _Overflow
        return l

    def element(self, g: Polynomial) -> tuple:
        """The packed element (lm, a, tail) of a nonzero g, tail descending."""
        if len(g.terms) == 1:  # a term's primitive form is its monomial
            return self.pack(next(iter(g.terms))), 1, []
        _, ints = _integral(list(g.terms.values()), g.field)
        items = sorted(zip(map(self.pack, g.terms), ints), reverse=True)  # lm first
        return _primitive(*items[0], items[1:], g.field.characteristic)


def _primitive(lm: int, a: int, tail: list, p: int) -> tuple:
    """The element of a*lm + tail in integers: monic over Fp, primitive over QQ."""
    if p:
        inv = pow(a, -1, p)
        return lm, 1, tail if a == 1 else [(m, c * inv % p) for m, c in tail]
    content = gcd(a, *(c for _, c in tail)) * (1 if a > 0 else -1)
    return lm, a // content, tail if content == 1 else [(m, c // content) for m, c in tail]


def _terms(items: list, denominator: int, p: int, unpack) -> list:
    """The terms of the packed integer items over the denominator (1 over Fp)."""
    if p:
        return [(unpack(m), c) for m, c in items]
    return [(unpack(m), Fraction(c, denominator)) for m, c in items]


def _width(polys) -> int:
    """Room for 2*d^2, d the largest degree: lex bases reach d^2 (Bezout)."""
    return 2 * max((m.a + m.b for g in polys for m in g.terms), default=0).bit_length() + 1


def _packed(polys, order: MonomialOrder, run):
    width = _width(polys)
    while True:
        try:
            return run(_Packing(order, width))
        except _Overflow:
            width *= 2


def _divide(work: dict, reducers, p: int, guard: int) -> tuple[list, int]:
    """Remainder items, largest first, of the packed integer work (consumed)
    on division by the packed reducers mod p (over Z for p = 0), in one
    descending pass over a heap of negated monomials, and the product of
    the scales a/gcd(a, c) that reducing c*m by (lm, a, tail) applied."""
    pending = [-m for m in work]
    heapify(pending)
    remainder, scale = [], 1
    while pending:
        m = -heappop(pending)
        c = work.pop(m, None)
        if c is None:  # cancelled since it was pushed
            continue
        for lm, a, tail in reducers:
            if m >= lm and not (m - lm) & guard:
                break
        else:
            remainder.append((m, c))
            continue
        if a != 1:
            c //= (g := gcd(a, c))
            if (s := a // g) != 1:
                scale, work = scale * s, {k: v * s for k, v in work.items()}
                remainder = [(k, v * s) for k, v in remainder]
        shift = m - lm
        for t, ct in tail:
            mm = t + shift
            prev = work.get(mm)
            if prev is None:
                if mm & guard:
                    raise _Overflow
                work[mm] = -c * ct % p if p else -c * ct
                heappush(pending, -mm)
            elif value := (prev - c * ct) % p if p else prev - c * ct:
                work[mm] = value
            else:
                del work[mm]
    return remainder, scale


def normal_form(f: Polynomial, basis, order: MonomialOrder) -> Polynomial:
    """Remainder of f on division by the basis, a sequence of polynomials
    over f's field in any order (zero ones are ignored).

    One descending pass: each monomial of the running remainder is visited
    once, largest first.  If a leading monomial divides it, it is reduced
    by the first such basis element (in sequence order), which only adds
    smaller monomials; otherwise it moves to the remainder for good.  This
    is the rule "always reduce the order-largest reducible monomial", so
    the result is the same for any divisor list, Groebner basis or not.
    """
    for g in basis:
        f._check_field(g)
    divisors, p = [g for g in basis if g], f.field.characteristic

    def run(packing: _Packing) -> Polynomial:
        common, ints = _integral(list(f.terms.values()), f.field)
        work = dict(zip(map(packing.pack, f.terms), ints))
        remainder, scale = _divide(work, [packing.element(g) for g in divisors], p, packing.guard)
        return Polynomial(f.field, _terms(remainder, common * scale, p, packing.unpack))

    return _packed([f, *divisors], order, run)


def spolynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    lm_f = f.leading_monomial(order)
    lm_g = g.leading_monomial(order)
    l = lm_f.lcm(lm_g)
    inv = f.field.inv
    left = f.times_term(l.divided_by(lm_f), inv(f.leading_coefficient(order)))
    right = g.times_term(l.divided_by(lm_g), inv(g.leading_coefficient(order)))
    return left - right


def _spair(f: tuple, g: tuple, l: int, p: int, guard: int) -> dict:
    """(a_g/h)*f - (a_f/h)*g, h = gcd(a_f, a_g), for packed elements with lcm l."""
    bf, bg = g[1] // (h := gcd(f[1], g[1])), f[1] // h
    sf, sg = l - f[0], l - g[0]
    work = {t + sf: bf * c for t, c in f[2]}
    for t, c in g[2]:
        value = work.get(m := t + sg, 0) - bg * c
        work[m] = value % p if p else value
    if any(m & guard for m in work):
        raise _Overflow
    return {m: c for m, c in work.items() if c}


def buchberger(generators, order: MonomialOrder) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal spanned by the generators.

    Idempotent, and independent of the order in which generators are
    listed.  Zero generators are dropped; if everything is zero the
    result is the empty basis of the zero ideal.

    Each new element h goes through the Gebauer-Moeller update (Becker-
    Weispfenning, *Groebner Bases*, UPDATE).  Of its new pairs, one whose
    lcm is divisible by the lcm of another new pair is dropped (the chain
    criterion); coprime pairs are dropped only after that, so they can
    still eliminate others.  A pending pair (i, j) is dropped when lm(h)
    divides its lcm and neither lcm(i, h) nor lcm(j, h) equals it.  An
    element whose leading monomial lm(h) divides leaves the reducer list,
    though its pending pairs stay.  Pairs are popped smallest lcm first,
    then by (i, j), and S-polynomials are divided by the reducer list.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("need at least one generator (possibly zero) to fix the field")
    coeff_field = generators[0].field
    for g in generators:
        generators[0]._check_field(g)
    nonzero = [g for g in generators if g]
    return _packed(nonzero, order, lambda packing: _buchberger(nonzero, coeff_field, packing))


def _buchberger(generators, coeff_field, packing: _Packing) -> GroebnerBasis:
    p, guard, lcm, divides = coeff_field.characteristic, packing.guard, packing.lcm, packing.divides
    elements: list[tuple] = []  # (lm, a, tail) of every element added; pairs index it
    active: list[int] = []  # the elements still needed, in insertion order
    reducers: list[tuple] = []  # elements[i] for i in active
    pairs: list[tuple] = []  # heap of (lcm, i, j)

    def add(h: tuple) -> None:
        nonlocal pairs, active, reducers
        lm_h, j = h[0], len(elements)
        candidates = [(lcm(elements[i][0], lm_h), i) for i in active]
        new = []  # survivors of the chain criterion, coprime pairs included
        for idx, (l, i) in enumerate(candidates):
            others = candidates[idx + 1 :] + new
            if l == elements[i][0] + lm_h or not any(divides(o, l) for o, _ in others):
                new.append((l, i))
        pairs = [
            pair
            for pair in pairs
            if not divides(lm_h, pair[0])
            or lcm(elements[pair[1]][0], lm_h) == pair[0]
            or lcm(elements[pair[2]][0], lm_h) == pair[0]
        ]
        heapify(pairs)
        for l, i in new:
            if l != elements[i][0] + lm_h:  # not coprime
                heappush(pairs, (l, i, j))
        elements.append(h)
        active = [i for i in active if not divides(lm_h, elements[i][0])] + [j]
        reducers = [elements[i] for i in active]

    for g in generators:
        add(packing.element(g))
    while pairs:
        l, i, j = heappop(pairs)
        spair = _spair(elements[i], elements[j], l, p, guard)
        if remainder := _divide(spair, reducers, p, guard)[0]:
            add(_primitive(*remainder[0], remainder[1:], p))
    return _reduce_basis(reducers, coeff_field, packing)


def _reduce_basis(reducers, coeff_field, packing: _Packing) -> GroebnerBasis:
    # minimalize, then reduce each tail by the others: leading monomials are
    # pairwise non-divisible, so one pass leaves every tail irreducible
    p, one, unpack = coeff_field.characteristic, coeff_field.one(), packing.unpack
    kept: list[tuple] = []
    for element in sorted(reducers):  # by leading monomial: no two are equal
        if not any(packing.divides(other[0], element[0]) for other in kept):
            kept.append(element)
    for idx, (lm, a, tail) in enumerate(kept):
        others = kept[:idx] + kept[idx + 1 :]
        remainder, scale = _divide(dict(tail), others, p, packing.guard)
        kept[idx] = _primitive(lm, a * scale, remainder, p)
    gens = tuple(
        Polynomial(coeff_field, [(unpack(lm), one), *_terms(tail, a, p, unpack)])
        for lm, a, tail in kept
    )
    return GroebnerBasis(packing.order, coeff_field, gens, tuple(unpack(lm) for lm, _, _ in kept))


def is_zero_dimensional(gb: GroebnerBasis) -> bool:
    """True iff the leading monomials contain a pure power of x and of y.

    The basis of the unit ideal is {1}, a pure power of both variables,
    so the empty subscheme counts as zero-dimensional with colength 0.
    """
    lms = gb.lms
    if not lms:
        return False
    return any(m.b == 0 for m in lms) and any(m.a == 0 for m in lms)


def spolynomial_certificate(gb: GroebnerBasis) -> bool:
    """Every pairwise S-polynomial reduces to zero against the basis."""
    gens = gb.generators
    for j in range(len(gens)):
        for i in range(j):
            s = spolynomial(gens[i], gens[j], gb.order)
            if normal_form(s, gens, gb.order):
                return False
    return True
