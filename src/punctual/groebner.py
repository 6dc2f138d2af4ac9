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
kept once, monic, as (packed leading monomial, tail): division subtracts
shifted tails, and an S-pair is two tails shifted to the lcm, so no
leading term is ever formed.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import NamedTuple

from .poly import Monomial, MonomialOrder, Polynomial


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

    def monic(self, g: Polynomial) -> tuple:
        lm = g.leading_monomial(self.order)
        inv, reduce = g.field.inv(g.terms[lm]), g.field.reduce
        tail = [(self.pack(m), reduce(c * inv)) for m, c in g.terms.items() if m != lm]
        return self.pack(lm), tail


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


def _divide(work: dict, reducers, reduce, guard: int) -> list:
    """Remainder items, largest first, of the packed work (consumed) on
    division by the monic packed reducers, in one descending pass over a
    heap of negated monomials; see ``normal_form``."""
    pending = [-m for m in work]
    heapify(pending)
    remainder = []
    while pending:
        m = -heappop(pending)
        c = work.pop(m, None)
        if c is None:  # cancelled since it was pushed
            continue
        for lm, tail in reducers:
            if m >= lm and not (m - lm) & guard:
                break
        else:
            remainder.append((m, c))
            continue
        shift = m - lm
        for t, ct in tail:
            mm = t + shift
            prev = work.get(mm)
            if prev is None:
                if mm & guard:
                    raise _Overflow
                work[mm] = reduce(-c * ct)
                heappush(pending, -mm)
            elif value := reduce(prev - c * ct):
                work[mm] = value
            else:
                del work[mm]
    return remainder


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
    divisors = [g for g in basis if g]

    def run(packing: _Packing) -> Polynomial:
        work = {packing.pack(m): c for m, c in f.terms.items()}
        items = _divide(work, [packing.monic(g) for g in divisors], f.field.reduce, packing.guard)
        return Polynomial(f.field, [(packing.unpack(m), c) for m, c in items])

    return _packed([f, *divisors], order, run)


def spolynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    lm_f = f.leading_monomial(order)
    lm_g = g.leading_monomial(order)
    l = lm_f.lcm(lm_g)
    inv = f.field.inv
    left = f.times_term(l.divided_by(lm_f), inv(f.leading_coefficient(order)))
    right = g.times_term(l.divided_by(lm_g), inv(g.leading_coefficient(order)))
    return left - right


def _spair(f: tuple, g: tuple, l: int, reduce, guard: int) -> dict:
    """S-polynomial of the monic packed elements f and g with lcm l."""
    work = {t + l - f[0]: c for t, c in f[1]}
    for t, c in g[1]:
        m = t + l - g[0]
        work[m] = reduce(work.get(m, 0) - c)
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
    reduce, guard, lcm, divides = coeff_field.reduce, packing.guard, packing.lcm, packing.divides
    elements: list[tuple] = []  # (lm, tail) of every element added; pairs index it
    active: list[int] = []  # the elements still needed, in insertion order
    reducers: list[tuple] = []  # elements[i] for i in active
    pairs: list[tuple] = []  # heap of (lcm, i, j)

    def add(lm_h: int, tail: list) -> None:
        nonlocal pairs, active, reducers
        j = len(elements)
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
        elements.append((lm_h, tail))
        active = [i for i in active if not divides(lm_h, elements[i][0])] + [j]
        reducers = [elements[i] for i in active]

    for g in generators:
        add(*packing.monic(g))
    while pairs:
        l, i, j = heappop(pairs)
        spair = _spair(elements[i], elements[j], l, reduce, guard)
        if remainder := _divide(spair, reducers, reduce, guard):
            lc_inv = coeff_field.inv(remainder[0][1])
            add(remainder[0][0], [(m, reduce(c * lc_inv)) for m, c in remainder[1:]])
    return _reduce_basis(reducers, coeff_field, packing)


def _reduce_basis(reducers, coeff_field, packing: _Packing) -> GroebnerBasis:
    # minimalize, then reduce each tail by the others: leading monomials are
    # pairwise non-divisible, so one pass leaves every tail irreducible
    kept: list[tuple] = []
    for lm, tail in sorted(reducers, key=lambda r: r[0]):
        if not any(packing.divides(other, lm) for other, _ in kept):
            kept.append((lm, tail))
    for idx, (lm, tail) in enumerate(kept):
        others = kept[:idx] + kept[idx + 1 :]
        kept[idx] = lm, _divide(dict(tail), others, coeff_field.reduce, packing.guard)
    one, unpack = coeff_field.one(), packing.unpack
    gens = tuple(
        Polynomial(coeff_field, [(unpack(m), c) for m, c in [(lm, one), *t]]) for lm, t in kept
    )
    return GroebnerBasis(packing.order, coeff_field, gens, tuple(unpack(lm) for lm, _ in kept))


def initial_ideal(gb: GroebnerBasis) -> tuple[Monomial, ...]:
    """Minimal monomial generators of the ideal of leading terms."""
    return gb.lms


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
