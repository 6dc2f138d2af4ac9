"""Multivariate division and Buchberger's algorithm.

The reduced Groebner basis is the canonical form of an ideal here: monic
generators, no monomial of any generator divisible by the leading
monomial of another, generators listed ascending by leading monomial.
For a fixed ideal and order that basis is unique, which is what makes the
golden tests and the permutation-invariance property possible.

Division reads a reducer list: one ``(leading monomial, inverse leading
coefficient, polynomial)`` triple per divisor, made once per element rather
than once per division.  Buchberger keeps such a list for the elements it
still needs and prunes its pairs with the Gebauer-Moeller criteria, so
most S-polynomials that would reduce to zero are never formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush

from .poly import Monomial, MonomialOrder, Polynomial


@dataclass(frozen=True)
class GroebnerBasis:
    order: MonomialOrder
    field: object
    generators: tuple[Polynomial, ...]

    @cached_property
    def _leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(g.leading_monomial(self.order) for g in self.generators)

    def leading_monomials(self) -> tuple[Monomial, ...]:
        """One per generator, computed once."""
        return self._leading_monomials


def _reducer(g: Polynomial, order: MonomialOrder) -> tuple:
    lm = g.leading_monomial(order)
    return lm, g.field.inv(g.terms[lm]), g


def normal_form(f: Polynomial, basis, order: MonomialOrder) -> Polynomial:
    """Remainder of f on division by the basis, a sequence of polynomials
    over f's field in any order (zero ones are ignored).

    One descending pass: each monomial of the running remainder is visited
    once, largest first.  If a leading monomial divides it, it is reduced
    by the first such basis element (in sequence order), which only adds
    smaller monomials; otherwise it moves to the remainder for good.  This
    is the rule "always reduce the order-largest reducible monomial", so
    the result is the same for any divisor list, Groebner basis or not.
    The reducer list is built here on every call; ``buchberger`` keeps its
    own and divides by it directly.
    """
    for g in basis:
        f._check_field(g)
    return _divide(f, [_reducer(g, order) for g in basis if g], order)


def _divide(f: Polynomial, reducers, order: MonomialOrder) -> Polynomial:
    reduce = f.field.reduce
    key = order.key_func()

    def descending(m: Monomial) -> tuple:
        high, low = key(m)
        return -high, -low, m

    work = dict(f.terms)
    pending = [descending(m) for m in work]
    heapify(pending)
    remainder = {}
    while pending:
        m = heappop(pending)[2]
        if m not in work:  # cancelled since it was pushed
            continue
        for lm, lc_inv, g in reducers:
            if lm.divides(m):
                break
        else:
            remainder[m] = work.pop(m)
            continue
        factor = reduce(work[m] * lc_inv)
        shift = m.divided_by(lm)
        for mg, cg in g.terms.items():
            mm = mg * shift
            prev = work.get(mm)
            value = reduce(prev - factor * cg if prev is not None else -(factor * cg))
            if value:
                if prev is None:
                    heappush(pending, descending(mm))
                work[mm] = value
            else:
                work.pop(mm, None)
    return Polynomial(f.field, remainder)


def spolynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    lm_f = f.leading_monomial(order)
    lm_g = g.leading_monomial(order)
    l = lm_f.lcm(lm_g)
    inv = f.field.inv
    left = f.times_term(l.divided_by(lm_f), inv(f.leading_coefficient(order)))
    right = g.times_term(l.divided_by(lm_g), inv(g.leading_coefficient(order)))
    return left - right


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
    key = order.key_func()
    entries: list[tuple] = []  # (lm, 1/lc, g) of every element added; pairs index it
    active: list[int] = []  # the elements still needed, in insertion order
    reducers: list[tuple] = []  # entries[i] for i in active
    pairs: list[tuple] = []  # heap of (key(lcm), i, j, lcm)

    def add(h: Polynomial) -> None:
        nonlocal pairs, active, reducers
        entry = _reducer(h, order)
        lm_h, j = entry[0], len(entries)
        candidates = [(entries[i][0].lcm(lm_h), i) for i in active]
        new = []  # survivors of the chain criterion, coprime pairs included
        for idx, (l, i) in enumerate(candidates):
            others = candidates[idx + 1 :] + new
            if entries[i][0].coprime_with(lm_h) or not any(o.divides(l) for o, _ in others):
                new.append((l, i))
        pairs = [
            pair
            for pair in pairs
            if not lm_h.divides(pair[3])
            or entries[pair[1]][0].lcm(lm_h) == pair[3]
            or entries[pair[2]][0].lcm(lm_h) == pair[3]
        ]
        heapify(pairs)
        for l, i in new:
            if not entries[i][0].coprime_with(lm_h):
                heappush(pairs, (key(l), i, j, l))
        entries.append(entry)
        active = [i for i in active if not lm_h.divides(entries[i][0])] + [j]
        reducers = [entries[i] for i in active]

    for g in generators:
        if g:
            add(g.monic(order))
    while pairs:
        _, i, j, _ = heappop(pairs)
        remainder = _divide(spolynomial(entries[i][2], entries[j][2], order), reducers, order)
        if remainder:
            add(remainder.monic(order))
    return _reduce_basis(reducers, order, coeff_field)


def _reduce_basis(reducers, order, coeff_field) -> GroebnerBasis:
    key = order.key_func()
    kept: list[Polynomial] = []
    kept_lms: list[Monomial] = []
    for lm, _, g in sorted(reducers, key=lambda r: key(r[0])):
        if any(other.divides(lm) for other in kept_lms):
            continue
        kept.append(g)
        kept_lms.append(lm)
    # tail reduction: leading monomials are pairwise non-divisible, so one
    # pass against the full set leaves every tail monomial irreducible
    reduced: list[Polynomial] = []
    for idx, g in enumerate(kept):
        others = reduced + kept[idx + 1 :]
        reduced.append(normal_form(g, others, order).monic(order))
    return GroebnerBasis(order=order, field=coeff_field, generators=tuple(reduced))


def groebner_from_monomials(monomials, order: MonomialOrder, coeff_field) -> GroebnerBasis:
    """The reduced basis of a monomial ideal, built without division."""
    minimal: list[Monomial] = []
    for m in sorted(set(monomials)):
        if not any(other.divides(m) for other in minimal):
            minimal = [other for other in minimal if not m.divides(other)]
            minimal.append(m)
    key = order.key_func()
    minimal.sort(key=key)
    gens = tuple(Polynomial.monomial(coeff_field, m) for m in minimal)
    return GroebnerBasis(order=order, field=coeff_field, generators=gens)


def initial_ideal(gb: GroebnerBasis) -> tuple[Monomial, ...]:
    """Minimal monomial generators of the ideal of leading terms."""
    return gb.leading_monomials()


def is_zero_dimensional(gb: GroebnerBasis) -> bool:
    """True iff the leading monomials contain a pure power of x and of y.

    The basis of the unit ideal is {1}, a pure power of both variables,
    so the empty subscheme counts as zero-dimensional with colength 0.
    """
    lms = gb.leading_monomials()
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
