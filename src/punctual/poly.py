"""Sparse bivariate polynomials, monomials, monomial orders, and the parser.

A polynomial is a map from monomials to nonzero coefficients over a fixed
field.  Monomial orders are value objects; two orders with equal tag and
precedence compare every pair of monomials identically.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple

from .errors import ParseError
from .fields import element_text


class Monomial(NamedTuple):
    """Exponent pair: ``Monomial(a, b)`` stands for x**a * y**b."""

    a: int
    b: int

    @property
    def degree(self) -> int:
        return self.a + self.b

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.a + other.a, self.b + other.b)

    def divides(self, other: "Monomial") -> bool:
        return self.a <= other.a and self.b <= other.b

    def divided_by(self, other: "Monomial") -> "Monomial":
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return Monomial(self.a - other.a, self.b - other.b)

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(max(self.a, other.a), max(self.b, other.b))

    def __str__(self) -> str:
        if self.a == 0 and self.b == 0:
            return "1"
        parts = []
        if self.a:
            parts.append("x" if self.a == 1 else f"x^{self.a}")
        if self.b:
            parts.append("y" if self.b == 1 else f"y^{self.b}")
        return "*".join(parts)


UNIT = Monomial(0, 0)
X = Monomial(1, 0)
Y = Monomial(0, 1)

ORDER_TAGS = ("lex", "deglex", "degrevlex")
PRECEDENCES = ("xy", "yx")

# Ascending sort keys.  In two variables the graded orders of equal
# precedence coincide, so deglex and degrevlex share one key function and
# orders with the same key function give the same Groebner basis; both
# tags stay selectable regardless.
_KEY_FUNCS: dict[tuple[str, str], Callable[[Monomial], tuple[int, int]]] = {
    ("lex", "xy"): lambda m: (m.a, m.b),
    ("lex", "yx"): lambda m: (m.b, m.a),
    ("deglex", "xy"): lambda m: (m.a + m.b, m.a),
    ("deglex", "yx"): lambda m: (m.a + m.b, m.b),
}
_KEY_FUNCS[("degrevlex", "xy")] = _KEY_FUNCS[("deglex", "xy")]
_KEY_FUNCS[("degrevlex", "yx")] = _KEY_FUNCS[("deglex", "yx")]


class MonomialOrder(NamedTuple("MonomialOrder", [("tag", str), ("precedence", str)])):
    """A monomial order: tag in {lex, deglex, degrevlex}, precedence 'xy' (x > y) or 'yx'."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, tag: str = "degrevlex", precedence: str = "xy"):
        if tag not in ORDER_TAGS:
            raise ValueError(f"unknown order tag {tag!r}")
        if precedence not in PRECEDENCES:
            raise ValueError(f"unknown precedence {precedence!r}")
        return super().__new__(cls, tag, precedence)

    def key_func(self) -> Callable[[Monomial], tuple[int, int]]:
        return _KEY_FUNCS[(self.tag, self.precedence)]

    def key(self, m: Monomial) -> tuple[int, int]:
        return _KEY_FUNCS[(self.tag, self.precedence)](m)

    def compare(self, m1: Monomial, m2: Monomial) -> int:
        """-1, 0, or +1 according to the order."""
        k1, k2 = self.key(m1), self.key(m2)
        if k1 < k2:
            return -1
        if k1 > k2:
            return 1
        return 0

    @property
    def label(self) -> str:
        return f"{self.tag}:{self.precedence}"


DEFAULT_ORDER = MonomialOrder("degrevlex", "xy")
ALL_ORDERS = tuple(MonomialOrder(t, p) for t in ORDER_TAGS for p in PRECEDENCES)

# Fixed display order so printed polynomials never depend on the active
# computation order.
_DISPLAY_KEY = _KEY_FUNCS[("degrevlex", "xy")]


class Polynomial:
    """Sparse polynomial in x and y with exact coefficients over a fixed field."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms: Iterable | dict | None = None):
        self.field = field
        data: dict[Monomial, object] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for mono, coeff in items:
                if mono in data:
                    coeff = data[mono] + coeff
                data[mono] = field.reduce(coeff)
        self.terms = {m: c for m, c in data.items() if c}

    @classmethod
    def zero(cls, field) -> "Polynomial":
        return cls(field)

    @classmethod
    def monomial(cls, field, mono: Monomial, coeff=None) -> "Polynomial":
        return cls(field, {mono: field.one() if coeff is None else coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _check_field(self, other: "Polynomial") -> None:
        if self.field != other.field:
            raise ValueError("polynomials over different fields")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_field(other)
        reduce = self.field.reduce
        data = dict(self.terms)
        for m, c in other.terms.items():
            if m in data:
                s = reduce(data[m] + c)
                if s:
                    data[m] = s
                else:
                    del data[m]
            else:
                data[m] = c
        out = Polynomial.__new__(Polynomial)
        out.field = self.field
        out.terms = data
        return out

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + -other

    def __neg__(self) -> "Polynomial":
        out = Polynomial.__new__(Polynomial)
        out.field = self.field
        reduce = self.field.reduce
        out.terms = {m: reduce(-c) for m, c in self.terms.items()}
        return out

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_field(other)
        reduce = self.field.reduce
        data: dict[Monomial, object] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 * m2
                if m in data:
                    s = reduce(data[m] + c1 * c2)
                    if s:
                        data[m] = s
                    else:
                        del data[m]
                else:
                    data[m] = reduce(c1 * c2)
        out = Polynomial.__new__(Polynomial)
        out.field = self.field
        out.terms = data
        return out

    def times_term(self, mono: Monomial, coeff=None) -> "Polynomial":
        """Multiply by a single term coeff * mono (coeff defaults to 1)."""
        out = Polynomial.__new__(Polynomial)
        out.field = self.field
        if coeff is None:
            out.terms = {m * mono: c for m, c in self.terms.items()}
        elif coeff:
            reduce = self.field.reduce
            out.terms = {m * mono: reduce(c * coeff) for m, c in self.terms.items()}
        else:
            out.terms = {}
        return out

    def coeff(self, mono: Monomial):
        return self.terms.get(mono, self.field.zero())

    def degree(self) -> int:
        """Total degree, -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(m.degree for m in self.terms)

    def leading_monomial(self, order: MonomialOrder) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=order.key_func())

    def leading_coefficient(self, order: MonomialOrder):
        return self.terms[self.leading_monomial(order)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.field, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for m in sorted(self.terms, key=_DISPLAY_KEY, reverse=True):
            c = element_text(self.terms[m])
            negative = c.startswith("-")
            magnitude = c[1:] if negative else c
            if m == UNIT:
                body = magnitude
            elif magnitude == "1":
                body = str(m)
            else:
                body = f"{magnitude}*{m}"
            chunks.append(("-" if negative else "+", body))
        sign, body = chunks[0]
        text = body if sign == "+" else f"-{body}"
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _tokenize(text: str, i: int = 0, end: int | None = None) -> list[tuple[str, object, int]]:
    """Tokens of text[i:end], each with its position in text."""
    tokens: list[tuple[str, object, int]] = []
    end = len(text) if end is None else end
    while i < end:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < end and text[j].isdigit():
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:  # past int()'s digit limit, or a digit like '²' it refuses
                raise ParseError(f"unreadable integer of {j - i} digits at position {i}") from None
            tokens.append(("int", value, i))
            i = j
        elif ch in "xy":
            tokens.append(("var", ch, i))
            i += 1
        elif ch in "+-*^":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r} at position {i}")
    return tokens


def parse_polynomial(text: str, field) -> Polynomial:
    """Parse one polynomial: integer coefficients, variables x and y,
    '^' exponents, optional '*' between factors, whitespace ignored."""
    return _polynomial(_tokenize(text), field)


def _polynomial(tokens: list, field) -> Polynomial:
    if not tokens:
        raise ParseError("empty polynomial")
    terms: list[tuple[Monomial, object]] = []
    pos = 0

    def peek() -> str | None:
        return tokens[pos][0] if pos < len(tokens) else None

    while pos < len(tokens):
        sign = 1
        if peek() == "+":
            pos += 1
        elif peek() == "-":
            sign = -1
            pos += 1
        coeff = 1
        ax = ay = 0
        saw_factor = False
        while True:
            kind = peek()
            if kind == "int":
                coeff *= tokens[pos][1]
                pos += 1
                saw_factor = True
                if peek() == "^":
                    raise ParseError(
                        f"exponent applies only to a variable (position {tokens[pos][2]})"
                    )
            elif kind == "var":
                var = tokens[pos][1]
                pos += 1
                saw_factor = True
                exponent = 1
                if peek() == "^":
                    pos += 1
                    if peek() != "int":
                        raise ParseError("missing integer exponent after '^'")
                    exponent = tokens[pos][1]
                    pos += 1
                if var == "x":
                    ax += exponent
                else:
                    ay += exponent
            elif kind == "*":
                if not saw_factor:
                    raise ParseError(f"'*' with no preceding factor (position {tokens[pos][2]})")
                pos += 1
                if peek() not in ("int", "var"):
                    raise ParseError("expected a factor after '*'")
            elif kind in ("+", "-") or kind is None:
                break
            else:
                raise ParseError(f"unexpected '^' at position {tokens[pos][2]}")
        if not saw_factor:
            raise ParseError("empty term")
        terms.append((Monomial(ax, ay), field.from_int(sign * coeff)))
    return Polynomial(field, terms)


def parse_generators(text: str, field) -> list[Polynomial]:
    """Parse a comma-separated list of generators; every position an error
    names is an offset into text."""
    pieces = text.split(",")
    if any(not piece.strip() for piece in pieces):
        raise ParseError("empty generator in ideal text")
    generators, start = [], 0
    for piece in pieces:
        generators.append(_polynomial(_tokenize(text, start, start + len(piece)), field))
        start += len(piece) + 1
    return generators
