"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

Elements are plain values supporting the arithmetic operators: the
rationals use ``fractions.Fraction`` (always normalized, positive
denominator), prime fields use :class:`GFElement` residues reduced into
``[0, p)``.  Field objects mint constants, convert integers, and supply a
deterministic sort key.  No float is ever created anywhere downstream.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError

MAX_PRIME = 2**31


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for moduli below 2**31."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class GFElement:
    """A residue modulo a prime, kept reduced into [0, p)."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        self.value = value % modulus
        self.modulus = modulus

    def _same_field(self, other: "GFElement") -> None:
        if self.modulus != other.modulus:
            raise ValueError(f"mixed moduli {self.modulus} and {other.modulus}")

    def __add__(self, other: "GFElement") -> "GFElement":
        self._same_field(other)
        return GFElement(self.value + other.value, self.modulus)

    def __sub__(self, other: "GFElement") -> "GFElement":
        self._same_field(other)
        return GFElement(self.value - other.value, self.modulus)

    def __mul__(self, other: "GFElement") -> "GFElement":
        self._same_field(other)
        return GFElement(self.value * other.value, self.modulus)

    def __truediv__(self, other: "GFElement") -> "GFElement":
        self._same_field(other)
        if other.value == 0:
            raise ZeroDivisionError("division by zero residue")
        return GFElement(self.value * pow(other.value, -1, self.modulus), self.modulus)

    def __neg__(self) -> "GFElement":
        return GFElement(-self.value, self.modulus)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GFElement):
            return NotImplemented
        return self.value == other.value and self.modulus == other.modulus

    def __hash__(self) -> int:
        return hash((self.value, self.modulus))

    def __bool__(self) -> bool:
        return self.value != 0

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"GFElement({self.value}, {self.modulus})"


class RationalField:
    """The rational numbers; elements are ``fractions.Fraction`` values."""

    characteristic = 0
    label = "QQ"

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def from_int(self, k: int) -> Fraction:
        return Fraction(k)

    def sort_key(self, element: Fraction) -> Fraction:
        return element

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("QQ")

    def __repr__(self) -> str:
        return "QQ"


class PrimeField:
    """The field with p elements, p an odd-or-even prime below 2**31."""

    __slots__ = ("p", "_zero", "_one")

    def __init__(self, p: int):
        # the bound first: trial division on a huge modulus does not finish
        if isinstance(p, int) and p >= MAX_PRIME:
            raise ParseError(f"modulus {p} is too large (must be below 2**31)")
        if not isinstance(p, int) or not is_prime(p):
            raise ParseError(f"modulus {p!r} is not prime")
        self.p = p
        self._zero = GFElement(0, p)
        self._one = GFElement(1, p)

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def label(self) -> str:
        return f"Fp:{self.p}"

    def zero(self) -> GFElement:
        return self._zero

    def one(self) -> GFElement:
        return self._one

    def from_int(self, k: int) -> GFElement:
        return GFElement(k, self.p)

    def sort_key(self, element: GFElement) -> int:
        return element.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("Fp", self.p))

    def __repr__(self) -> str:
        return self.label


QQ = RationalField()


def parse_field(text: str):
    """Parse a field spec: ``QQ`` or ``Fp:<prime>``."""
    spec = text.strip()
    if spec.upper() == "QQ":
        return QQ
    lowered = spec.lower()
    if lowered.startswith("fp:"):
        body = spec[3:]
        try:
            p = int(body)
        except ValueError:
            raise ParseError(f"bad prime {body!r} in field spec {text!r}") from None
        return PrimeField(p)
    raise ParseError(f"unknown field spec {text!r} (expected QQ or Fp:<prime>)")
