"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

Elements are plain values supporting ``+ - *``, ``==``, ordering and
truthiness: the rationals use ``fractions.Fraction`` (always normalized,
positive denominator), a prime field uses ints in ``[0, p)``.  Field objects
mint constants, convert integers, and supply the two operations where the
fields differ: ``reduce`` (the identity over QQ, ``% p`` over Fp) and ``inv``
(exact on an int too), though the engine's kernels run on integers over
both fields.  No float is ever created anywhere downstream.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import ConfigError, ParseError

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


def element_text(c) -> str:
    """``str(c)``, or ConfigError past the interpreter's integer digit limit."""
    try:
        return str(c)
    except ValueError:
        digits = f"over {sys.get_int_max_str_digits()} digits"
        raise ConfigError(f"coordinate or coefficient too large to print ({digits})") from None


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

    def reduce(self, x: Fraction) -> Fraction:
        return x

    def inv(self, x: Fraction | int) -> Fraction:
        return Fraction(1, x)  # exact for an int x too, where 1 / x is a float

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("QQ")

    def __repr__(self) -> str:
        return "QQ"


class PrimeField:
    """The field with p elements, p a prime below 2**31; elements are ints
    in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        # the bound first: trial division on a huge modulus does not finish
        if isinstance(p, int) and p >= MAX_PRIME:
            raise ParseError(f"modulus {p} is too large (must be below 2**31)")
        if not isinstance(p, int) or not is_prime(p):
            raise ParseError(f"modulus {p!r} is not prime")
        self.p = p

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def label(self) -> str:
        return f"Fp:{self.p}"

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def from_int(self, k: int) -> int:
        return k % self.p

    def reduce(self, x: int) -> int:
        return x % self.p

    def inv(self, x: int) -> int:
        if not x % self.p:
            raise ZeroDivisionError("division by zero residue")
        return pow(x, -1, self.p)

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
