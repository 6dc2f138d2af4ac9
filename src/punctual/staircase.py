"""Partitions as staircase diagrams of monomial ideals.

A partition's boxes are the standard monomials of its monomial ideal:
part j+1 counts boxes in row j (powers of y index rows).  Outer corners
of the staircase are the minimal generators, inner corners sit one step
in from consecutive outer corners, and there is always exactly one more
outer corner than inner.  The inner corner count is the number of
distinct part sizes, so the census of n by that count is read off a
generating-function table rather than enumerated.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .poly import Monomial


class Partition(NamedTuple("Partition", [("parts", tuple)])):
    """A weakly decreasing tuple of positive parts."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, parts: tuple[int, ...]):
        if not parts:
            raise ValueError("partition needs at least one part")
        if any(p < 1 for p in parts):
            raise ValueError("parts must be positive")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError("parts must be weakly decreasing")
        return super().__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def distinct_parts(self) -> int:
        return len(set(self.parts))

    def boxes(self) -> list[Monomial]:
        """Standard monomials under the staircase: x^i y^j with i < parts[j]."""
        return [Monomial(i, j) for j, part in enumerate(self.parts) for i in range(part)]

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


class Corners(NamedTuple):
    """Outer corners (minimal generators) and inner corners of a staircase."""

    outer: tuple[tuple[int, int], ...]
    inner: tuple[tuple[int, int], ...]

    @property
    def outer_count(self) -> int:
        return len(self.outer)

    @property
    def inner_count(self) -> int:
        return len(self.inner)


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n, reverse-lexicographic, each exactly once."""
    if n < 1:
        raise ValueError("partitions are enumerated for n >= 1")

    def descend(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield Partition(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from descend(remaining - part, part, prefix + (part,))

    yield from descend(n, n, ())


def distinct_part_table(hi: int) -> list[list[int]]:
    """Row s (0 <= s <= hi) lists at index k the number of partitions of s
    with exactly k distinct part sizes, up to its last nonzero entry.

    The coefficient table of prod_{i>=1} (1 + t q^i / (1 - q^i)), one part
    size i at a time: tail[s] counts the partitions of s whose largest part
    is i, either one i on a partition of s - i with smaller parts (k - 1
    sizes) or one more i on a partition already in tail[s - i], so
    tail[s][k] = table[s-i][k-1] + tail[s-i][k], then table[s] += tail[s].

    While building, a row is one integer with a fixed-width field per k
    (field k at bit k*bits), so adding rows is one integer addition and
    raising k is one shift.  Every field counts partitions of some s <= hi,
    hence is at most p(hi) < 2**bits, and no field carries into the next.
    """
    if hi < 0:
        raise ValueError("the table is defined for hi >= 0")
    partition_counts = [1] + [0] * hi
    for part in range(1, hi + 1):
        for total in range(part, hi + 1):
            partition_counts[total] += partition_counts[total - part]
    bits = partition_counts[hi].bit_length()
    table = [1] + [0] * hi  # the empty partition has no part sizes
    for i in range(1, hi + 1):
        smaller = table[:]  # partitions with parts < i
        tail = [0] * i
        for s in range(i, hi + 1):
            tail.append((smaller[s - i] << bits) + tail[s - i])
            table[s] += tail[s]
    field = (1 << bits) - 1
    rows = []
    for packed in table:
        row = []
        while packed:
            row.append(packed & field)
            packed >>= bits
        rows.append(row)
    return rows


def monomial_ideal_of(partition: Partition) -> tuple[Monomial, ...]:
    """Minimal generators of the staircase's monomial ideal.

    One generator per step of the staircase (x^parts[j] * y^j whenever
    row j is strictly shorter than row j-1, including j = 0) plus the
    pure power y^length.
    """
    parts = partition.parts
    gens = [Monomial(parts[0], 0)]
    for j in range(1, len(parts)):
        if parts[j] < parts[j - 1]:
            gens.append(Monomial(parts[j], j))
    gens.append(Monomial(0, len(parts)))
    return tuple(gens)


def corners(partition: Partition) -> Corners:
    """Outer and inner corner coordinates of the staircase boundary.

    Outer corners are the generator exponents sorted by increasing
    y-coordinate; the inner corner between consecutive outer corners
    (a1, b1), (a2, b2) is (a1, b2).
    """
    outer = [(m.a, m.b) for m in monomial_ideal_of(partition)]
    outer.sort(key=lambda c: c[1])
    inner = tuple(
        (outer[i][0], outer[i + 1][1]) for i in range(len(outer) - 1)
    )
    result = Corners(outer=tuple(outer), inner=inner)
    if result.outer_count != result.inner_count + 1:
        raise AssertionError("staircase corner counts out of step")
    if result.inner_count != partition.distinct_parts:
        raise AssertionError("inner corners disagree with distinct part count")
    return result


def socle_bound(n: int) -> int:
    """Largest k with k*(k+1)/2 <= n, by pure integer arithmetic.

    Flooring a floating square root invites an off-by-one exactly at the
    triangular numbers, so no square root is taken anywhere.
    """
    if n < 1:
        raise ValueError("bound is defined for n >= 1")
    k = 1
    while (k + 1) * (k + 2) // 2 <= n:
        k += 1
    return k


def attaining_partition(n: int) -> Partition:
    """A partition of n whose inner corner count meets socle_bound(n).

    Start from the staircase (b, b-1, ..., 1) for the bound b, whose inner
    corner count is exactly b, and absorb the excess into the largest
    part; all parts stay distinct, so the count is kept.
    """
    b = socle_bound(n)
    excess = n - b * (b + 1) // 2
    parts = (b + excess,) + tuple(range(b - 1, 0, -1))
    return Partition(parts)
