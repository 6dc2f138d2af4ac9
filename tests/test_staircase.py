"""Partition enumeration, staircase corners, integer bound, witnesses.

Independent oracles: a dynamic-programming partition counter, a boundary
scan that finds corner nodes straight from the box set, and the
integer-square-root closed form for the bound.
"""

from math import isqrt

import pytest
from hypothesis import given, strategies as st

from punctual.poly import Monomial
from punctual.staircase import (
    Corners,
    Partition,
    attaining_partition,
    corners,
    distinct_part_table,
    monomial_ideal_of,
    partition_from_boxes,
    partitions_of,
    socle_bound,
    staircase_witness,
)


def partition_count_oracle(n: int) -> int:
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def corner_oracle(parts):
    """Corner nodes scanned directly from the box set of the diagram."""
    boxes = {(i, j) for j, width in enumerate(parts) for i in range(width)}
    outer, inner = set(), set()
    for a in range(parts[0] + 2):
        for b in range(len(parts) + 2):
            if (a, b) in boxes:
                continue
            left_in = a == 0 or (a - 1, b) in boxes
            below_in = b == 0 or (a, b - 1) in boxes
            if left_in and below_in:
                outer.add((a, b))
            if (
                a >= 1
                and b >= 1
                and (a - 1, b) not in boxes
                and (a, b - 1) not in boxes
                and (a - 1, b - 1) in boxes
            ):
                inner.add((a, b))
    return outer, inner


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(())
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    p = Partition((3, 1))
    assert p.size == 4 and p.length == 2 and p.distinct_parts == 2
    assert str(p) == "(3,1)"


def test_distinct_part_table_small():
    assert distinct_part_table(0) == [[1]]
    assert distinct_part_table(4) == [[1], [0, 1], [0, 2], [0, 2, 1], [0, 3, 2]]
    with pytest.raises(ValueError):
        distinct_part_table(-1)


def test_partitions_of_small():
    assert [p.parts for p in partitions_of(3)] == [(3,), (2, 1), (1, 1, 1)]
    assert len(list(partitions_of(4))) == 5
    assert len(list(partitions_of(10))) == 42
    with pytest.raises(ValueError):
        list(partitions_of(0))


def test_partitions_reverse_lexicographic_and_complete():
    for n in range(1, 16):
        parts = [p.parts for p in partitions_of(n)]
        assert parts == sorted(parts, reverse=True)
        assert len(parts) == len(set(parts)) == partition_count_oracle(n)
        assert all(sum(p) == n for p in parts)


def test_partition_counts_to_thirty():
    for n in range(16, 31):
        assert sum(1 for _ in partitions_of(n)) == partition_count_oracle(n)


def test_monomial_ideal_of_small_partitions():
    assert set(monomial_ideal_of(Partition((1,)))) == {Monomial(1, 0), Monomial(0, 1)}
    assert set(monomial_ideal_of(Partition((2, 1)))) == {
        Monomial(2, 0),
        Monomial(1, 1),
        Monomial(0, 2),
    }
    assert set(monomial_ideal_of(Partition((3,)))) == {Monomial(3, 0), Monomial(0, 1)}


def test_generator_count_is_distinct_parts_plus_one():
    for n in range(1, 13):
        for p in partitions_of(n):
            assert len(monomial_ideal_of(p)) == p.distinct_parts + 1


def test_corners_pinned_cases():
    assert corners(Partition((1, 1, 1))).inner_count == 1
    assert corners(Partition((2, 1))).inner_count == 2
    for k in (2, 3, 5, 7):
        assert corners(staircase_witness(k)).inner_count == k


def test_corners_match_box_oracle():
    for n in range(1, 13):
        for p in partitions_of(n):
            c = corners(p)
            outer, inner = corner_oracle(p.parts)
            assert set(c.outer) == outer
            assert set(c.inner) == inner
            assert c.outer_count == c.inner_count + 1


def test_figure_staircase():
    # staircase with rows (9, 9, 5, 3, 1, 1): five generators, four inner corners
    c = corners(Partition((9, 9, 5, 3, 1, 1)))
    assert set(c.outer) == {(0, 6), (1, 4), (3, 3), (5, 2), (9, 0)}
    assert set(c.inner) == {(1, 6), (3, 4), (5, 3), (9, 2)}


def test_boxes_match_standard_monomials():
    p = Partition((2, 1))
    assert {(m.a, m.b) for m in p.boxes()} == {(0, 0), (1, 0), (0, 1)}
    assert partition_from_boxes(p.boxes()) == p


def test_partition_from_boxes_rejects_non_staircase():
    with pytest.raises(ValueError):
        partition_from_boxes([Monomial(1, 0)])  # missing the origin box
    with pytest.raises(ValueError):
        partition_from_boxes([Monomial(0, 0), Monomial(0, 2)])


def test_socle_bound_examples_and_closed_form():
    assert socle_bound(1) == 1
    assert socle_bound(3) == 2
    assert socle_bound(10) == 4
    for n in range(1, 1001):
        assert socle_bound(n) == (isqrt(1 + 8 * n) - 1) // 2
    with pytest.raises(ValueError):
        socle_bound(0)


def test_staircase_witness():
    assert staircase_witness(1).parts == (1,)
    w = staircase_witness(2)
    assert w.parts == (2, 1) and w.size == 3 and corners(w).inner_count == 2
    w = staircase_witness(4)
    assert w.parts == (4, 3, 2, 1) and w.size == 10
    assert corners(w).inner_count == 4 == socle_bound(10)
    with pytest.raises(ValueError):
        staircase_witness(0)


def test_attaining_partition_reaches_bound():
    for n in range(1, 60):
        p = attaining_partition(n)
        assert p.size == n
        assert corners(p).inner_count == socle_bound(n)


def test_witness_is_unique_distinct_parts_attainer():
    # among partitions of b(b+1)/2 with b parts, all distinct, only the staircase
    for b in (2, 3, 4):
        size = b * (b + 1) // 2
        attainers = [
            p
            for p in partitions_of(size)
            if p.length == b and p.distinct_parts == b == corners(p).inner_count
        ]
        assert attainers == [staircase_witness(b)]


@given(st.integers(1, 25))
def test_max_inner_count_equals_bound(n):
    assert max(corners(p).inner_count for p in partitions_of(n)) == socle_bound(n)


def test_corners_type():
    c = corners(Partition((3, 1)))
    assert isinstance(c, Corners)
    assert c.outer_count == 3 and c.inner_count == 2
