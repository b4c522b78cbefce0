"""Gaussian polynomial construction and its defining properties."""

import pytest

from qpartid.bigpoly import IntPoly, ONE, ZERO, coeff_at, poly_eval_int
from qpartid.partitions import PartitionSpec, count_P_star, enumerate_partitions
from qpartid.qbinom import (
    binom,
    binom2,
    bracket_base,
    gaussian,
    gaussian_product_form_check,
    gaussian_symmetry_check,
)


def box_weight_counts(m, p):
    """Oracle: enumerate partitions fitting in an m-by-p box, bucket by weight."""
    counts = [0] * (m * p + 1)
    for n in range(m * p + 1):
        parts = enumerate_partitions(PartitionSpec(n, max_parts=m, max_part=p))
        counts[n] = len(parts)
    return counts


def test_gaussian_2_2_matches_box_enumeration():
    assert list(gaussian(2, 2).coeffs) == box_weight_counts(2, 2) == [1, 1, 2, 1, 1]


def test_gaussian_trivial_shapes():
    for m in range(6):
        assert gaussian(m, 0) == ONE
    for p in range(6):
        assert gaussian(1, p) == IntPoly([1] * (p + 1))
    with pytest.raises(ValueError):
        gaussian(-1, 2)


def test_bracket_base_reduction_and_out_of_range():
    assert bracket_base(4, 2) == gaussian(2, 2)
    assert bracket_base(3, 5) == ZERO
    assert bracket_base(3, -1) == ZERO
    assert bracket_base(-2, -3) == ZERO
    assert bracket_base(2, 1, base=3) == IntPoly([1, 0, 0, 1])
    with pytest.raises(ValueError):
        bracket_base(3, 5, base=0)  # the base is checked before the range
    with pytest.raises(ValueError):
        bracket_base(2, 1, 0)


def test_binom2():
    assert binom2(0) == 0
    assert binom2(1) == 0
    assert binom2(5) == 10
    with pytest.raises(ValueError):
        binom2(-1)


def test_binom_against_math_comb():
    # Pascal's triangle written out by hand, rows n = 0..7
    rows = [
        [1],
        [1, 1],
        [1, 2, 1],
        [1, 3, 3, 1],
        [1, 4, 6, 4, 1],
        [1, 5, 10, 10, 5, 1],
        [1, 6, 15, 20, 15, 6, 1],
        [1, 7, 21, 35, 35, 21, 7, 1],
    ]
    for n, row in enumerate(rows):
        assert [binom(n, k) for k in range(n + 1)] == row
    assert binom(10, 3) == 120
    assert binom(20, 10) == 184756
    # values past 64 bits must stay exact
    assert binom(100, 50) == 100891344545564193334812497256
    # out of range: k < 0, k > n or n < 0 is zero
    for n, k in ((0, -1), (3, -2), (0, 1), (3, 4), (5, 9), (-1, 0), (-3, 2), (-4, -1)):
        assert binom(n, k) == 0, (n, k)


def test_symmetry():
    assert gaussian_symmetry_check(2, 3)
    assert gaussian_symmetry_check(0, 7)
    assert gaussian_symmetry_check(5, 5)
    for m in range(7):
        for p in range(7):
            assert gaussian_symmetry_check(m, p)


def test_degree_palindrome_and_q1_value():
    for m in range(7):
        for p in range(7):
            g = gaussian(m, p)
            d = m * p
            assert (g.degree or 0) == d
            for i in range(d + 1):
                assert coeff_at(g, i) == coeff_at(g, d - i)
            assert poly_eval_int(g, 1) == binom(m + p, m)


def test_coefficients_count_box_partitions():
    for m in range(6):
        for p in range(6):
            g = gaussian(m, p)
            for n in range(m * p + 1):
                assert coeff_at(g, n) == count_P_star(n, m, p)


def test_product_form():
    for m in range(7):
        for p in range(7):
            assert gaussian_product_form_check(m, p)
