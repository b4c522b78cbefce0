"""Gaussian polynomial construction and its defining properties."""

import math

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
    for n in range(0, 40):
        for k in range(-2, n + 3):
            expected = math.comb(n, k) if 0 <= k <= n else 0
            assert binom(n, k) == expected
    # values past 64 bits must stay exact
    assert binom(100, 50) == math.comb(100, 50)


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
