"""Gaussian (q-binomial) polynomials and exact binomial helpers.

gaussian(m, p) is the q-binomial bracket [m+p choose m]: the generating
polynomial, in q, of partitions fitting inside an m-by-p box.  It is built
division-free by the Pascal-type recurrence

    bracket(a, b) = bracket(a-1, b-1) + q**b * bracket(a-1, b)

with bracket(a, 0) = bracket(a, a) = 1, memoized on (a, b) and filled
bottom-up, so no call recurses.  The product definition
(bracket times prod(1-q^j) equals prod(1-q^{p+j})) is checked in the test
suite as an invariant rather than used for construction.
"""

from __future__ import annotations

import math

from .bigpoly import IntPoly, ONE, ZERO, poly_add, poly_mul, poly_shift, poly_substitute_power

_bracket_memo: dict[tuple[int, int], IntPoly] = {}


def _bracket(top: int, bottom: int) -> IntPoly:
    """[top choose bottom]_q; zero when bottom < 0 or bottom > top."""
    if bottom < 0 or bottom > top:
        return ZERO
    if bottom == 0 or bottom == top:
        return ONE
    cached = _bracket_memo.get((top, bottom))
    if cached is not None:
        return cached
    # fill, row by row, every (t, i) with 0 < i < t that the recurrence reaches
    # from (top, bottom), so depth never grows with top
    memo = _bracket_memo
    for i in range(1, bottom + 1):
        for t in range(i + 1, i + top - bottom + 1):
            if (t, i) not in memo:
                left = ONE if i == 1 else memo[(t - 1, i - 1)]
                right = ONE if t - 1 == i else memo[(t - 1, i)]
                memo[(t, i)] = poly_add(left, poly_shift(right, i))
    return memo[(top, bottom)]


def gaussian(m: int, p: int) -> IntPoly:
    """The Gaussian polynomial bracket(m+p, m): degree m*p, coefficients > 0."""
    if m < 0 or p < 0:
        raise ValueError(f"gaussian requires m, p >= 0, got ({m}, {p})")
    return _bracket(m + p, m)


def bracket_base(top: int, bottom: int, base: int = 1) -> IntPoly:
    """bracket(top, bottom) read in base q**base.

    Out-of-range brackets (bottom < 0, bottom > top, top < 0) are the zero
    polynomial, so summations can be written with unconditional terms.
    """
    if base < 1:
        raise ValueError(f"base must be >= 1, got {base}")
    if bottom < 0 or top < 0 or bottom > top:
        return ZERO
    return poly_substitute_power(_bracket(top, bottom), base)


def binom2(k: int) -> int:
    """k choose 2 = k*(k-1)/2 for k >= 0."""
    if k < 0:
        raise ValueError(f"binom2 requires k >= 0, got {k}")
    return k * (k - 1) // 2


def binom(n: int, k: int) -> int:
    """Exact integer binomial C(n, k) by math.comb.

    Zero when k < 0, k > n or n < 0.  Independent of the polynomial layer so
    it can serve as an oracle for q=1 evaluations.
    """
    if k < 0 or k > n or n < 0:
        return 0
    return math.comb(n, k)


def gaussian_symmetry_check(m: int, p: int) -> bool:
    """True iff gaussian(m, p) and gaussian(p, m) agree as polynomials."""
    if m < 0 or p < 0:
        raise ValueError(f"requires m, p >= 0, got ({m}, {p})")
    return gaussian(m, p) == gaussian(p, m)


def gaussian_product_form_check(m: int, p: int) -> bool:
    """Division-free restatement of the product definition.

    Checks gaussian(m, p) * prod_{j=1..m}(1 - q^j) == prod_{j=1..m}(1 - q^{p+j}).
    """
    lhs = gaussian(m, p)
    rhs = ONE
    for j in range(1, m + 1):
        lhs = poly_mul(lhs, IntPoly([1] + [0] * (j - 1) + [-1]))
        rhs = poly_mul(rhs, IntPoly([1] + [0] * (p + j - 1) + [-1]))
    return lhs == rhs
