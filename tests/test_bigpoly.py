"""Exact polynomial arithmetic."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from qpartid.bigpoly import (
    IntPoly,
    ONE,
    ZERO,
    coeff_at,
    format_poly,
    grid_mul,
    pack,
    poly_add,
    poly_eval_int,
    poly_mul,
    poly_scale,
    poly_shift,
    poly_substitute_power,
    slot_width,
    unpack,
)

P_1_PLUS_Q = IntPoly([1, 1])


def is_canonical(p):
    return not p.coeffs or p.coeffs[-1] != 0


def random_poly(rng, max_degree=4, bound=3):
    degree = rng.randint(0, max_degree)
    return IntPoly([rng.randint(-bound, bound) for _ in range(degree + 1)])


def test_poly_add_examples():
    assert poly_add(P_1_PLUS_Q, IntPoly([1, -1])) == IntPoly([2])
    p = IntPoly([3, 0, 2])
    assert poly_add(p, ZERO) == p
    assert poly_add(IntPoly([1, 0, 2]), IntPoly([0, 1, 1])) == IntPoly([1, 1, 3])


def test_poly_mul_examples():
    assert poly_mul(P_1_PLUS_Q, P_1_PLUS_Q) == IntPoly([1, 2, 1])
    assert poly_mul(IntPoly([5, 7]), ZERO) == ZERO
    assert poly_mul(IntPoly([1, 1, 1]), IntPoly([1, -1])) == IntPoly([1, 0, 0, -1])


def test_poly_scale_examples():
    assert poly_scale(P_1_PLUS_Q, 2) == IntPoly([2, 2])
    assert poly_scale(IntPoly([4, 5, 6]), 0) == ZERO
    assert poly_scale(IntPoly([1, -1]), -1) == IntPoly([-1, 1])


def test_poly_shift_examples():
    assert poly_shift(P_1_PLUS_Q, 2) == IntPoly([0, 0, 1, 1])
    p = IntPoly([2, 3])
    assert poly_shift(p, 0) == p
    assert poly_shift(ZERO, 5) == ZERO
    with pytest.raises(ValueError):
        poly_shift(p, -1)


def test_poly_substitute_power_examples():
    assert poly_substitute_power(IntPoly([1, 1, 1]), 2) == IntPoly([1, 0, 1, 0, 1])
    p = IntPoly([2, 0, 5])
    assert poly_substitute_power(p, 1) == p
    assert poly_substitute_power(IntPoly([1, 2]), 3) == IntPoly([1, 0, 0, 2])
    with pytest.raises(ValueError):
        poly_substitute_power(p, 0)


def test_coeff_at_examples():
    p = IntPoly([1, 0, 3])
    assert coeff_at(p, 2) == 3
    assert coeff_at(p, 7) == 0
    assert coeff_at(ZERO, 0) == 0
    with pytest.raises(ValueError):
        coeff_at(p, -1)


def test_poly_eval_int_examples():
    p = IntPoly([1, 1, 2, 1, 1])
    # sum of coefficients is the oracle for evaluation at 1
    assert poly_eval_int(p, 1) == sum(p.coeffs) == 6
    assert poly_eval_int(IntPoly([7, 1, 4]), 0) == 7
    assert poly_eval_int(IntPoly([1, -1]), -1) == 2
    assert poly_eval_int(ZERO, 12345) == 0


def test_canonical_form_and_degree():
    assert IntPoly([1, 2, 0, 0]) == IntPoly([1, 2])
    assert IntPoly([0, 0]).degree is None
    assert IntPoly([0, 0]).is_zero()
    assert IntPoly([5]).degree == 0
    assert IntPoly([0, 0, 1]).degree == 2


def test_immutability():
    p = IntPoly([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = (9,)


def test_ring_axioms_on_random_small_polys():
    rng = random.Random(20260808)
    for _ in range(300):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert poly_add(a, b) == poly_add(b, a)
        assert poly_add(poly_add(a, b), c) == poly_add(a, poly_add(b, c))
        assert poly_mul(a, b) == poly_mul(b, a)
        assert poly_mul(poly_mul(a, b), c) == poly_mul(a, poly_mul(b, c))
        assert poly_mul(a, poly_add(b, c)) == poly_add(poly_mul(a, b), poly_mul(a, c))
        for out in (
            poly_add(a, b),
            poly_mul(a, b),
            poly_scale(a, rng.randint(-3, 3)),
            poly_shift(a, rng.randint(0, 3)),
            poly_substitute_power(a, rng.randint(1, 3)),
        ):
            assert is_canonical(out)


def schoolbook_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def schoolbook_mul(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# coefficient lists, trailing zeros allowed so the constructor must strip them
coeff_lists = st.lists(st.integers(-(10**30), 10**30) | st.integers(-2, 2), max_size=6)
operands = st.one_of(
    st.just(ZERO),
    st.just(ONE),
    st.builds(IntPoly, st.sampled_from([(), (0,), (1,), (1, 0), (0, 0, 0)])),
    st.builds(IntPoly, coeff_lists),
)


@settings(max_examples=400, deadline=None)
@given(a=operands, b=operands)
def test_add_and_mul_match_the_schoolbook_loops(a, b):
    # a zero or unit operand may be handed back as the result itself; the
    # result must still equal the reference loop and be canonical
    for op, ref in ((poly_add, schoolbook_add), (poly_mul, schoolbook_mul)):
        for x, y in ((a, b), (b, a)):
            out = op(x, y)
            want = IntPoly(ref(list(x.coeffs), list(y.coeffs)))
            assert is_canonical(out)
            assert out == want and out.coeffs == want.coeffs
            assert hash(out) == hash(want)
    if a.is_zero() and not b.is_zero():
        assert poly_add(a, b) is b and poly_add(b, a) is b
    if a.coeffs == (1,) and b.coeffs not in ((), (1,)):
        assert poly_mul(a, b) is b and poly_mul(b, a) is b


# signed operands longer and shorter than the kernels a case packs, with
# coefficients at the edges of one, two and eight bytes
EDGE_COEFFS = [s * (2**k + e) for k in (7, 8, 15, 63, 64) for e in (-1, 0) for s in (1, -1)]
long_operands = st.one_of(
    st.just(ZERO),
    st.just(ONE),
    st.builds(
        IntPoly,
        st.lists(
            st.integers(-3, 3) | st.integers(-(10**20), 10**20) | st.sampled_from(EDGE_COEFFS),
            max_size=40,
        ),
    ),
)


def product_width(a, b):
    # no coefficient of a*b exceeds max|a| * max|b| * (the shorter length)
    terms = min(len(a.coeffs), len(b.coeffs))
    return slot_width(max(map(abs, a.coeffs), default=0) * max(map(abs, b.coeffs), default=0) * terms)


@settings(max_examples=300, deadline=None)
@given(a=long_operands, b=long_operands)
@example(a=IntPoly([1] * 15), b=IntPoly([-1] * 16))
# 32 * 32**2 = 2**15 is half of two bytes, so its product needs a third
@example(a=IntPoly([32] * 32), b=IntPoly([32] * 32))
@example(a=IntPoly([-32] * 32), b=IntPoly([32] * 32))
def test_packed_product_matches_the_schoolbook_loop(a, b):
    want = poly_mul(a, b)
    assert want == IntPoly(schoolbook_mul(list(a.coeffs), list(b.coeffs)))
    w = product_width(a, b)
    out = unpack(pack(a, w) * pack(b, w), w)
    assert out == want and is_canonical(out)


def test_a_product_packed_one_byte_too_narrow_unpacks_wrong():
    # the middle coefficient 32 * 32**2 = 2**15 is one past the edge of two bytes
    a = b = IntPoly([32] * 32)
    w = product_width(a, b)
    assert w == 3
    assert unpack(pack(a, w - 1) * pack(b, w - 1), w - 1) != poly_mul(a, b)


@pytest.mark.parametrize("width", [1, 2, 3, 8, 9])
def test_unpack_reads_balanced_digits_out_to_the_edge_of_a_slot(width):
    edge = 2 ** (8 * width - 1) - 1
    # the edge is the largest coefficient a width holds: one more needs a byte more
    assert slot_width(edge) == width
    assert slot_width(edge + 1) == width + 1
    for coeffs in (
        [edge],
        [-edge],
        [edge, -edge, 0, edge],
        [-edge, 0, 0, -edge],
        [0, 1, -1, edge],
        [-1] * 5,
        [edge] * 5 + [-edge],
        [1, -edge, edge - 1, -(edge - 1)],
    ):
        a = IntPoly(coeffs)
        for step in (1, 3):
            dilated = poly_substitute_power(a, step)
            x = pack(a, width, step)
            assert x == poly_eval_int(dilated, 2 ** (8 * width))
            assert unpack(x, width) == dilated
    # one past the edge is read as a digit of the other sign, with a carry
    assert unpack(pack(IntPoly([edge + 1]), width), width) != IntPoly([edge + 1])


@settings(max_examples=200, deadline=None)
@given(
    a=long_operands,
    b=long_operands,
    c=long_operands,
    width=st.integers(1, 3),
    step=st.integers(1, 3),
)
def test_pack_is_exact_evaluation_and_a_ring_map(a, b, c, width, step):
    # pack evaluates any coefficients exactly, whatever the width; the
    # packed a*b + c unpacks at the width its own bound sets
    for p in (a, b, c):
        assert pack(p, width, step) == poly_eval_int(poly_substitute_power(p, step), 2 ** (8 * width))
    want = poly_add(IntPoly(schoolbook_mul(list(a.coeffs), list(b.coeffs))), c)
    bound = max(map(abs, want.coeffs), default=0)
    w = slot_width(bound)
    assert unpack(pack(a, w) * pack(b, w) + pack(c, w), w) == want


def test_slot_width_rejects_a_negative_bound():
    with pytest.raises(ValueError):
        slot_width(-1)


def test_substitute_preserves_value_at_one():
    rng = random.Random(77)
    for _ in range(100):
        a = random_poly(rng)
        c = rng.randint(1, 4)
        assert poly_eval_int(poly_substitute_power(a, c), 1) == poly_eval_int(a, 1)


def test_format_poly():
    assert format_poly(IntPoly([1, 1, 2, 1, 1])) == "1 + q + 2q^2 + q^3 + q^4"
    assert format_poly(ZERO) == "0"
    assert format_poly(IntPoly([-1, 0, 2])) == "-1 + 2q^2"
    assert format_poly(IntPoly([0, -1])) == "-q"



def schoolbook_grid_mul(a, b, d):
    """c[i][j] = sum of a[i - d*k][j - d*l] * b[k][l], in the shape of a, term by term."""
    rows, cols = len(a), len(a[0]) if a else 0
    out = [[0] * cols for _ in range(rows)]
    for k, row in enumerate(b):
        for l, y in enumerate(row):
            for i in range(d * k, rows):
                for j in range(d * l, cols):
                    out[i][j] += a[i - d * k][j - d * l] * y
    return out


# 2**k - 1 fills k bits and 2**k needs one more; k = 8 and 64 straddle one byte
# and eight, so sums of them land exactly where a slot one bit
# narrower would carry into its neighbour
EDGE_CELLS = [2**k + e for k in (7, 8, 16, 63, 64, 100) for e in (-1, 0)]
grid_cells = st.integers(0, 3) | st.sampled_from(EDGE_CELLS)


# rectangular grids of 0-5 rows by 0-5 columns, the empty grid included
grids = st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(
    lambda shape: st.lists(
        st.lists(grid_cells, min_size=shape[1], max_size=shape[1]), min_size=shape[0], max_size=shape[0]
    )
)


@settings(max_examples=300, deadline=None)
@given(a=grids, b=grids, d=st.integers(1, 4))
@example(a=[], b=[[1]], d=1)
@example(a=[[5]], b=[], d=1)
@example(a=[[7]], b=[[9]], d=1)
@example(a=[[0, 0], [0, 0]], b=[[0, 3]], d=2)
@example(a=[[128, 128]], b=[[1, 1]], d=1)  # 256 needs a ninth bit
@example(a=[[2**32, 2**32]], b=[[2**31, 2**31]], d=1)  # 2**64 needs a ninth byte
@example(a=[[2**64 - 1] * 5] * 5, b=[[2**64 - 1] * 2] * 2, d=4)
def test_grid_mul_matches_the_schoolbook_convolution(a, b, d):
    assert grid_mul(a, b, d) == schoolbook_grid_mul(a, b, d)


def test_grid_mul_rejects_negative_cells_and_dilations_below_one():
    with pytest.raises(ValueError):
        grid_mul([[1, -1]], [[1]])
    with pytest.raises(ValueError):
        grid_mul([[1]], [[1]], 0)
