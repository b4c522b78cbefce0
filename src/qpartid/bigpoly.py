"""Exact dense polynomial arithmetic in q.

Coefficients are Python ints throughout, so every operation is exact at any
size.  IntPoly values are immutable and canonical (no trailing zeros); the
zero polynomial is the empty coefficient sequence and its degree is None.
Since no value can change, a sum or product may return an operand unchanged:
poly_add with a zero operand and poly_mul with a unit operand (coefficients
exactly (1,)) hand back the other operand itself, not a copy.

Packing (Kronecker substitution).  Evaluating at q = 2**(8*width) is a ring
homomorphism, so a polynomial can be carried as one int: pack puts
coefficient i in the little-endian slot i of width bytes, sums and products
of packed ints are the packed sums and products, and unpack reads the slots
back as balanced digits, |c| < 2**(8*width - 1), once for the whole result.
The width must come from a proven bound on every coefficient of that result
(slot_width), never from a guess: a coefficient outside half a slot borrows
from its neighbour and unpacks wrong.  grid_mul packs two bivariate grids
the same way.  A slot of at most 8 bytes moves as a machine word: the cells
are laid into an array of the narrowest word that holds the slot, one
strided slice per row, and the words are cut to the slot's width by one
strided deletion per surplus byte; read back, the slots are widened to
words by one strided byte copy per byte of the slot and read through
memoryview.cast.  Wider slots, a cell wider than its
slot, and every slot on a big-endian host, where the words would not be in
the slots' byte order, go through int.to_bytes and int.from_bytes one cell
at a time.  Both paths give the same ints.  poly_mul is the schoolbook loop,
for the products that are cheaper unpacked.  Callers choose the width and
may add, multiply and compare packed ints, but only this module reads or
writes a slot.
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterable, Sequence

# _WORDS[width] is the type code of the narrowest machine word that holds a
# slot of width bytes, for width <= 8.  Slots are little-endian and the words
# are in the host's byte order, so a big-endian host keeps the table empty.
_WORDS = (
    {width: next(code for code in "BHILQ" if array(code).itemsize >= width) for width in range(1, 9)}
    if sys.byteorder == "little"
    else {}
)


class IntPoly:
    """Dense univariate polynomial over arbitrary-precision integers.

    coeffs[i] is the coefficient of q**i.  Instances are immutable; the
    constructor strips trailing zeros so equal polynomials compare equal.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @property
    def degree(self):
        """Degree of the polynomial, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return format_poly(self)


ZERO = IntPoly()
ONE = IntPoly((1,))


def poly_add(a: IntPoly, b: IntPoly) -> IntPoly:
    ca, cb = a.coeffs, b.coeffs
    if not ca:
        return b
    if not cb:
        return a
    if len(ca) < len(cb):
        ca, cb = cb, ca
    out = list(ca)
    for i, c in enumerate(cb):
        out[i] += c
    return IntPoly(out)


def poly_mul(a: IntPoly, b: IntPoly) -> IntPoly:
    """Exact schoolbook convolution product."""
    ca, cb = a.coeffs, b.coeffs
    if not ca or not cb:
        return ZERO
    if ca == (1,):
        return b
    if cb == (1,):
        return a
    out = [0] * (len(ca) + len(cb) - 1)
    for i, ai in enumerate(ca):
        if ai:
            for j, bj in enumerate(cb):
                out[i + j] += ai * bj
    return IntPoly(out)


def poly_scale(a: IntPoly, c: int) -> IntPoly:
    if c == 0:
        return ZERO
    return IntPoly(x * c for x in a.coeffs)


def poly_shift(a: IntPoly, e: int) -> IntPoly:
    """Multiply by q**e (e >= 0)."""
    if e < 0:
        raise ValueError(f"shift exponent must be >= 0, got {e}")
    if not a.coeffs or e == 0:
        return a
    return IntPoly((0,) * e + a.coeffs)


def poly_substitute_power(a: IntPoly, c: int) -> IntPoly:
    """Return a(q**c): exponent dilation by a factor c >= 1."""
    if c < 1:
        raise ValueError(f"substitution power must be >= 1, got {c}")
    if c == 1 or not a.coeffs:
        return a
    out = [0] * ((len(a.coeffs) - 1) * c + 1)
    for i, ai in enumerate(a.coeffs):
        out[i * c] = ai
    return IntPoly(out)


def grid_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], d: int = 1) -> list[list[int]]:
    """c[i][j] = sum over k, l of a[i - d*k][j - d*l] * b[k][l], in the shape of a.

    a is a rectangular grid and b a grid of rows; every cell of both is a
    nonnegative int.  This is the product A(x, y) * B(x**d, y**d) of the two
    bivariate polynomials whose coefficients they hold, truncated to the
    shape of a, and it costs one integer product (Kronecker substitution in
    two variables).  Cell (i, j) goes to slot i*stride + j, b's at (d*k, d*l),
    with stride = 2*cols - 1, so a row of the product never runs into the
    next one.  No product cell exceeds max(a) * max(b) * (the cells of b that
    reach the shape), so a slot that holds that bound never carries.
    """
    if d < 1:
        raise ValueError(f"dilation must be >= 1, got {d}")
    rows = len(a)
    cols = len(a[0]) if rows else 0
    b = [row[: (cols - 1) // d + 1] for row in b[: (rows - 1) // d + 1]]
    cells_a = [x for row in a for x in row]
    cells_b = [x for row in b for x in row]
    if min(cells_a + cells_b, default=0) < 0:
        raise ValueError("grid_mul takes nonnegative cells only")
    top_a, top_b = max(cells_a, default=0), max(cells_b, default=0)
    bound = top_a * top_b * len(cells_b)
    if not bound:
        return [[0] * cols for _ in range(rows)]
    width = (bound.bit_length() + 7) // 8  # bytes per slot
    stride = 2 * cols - 1
    product = _pack(a, width, 1, stride, top_a) * _pack(b, width, d, d * stride, top_b)
    data = product.to_bytes(max((product.bit_length() + 7) // 8, rows * stride * width), "little")
    return _unpack(data, width, rows, cols, stride)


def slot_width(bound: int) -> int:
    """The fewest bytes per slot that hold every coefficient c with |c| <= bound.

    A slot of w bytes unpacks the balanced digits |c| < 2**(8w - 1), so w is
    the least width with bound < 2**(8w - 1).
    """
    if bound < 0:
        raise ValueError(f"a coefficient bound must be >= 0, got {bound}")
    return bound.bit_length() // 8 + 1


def pack(a: IntPoly, width: int, step: int = 1) -> int:
    """a(q**step) at q = 2**(8*width): coefficient i in slot i*step, width bytes per slot.

    The value is exact whatever the coefficients: negative ones are packed
    apart and subtracted, and the bits of a coefficient past its slot are
    packed again one slot up.  Only unpack needs the coefficients of its
    result bounded.
    """
    cs = a.coeffs
    if not cs:
        return 0
    if min(cs) < 0:
        return _pack_row([c if c > 0 else 0 for c in cs], width, step) - _pack_row(
            [-c if c < 0 else 0 for c in cs], width, step
        )
    return _pack_row(cs, width, step)


def _pack_row(cs: Sequence[int], width: int, step: int) -> int:
    """pack of nonnegative coefficients, one slot-wide digit of each per pass."""
    bits, total, shift, top = 8 * width, 0, 0, max(cs)
    while top >> bits:
        mask = (1 << bits) - 1
        total += _pack(([c & mask for c in cs],), width, step, step * len(cs), mask) << shift
        cs, shift, top = [c >> bits for c in cs], shift + bits, top >> bits
    return total + (_pack((cs,), width, step, step * len(cs), top) << shift)


def unpack(x: int, width: int) -> IntPoly:
    """The polynomial that pack(..., width) packed into x, read with balanced digits.

    Adding half a slot to every slot makes each digit c + 2**(8*width - 1)
    nonnegative and less than a slot, so each slot is read unsigned and the
    half taken off again.  A nonzero top coefficient at slot D puts |x| above
    2**(8*width*D - 1), so the bit length of x bounds the slots to read.  A
    coefficient outside half a slot may carry the biased value one slot
    further; that slot is read too, and the digits borrow as they fall.
    """
    bits = 8 * width
    slots = abs(x).bit_length() // bits + 1
    half = 1 << (bits - 1)
    biased = x + int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")  # half in every slot
    if biased >> (slots * bits):
        biased += half << (slots * bits)
        slots += 1
    data = biased.to_bytes(slots * width, "little")
    return IntPoly([c - half for c in _unpack(data, width, 1, slots, slots)[0]])


def _pack(grid: Sequence[Sequence[int]], width: int, step: int, pitch: int, top: int) -> int:
    """The int whose little-endian width-byte slot i*pitch + j*step holds grid[i][j], zero elsewhere.

    Every cell is a nonnegative int no larger than top.  When top fits a
    slot and the slot fits a word, each row is one strided slice of an array
    of words, cut to width bytes; otherwise each cell is written as bytes,
    and one that spills past its slot fills the step - 1 empty slots after it.
    """
    code = _WORDS.get(width)
    if code is None or top >> (8 * width):
        cell = width * step  # a cell and the step - 1 empty slots after it
        return int.from_bytes(
            b"".join(
                b"".join(x.to_bytes(cell, "little") for x in row) + bytes((pitch - step * len(row)) * width)
                for row in grid
            ),
            "little",
        )
    words, start = array(code, [0]) * (len(grid) * pitch), 0
    for row in grid:
        words[start : start + step * len(row) : step] = array(code, row)
        start += pitch
    data = bytearray(words)
    for size in range(words.itemsize, width, -1):  # cut each word's top byte until width bytes are left
        del data[size - 1 :: size]
    return int.from_bytes(data, "little")


def _unpack(data: bytes, width: int, rows: int, cols: int, pitch: int) -> list[list[int]]:
    """cells[i][j] = the little-endian width-byte slot i*pitch + j of data, read unsigned, for i < rows, j < cols.

    A slot that fits a word is widened to one by a strided byte copy per
    byte of the slot and read through memoryview.cast; a wider one is read
    through int.from_bytes.
    """
    code = _WORDS.get(width)
    if code is None:
        return [
            [int.from_bytes(data[s : s + width], "little") for s in range(i * width, (i + cols) * width, width)]
            for i in range(0, rows * pitch, pitch)
        ]
    size = array(code).itemsize
    count = rows * pitch  # slots to read, the padding after each row's cols included
    if size == width:
        words = memoryview(data)[: count * width].cast(code)
    else:
        wide = bytearray(count * size)
        for byte in range(width):  # widen each slot to a word, its high bytes zero
            wide[byte::size] = data[byte : count * width : width]
        words = memoryview(wide).cast(code)
    return [words[i : i + cols].tolist() for i in range(0, count, pitch)]


def coeff_at(a: IntPoly, n: int) -> int:
    """Coefficient of q**n; zero beyond the degree."""
    if n < 0:
        raise ValueError(f"exponent must be >= 0, got {n}")
    return a.coeffs[n] if n < len(a.coeffs) else 0


def poly_eval_int(a: IntPoly, x: int) -> int:
    """Exact integer evaluation by Horner's rule."""
    acc = 0
    for c in reversed(a.coeffs):
        acc = acc * x + c
    return acc


def format_poly(a: IntPoly) -> str:
    """Render as e.g. '1 + q + 2q^2 + q^3 + q^4'; the zero polynomial is '0'."""
    if not a.coeffs:
        return "0"
    parts = []
    for e, c in enumerate(a.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            var = "q" if e == 1 else f"q^{e}"
            body = var if mag == 1 else f"{mag}{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
