"""Every verified identity, encoded as an executable exact check.

Each identity lives in a registry entry carrying its parameter names, a
default verification grid and a prepare hook.  A family runs over its grid
in two steps (_run_grid): the hook is handed the grid's values per axis,
builds every row the grid reaches to the grid's extent and binds them in
locals, and then one pass over the grid points reads each case's sides
from those rows.  A case's sides are its verdict's key: the verdict
(passed, lhs_hash, rhs_hash, first_mismatch) is worked out once per
distinct sides in a family run and shared by every case with those sides.
The run (CaseRun) keeps each distinct verdict once and one verdict number
per case, and makes a case's CaseResult, the family's names, the case's
values and that verdict, only when it is read.  A grid's domain is checked
once per axis, before anything is built, and one case alone is the run of
its one-point grid (evaluate_case); the public one-case readers
q_identity_sides and parity_sum_sides return the sides that run reads.
Checks build both sides independently and compare exactly, in three layers
that share no evaluator:

* q-polynomial: exact q-binomial brackets.  The single sums are rows of
  _Q_SUMS over two bracket kernels U and V, read by _q_reader.  Each side is
  summed as one int, with every kernel packed at q = 2**(8*width) (see
  bigpoly), so a term costs one integer product, and the side is unpacked
  once, for its digest and a first mismatch.  The double sums come from one
  triangle theorem: for any sequence F(0..n),
      sum_{k+l <= n} (-1)^(k or l) F(k+l) q^(b*C(k,2)) [m+1, k]_b [m+l, m]_b = F(0),
  read as sum_j F(j) G_j (_diagonal_sum), where the diagonal G_j sums the
  kernel products V_k U_l over k + l = j, packed in the same way, and a case
  visits only the nonzero diagonals, whose pairs (j, G_j) its prepare
  binds.  resdbl1-4 are its instances with
      F(j) = q^(a*C(n-j,2)) [p+n-j, p]_c  (resdbl1: sign on k, resdbl2: on l)
      F(j) = q^(a*C(n-j,2)) [p, n-j]_c    (resdbl3: sign on k, resdbl4: on l),
  the parity corollaries 2.4 and 3.4 are the even and odd halves of resdbl2
  and resdbl3 at b = c = 1, and f_theorem checks stock sequences F.  Each of
  these families' prepares binds its F rows and diagonal rows, and its cases
  sum in place from them, except that resdbl1-4 group their (m, b) by equal
  nonzero diagonals and sum each group once per (p, a, c, n), so a case is
  one lookup; triangle_sum is the same sum for a caller's F.
  Where G_0 = 1 is the only nonzero diagonal (resdbl1-4, f_theorem,
  triangle_sum) the sum is one poly_mul that passes F(0) through; a parity
  half has many nonzero diagonals, so its prepare packs F and them, and a
  half is summed as packed ints and unpacked only when it differs from its
  right side.
* counting: exact partition counts, read from the P and Q tables that each
  family's prepare fills once for its own grid (partitions.count_tables).
  The dilated, signed 2-D convolutions are rows of _COUNT_SUMS.  At one p a
  side over every (n, m) is one grid g[n][m]: a row side is the coefficient
  table of A(x, y) B(x^d, y^d), built by packed integer products
  (bigpoly.grid_mul), a kernel alone (delta and zero among them) its kernel
  table.  _count_sums reads both sides of a case from those grids, and
  genfun_table expands the generating functions into integer tables.  Nine
  _COUNT_SUMS rows are _Q_SUMS rows read over count kernels (see the count
  section); only theorem2 and qstar_relation keep spec rows of their own.
  Euler's two convolutions, pn_from_q and qn_double_sum, are the two rows of
  _SERIES_SUMS, read by _series_sums over series expanded from products.
* combinatorial at q = 1: big-integer binomials that never touch the
  polynomial layer.  Each row of _COMB_SUMS names the q row it specialises:
  comb01-15 and comb23-26 a _Q_SUMS row and a residue r, read by _comb_side
  at index d*n + r; comb16-22 the _RESDBL row, or the half of a _COROLLARIES
  row, at a = b = c = 1, read as sum_j F_{n-j} g_j over the nonzero integer
  diagonals g_j, which comb16-19 sum once per m with equal diagonals.

A side of every layer is a kernel name or a row; delta (1 at index 0, else
0) and, on the count side, zero are kernels like any other, so no reader
has a case of its own for them.  Every exact row a q or q = 1 case reads
(the kernels and their coefficient sums, the diagonals, the resdbl F rows,
the binomial rows) is a plain list in a row store (_Rows) that the family's
prepare hook makes for its own run, sized to the one index top its grid
reaches: the row under (fill, *key) is fill(rows, *key), built once, on
its first read, through top.  Nothing a run builds outlives it: its row
store, its verdict memo, the kernels it packs at the slot width its own
grid needs, and every count it reads (its count tables, kernel tables,
planes and series) are sized to its grid alone and freed with it, so what
a family computes does not depend on which family ran before it.

pmost_chain, qnmp_correspondence and genfun have prepares of their own,
each reading P and Q tables filled for its run.

Sixth-root-of-unity weights stay float-free: cos(j*pi/3) is a half-integer,
so cosine-weighted identities are verified doubled with the integer table
twice_cos; sin(j*pi/3) = (sqrt(3)/2) * s(j) with integer s(j), so the
vanishing sums are verified through s(j) alone.  Each weight is periodic in
its summation index, so one constant table, _PERIOD_WEIGHTS, holds it over
one period per n mod 6, and one integer sum, _weighted_sum, reads every
weighted or signed row of every layer: a single-sum side, its coefficient
bound, a q = 1 side and each triangle diagonal, whose signs per parity of k
come from _diagonal_weights.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from array import array
from functools import partial
from operator import itemgetter, mul
from typing import Callable, Iterable, Optional, Sequence

from .bigpoly import (
    IntPoly,
    ONE,
    ZERO,
    grid_mul,
    pack,
    poly_add,
    poly_mul,
    poly_shift,
    poly_substitute_power,
    slot_width,
    unpack,
)
from .partitions import UNBOUNDED, box_counts, count_tables, distinct_series
from .qbinom import binom, binom2, bracket_base

# ---------------------------------------------------------------------------
# Exact sixth-root-of-unity weight tables (period 6 in the angle index j)
# ---------------------------------------------------------------------------

_TWICE_COS = (2, 1, -1, -2, -1, 1)
_TWICE_SIN = (0, 1, 1, 0, -1, -1)


def twice_cos(j: int) -> int:
    """2*cos(j*pi/3) as an exact integer; even and 6-periodic in j."""
    return _TWICE_COS[j % 6]


def twice_sin_over_sqrt3(j: int) -> int:
    """2*sin(j*pi/3)/sqrt(3) as an exact integer; odd and 6-periodic in j."""
    return _TWICE_SIN[j % 6]


_PLAIN, _ALT, _COS, _SIN = "plain", "alt", "cos", "sin"

# The weights w(k) at n: 1, (-1)^k, 2cos((2k-n)pi/3) and 2sin((n-2k)pi/3)/sqrt(3).
# w depends on k only through k mod its period (1, 2, or 3 for the angles,
# since 2k mod 6 is 2(k mod 3)) and on n only through n mod 6, so
# _PERIOD_WEIGHTS[weight][n % 6] holds w over one period of k.  Built here once,
# never written.
_PERIOD_WEIGHTS = {
    _PLAIN: ((1,),) * 6,
    _ALT: ((1, -1),) * 6,
    _COS: tuple(tuple(twice_cos(2 * k - n) for k in range(3)) for n in range(6)),
    _SIN: tuple(tuple(twice_sin_over_sqrt3(n - 2 * k) for k in range(3)) for n in range(6)),
}


def _weighted_sum(weights: Iterable[int], outer: Sequence[int], inner: Sequence[int], n: int, d: int) -> int:
    """sum_{k <= n/d} weights[k mod len(weights)] * outer[n - d*k] * inner[k].

    Every weighted or signed row sum of every layer is this one sum.
    """
    return sum(map(mul, itertools.cycle(weights), map(mul, outer[n::-d], inner)))


# ---------------------------------------------------------------------------
# Results and descriptors
# ---------------------------------------------------------------------------
#
# A case is the values tuple itertools.product makes for its grid point, in
# the descriptor's parameter order; no case builds a params dict.  Its sides,
# read from the family's prepared rows, come back as the key of its verdict:
# lhs.coeffs when both polynomial sides are one object (a side passed through
# because the identity holds), else (lhs.coeffs, rhs.coeffs); the tuple of
# such keys of a many-part polynomial check (the two halves of a parity
# corollary, the six checks of f_theorem); the pair (lhs, rhs) of a one-pair
# count or q = 1 family; the tuple of pairs of a many-pair one.  The family's
# finish turns a key into a verdict, the tuple
# (passed, lhs_hash, rhs_hash, first_mismatch), and the verdict memo of the
# family run (_Verdicts) finishes each distinct key once and numbers it.  A
# run (CaseRun) is the family's names, its one grid's axes, its distinct
# verdicts and one verdict index per case, so a case adds four bytes to what
# its family holds already; a CaseResult, the tuple (names, values, verdict),
# is made only when a case is read, and the CLI writes each row from the run.

KIND_Q_POLYNOMIAL = "q_polynomial"
KIND_COUNT_INTEGER = "count_integer"
KIND_COMBINATORIAL = "combinatorial_q1"


class CaseResult(tuple):
    """Verdict for one case, with digests for compact reporting.

    The tuple (names, values, verdict) that the grid runner makes with
    _make: the parameter names, the case's values in their order, and
    (passed, lhs_hash, rhs_hash, first_mismatch).  A family run shares one
    names tuple across its cases and one verdict across the cases with the
    same sides.  params, a fresh dict, and the verdict's four fields read as
    attributes.
    """

    __slots__ = ()

    # CaseResult._make((names, values, verdict)), as the grid runner builds each case
    _make = classmethod(tuple.__new__)

    names = property(itemgetter(0), doc="The parameter names, in the order of values.")
    values = property(itemgetter(1), doc="The case's parameter values.")
    verdict = property(itemgetter(2), doc="(passed, lhs_hash, rhs_hash, first_mismatch).")
    params = property(lambda self: dict(zip(self[0], self[1])), doc="A fresh dict of the names and values.")
    passed = property(lambda self: self[2][0], doc="Whether the two sides are equal.")
    lhs_hash = property(lambda self: self[2][1], doc="The digest of the left side.")
    rhs_hash = property(lambda self: self[2][2], doc="The digest of the right side.")
    first_mismatch = property(lambda self: self[2][3], doc="Where the sides first differ, or None.")


class CaseRun(list):
    """The cases of one run, in order, as a read-only sequence of CaseResults made only when read.

    A run is its names, its grids, its distinct verdicts, each once, and
    indices, an array('I') of one position in verdicts per case.  The grids
    hold its cases' values: each grid is a tuple of axes, one per name, and
    the cases are the points of the first grid in itertools.product order,
    then those of the next.  A family run has one grid; no point is stored.
    failures() counts the failing cases.

    It is a list only so that code that asks isinstance(..., list) sizes it
    as one, as benchmarks/traced.py does; its own list storage stays empty.
    Every list method that reads, == and slicing among them, reads the
    CaseResults of the run and of any run it is given; every one that
    writes raises TypeError.
    """

    __slots__ = ("names", "grids", "verdicts", "indices")

    def __init__(self, names: tuple, grids: list[tuple], verdicts: list[tuple], indices):
        self.names, self.grids, self.verdicts, self.indices = names, grids, verdicts, indices

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        points = itertools.chain.from_iterable(itertools.starmap(itertools.product, self.grids))
        cases = zip(itertools.repeat(self.names), points, map(self.verdicts.__getitem__, self.indices))
        return map(CaseResult._make, cases)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("CaseRun index out of range")
        verdict = self.verdicts[self.indices[i]]
        for axes in self.grids:
            size = math.prod(map(len, axes))
            if i < size:
                # the last axis varies fastest, as in itertools.product
                point = []
                for axis in reversed(axes):
                    i, at = divmod(i, len(axis))
                    point.append(axis[at])
                return CaseResult._make((self.names, tuple(reversed(point)), verdict))
            i -= size

    def __repr__(self) -> str:
        return f"CaseRun({list(self)!r})"

    def failures(self) -> int:
        """How many cases fail: the summed occurrences of the failing verdicts."""
        failing = [not verdict[0] for verdict in self.verdicts]
        return sum(map(failing.__getitem__, self.indices)) if any(failing) else 0


def _on_cases(name: str) -> Callable:
    """The list method name, applied to the CaseResults of a run and of every run among its arguments."""
    method = getattr(list, name)

    def read(self, *args):
        return method(list(self), *(list(arg) if isinstance(arg, CaseRun) else arg for arg in args))

    return read


def _read_only(self, *args):
    raise TypeError("a CaseRun is read-only")


for _name in ("__add__", "__contains__", "__eq__", "__ge__", "__gt__", "__le__", "__lt__", "__mul__", "__ne__",
              "__reversed__", "__rmul__", "copy", "count", "index"):
    setattr(CaseRun, _name, _on_cases(_name))
for _name in ("__delitem__", "__iadd__", "__imul__", "__setitem__", "append", "clear", "extend", "insert", "pop",
              "remove", "reverse", "sort"):
    setattr(CaseRun, _name, _read_only)
del _name


class IdentityDescriptor:
    """Registry entry: the prepare hook of one family plus its default grid.

    prepare(*axes), called with the grid's values per parameter in params
    order, builds what the family's cases read over that grid and returns
    (sides, finish): sides(*values) gives one case's sides as its verdict's
    key, and finish(sides, tamper=False) that verdict.
    """

    __slots__ = ("id", "kind", "params", "default_grid", "prepare")

    def __init__(
        self,
        id: str,
        kind: str,
        params: tuple[str, ...],
        default_grid: dict[str, list[int]],
        prepare: Callable[..., tuple[Callable, Callable]],
    ):
        self.id = id
        self.kind = kind
        self.params = params
        self.default_grid = default_grid
        self.prepare = prepare


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _digest(values: Sequence[int]) -> str:
    """SHA-256 of the comma-joined decimal text of values."""
    return _sha(",".join(map(str, values)))


class _Verdicts(dict):
    """sides -> the position of its verdict over one family run: a key not yet seen is finished and numbered.

    Its verdict is appended to the run's list verdicts, so the list holds
    each distinct verdict once, in first-seen order.  Many cases of a family
    share their sides (every resdbl case at one (n, p, a, c) has both sides
    F(0), whatever its m and b), so each distinct sides is hashed and
    compared once, and every later case with them costs one lookup.  Each
    grid run makes its own, so memory is bounded by one family's distinct
    sides and a family's timing does not depend on which family ran before
    it.
    """

    __slots__ = ("finish", "verdicts")

    def __init__(self, finish: Callable[[tuple], tuple], verdicts: list[tuple]):
        self.finish, self.verdicts = finish, verdicts

    def __missing__(self, sides):
        verdicts = self.verdicts
        verdicts.append(self.finish(sides))
        at = self[sides] = len(verdicts) - 1
        return at


def _poly_key(lhs: IntPoly, rhs: IntPoly) -> tuple:
    """The verdict key of two polynomial sides: lhs.coeffs when they are one object, else both coefficient tuples."""
    return lhs.coeffs if lhs is rhs else (lhs.coeffs, rhs.coeffs)


def _poly_unkey(key: tuple) -> tuple[tuple, tuple]:
    """The two coefficient tuples of a _poly_key; a tuple of coefficients holds ints, never tuples."""
    return key if key and type(key[0]) is tuple else (key, key)


def _poly_first_mismatch(lhs: tuple, rhs: tuple) -> Optional[int]:
    top = max(len(lhs), len(rhs))
    for e in range(top):
        a = lhs[e] if e < len(lhs) else 0
        b = rhs[e] if e < len(rhs) else 0
        if a != b:
            return e
    return None


def _finish_poly(key: tuple, tamper: bool = False) -> tuple:
    """The verdict on two polynomial sides, given as their _poly_key."""
    lhs, rhs = _poly_unkey(key)
    if tamper:
        rhs = poly_add(IntPoly(rhs), ONE).coeffs
    lhs_hash = _digest(lhs)
    if lhs == rhs:  # equal sides hash alike
        return (True, lhs_hash, lhs_hash, None)
    return (False, lhs_hash, _digest(rhs), _poly_first_mismatch(lhs, rhs))


def _finish_pairs(pairs: tuple[tuple[int, int], ...], tamper: bool = False) -> tuple:
    """The verdict on a non-empty tuple of (lhs, rhs) integer pairs."""
    lhs, rhs = zip(*pairs)
    if tamper:
        rhs = (rhs[0] + 1, *rhs[1:])
    lhs_hash = _digest(lhs)
    if lhs == rhs:  # equal sides hash alike
        return (True, lhs_hash, lhs_hash, None)
    return (False, lhs_hash, _digest(rhs), next((l, r) for l, r in zip(lhs, rhs) if l != r))


def _finish_pair(pair: tuple[int, int], tamper: bool = False) -> tuple:
    """The verdict on one (lhs, rhs) integer pair, as a tuple of one pair."""
    return _finish_pairs((pair,), tamper)


def _combine(verdicts: Iterable[tuple], sep: str) -> tuple:
    """The first failing verdict; else a pass over the sep-joined digests."""
    done = []
    for verdict in verdicts:
        if not verdict[0]:
            return verdict
        done.append(verdict)
    return (True, _sha(sep.join(v[1] for v in done)), _sha(sep.join(v[2] for v in done)), None)


_PARAM_DOMAIN_MSG = "identity parameters must satisfy n, m >= 0 (and p >= 0, a >= 0, b, c >= 1)"
# the least value each parameter takes, in every kind of family
_PARAM_LOW = {"n": 0, "m": 0, "p": 0, "a": 0, "b": 1, "c": 1}


def _require_domain(names: Sequence[str], axes: Sequence[Sequence[int]]) -> None:
    """A grid is a box, so its domain is checked once per axis, at the axis's least value."""
    for name, axis in zip(names, axes):
        low = min(axis)
        if low < _PARAM_LOW[name]:
            raise ValueError(f"{_PARAM_DOMAIN_MSG}: got {name} = {low}")


# ---------------------------------------------------------------------------
# The kernel row store
# ---------------------------------------------------------------------------
#
# Every row a case reads is a plain list, indexed 0..top, in the row store of
# its family's run.  A prepare hook that reads rows makes one store, sized to
# the one top its grid reaches, builds each row it needs before the first case
# runs and binds it in locals, so the cases only read; the store is dropped
# when the prepare returns.  A row is read as rows[fill, *key]: the first read
# builds it as fill(rows, *key), through rows.top, and keeps it, so no row is
# built twice in a run, and no run sees another run's rows.  A fill reads
# other rows of the same store the same way, but never its own.  The q kernels
# are rows under (_q_kernel, name, m) and their coefficient sums under
# (_q_norm, name, m).  Each triangle diagonal row sits under
# (_diagonal, m, b, sign_on, keep), and each double sum's or corollary's F row
# under (_resdbl_h, top form, p, a, c).  delta is a kernel here like any
# other, with rows of its own.  No weight is kept here: the weights are the
# constant _PERIOD_WEIGHTS.  The packed kernels, read at the slot width the
# family's own bound sets, and the nonzero diagonals are built from these
# rows and bound by the prepare; the count layer reads no row store.


class _Rows(dict):
    """(fill, *key) -> fill(rows, *key), the row through index top, built on its first read.

    One store serves one family run, so every row in it is built once, at
    the one extent top that the run's grid reaches.
    """

    __slots__ = ("top",)

    def __init__(self, top: int):
        self.top = top

    def __missing__(self, key: tuple) -> list:
        fill, *args = key
        row = self[key] = fill(self, *args)
        return row


def _diagonal_weights(sign_on: str, keep: Optional[int], j: int) -> tuple[int, int]:
    """The weights of diagonal j's terms (k, l = j - k) for k even and for k odd.

    A class weighs (-1)^(k or l), or 0 when keep is set and its unsigned
    index is not keep (mod 2), so diagonal j over the kernel rows U and V is
    _weighted_sum(_diagonal_weights(sign_on, keep, j), U, V, j, 1).
    """
    weights = []
    for k in (0, 1):
        signed, unsigned = (k, j - k) if sign_on == "k" else (j - k, k)
        weights.append(0 if keep is not None and unsigned % 2 != keep else 1 - 2 * (signed % 2))
    return tuple(weights)


def _nonzero(row: Sequence, zero) -> list[tuple]:
    """The pairs (j, row[j]) with row[j] != zero, j ascending: the diagonals a triangle sum visits."""
    return [(j, x) for j, x in enumerate(row) if x != zero]


# ---------------------------------------------------------------------------
# q-polynomial identities
# ---------------------------------------------------------------------------
#
# The single sums combine kernels at fixed m, read in base q**d:
#     U_j = [m+j, m]_d        V_j = q^(d*C(j,2)) [m+1, j]_d
# and delta_j (1 at j = 0, else 0).  A side is a kernel at index n in base q
# or a row (scale, A, B, d, w) meaning scale * sum_{k <= n/d} w(k) A_{n-dk} B_k,
# with A in base q and B in base q**d.  Cosine rows come back doubled.
#
# Both sides of a case are evaluated as packed ints (see bigpoly): a row side
# is scale * sum_k w(k) * pack(A_{n-dk}) * pack(B_k), one integer product per
# term, and only the finished side is unpacked, once, for its digest and a
# first mismatch.  The slot width at m is the one set by a proven bound on
# every coefficient of either side at every n of the family's grid,
# sum_k |scale * w(k)| * |A_{n-dk}|_1 * |B_k|_1, where |.|_1, the coefficient
# sum, is read off the kernels themselves.  The family's prepare packs each
# kernel it reads at m once, at that width, and the packed rows live as long
# as its run.  B is packed from its base-q row with its slots d apart.

_DELTA = "delta"

_Q_SUMS = {
    "delta": ((1, "U", "V", 1, _ALT), _DELTA),
    "result1": ((1, "V", "U", 2, _PLAIN), "U"),
    "result2": ((1, "U", "V", 2, _ALT), "V"),
    "result3": ((2, "V", "U", 3, _ALT), (1, "U", "U", 1, _COS)),
    "result4": ((2, "U", "V", 3, _ALT), (1, "V", "V", 1, _COS)),
    "result5": ((1, "V", "U", 4, _PLAIN), (1, "U", "U", 2, _ALT)),
    "result6": ((1, "U", "V", 4, _ALT), (1, "V", "V", 2, _PLAIN)),
}


_Q_KERNELS = {
    "U": lambda m, j: bracket_base(m + j, m),
    "V": lambda m, j: poly_shift(bracket_base(m + 1, j), binom2(j)),
    _DELTA: lambda m, j: ONE if j == 0 else ZERO,
}


def _q_kernel(rows: _Rows, name: str, m: int) -> list[IntPoly]:
    """The kernel named name at each index j <= rows.top, in base q."""
    kernel = _Q_KERNELS[name]
    return [kernel(m, j) for j in range(rows.top + 1)]


def _q_norm(rows: _Rows, name: str, m: int) -> list[int]:
    """|kernel_j|_1 for j <= rows.top, the sum of its (nonnegative) coefficients, in any base."""
    return [sum(kernel.coeffs) for kernel in rows[_q_kernel, name, m]]


def _q_packed(rows: _Rows, name: str, m: int, d: int, width: int, top: int) -> list[int]:
    """The kernels 0..top in base q**d, packed at width: a fresh row, kept by its reader."""
    kernels = rows[_q_kernel, name, m]
    return [pack(kernels[j], width, d) for j in range(top + 1)]


def _q_bound(rows: _Rows, side, n: int, m: int) -> int:
    """A bound on every |coefficient| of the side at (n, m)."""
    if isinstance(side, str):
        return rows[_q_norm, side, m][n]
    scale, a, b, d, weight = side
    outer, inner = rows[_q_norm, a, m], rows[_q_norm, b, m]
    return abs(scale) * _weighted_sum(map(abs, _PERIOD_WEIGHTS[weight][n % 6]), outer, inner, n, d)


def _q_reader(rows: _Rows, side, m: int, width: int) -> Callable[[int], int]:
    """n -> the side at (n, m), packed at width, for every n <= rows.top."""
    top = rows.top
    if isinstance(side, str):
        return _q_packed(rows, side, m, 1, width, top).__getitem__
    scale, a, b, d, weight = side
    outer = _q_packed(rows, a, m, 1, width, top)
    inner = outer if (b, d) == (a, 1) else _q_packed(rows, b, m, d, width, top // d)
    periods = _PERIOD_WEIGHTS[weight]

    def read(n):
        return scale * _weighted_sum(periods[n % 6], outer, inner, n, d)

    return read


def _q_sums(spec, ns: Sequence[int], ms: Sequence[int]):
    """The prepare of a single sum: per m, both sides' packed rows through max(ns), at the width its grid needs."""
    rows = _Rows(max(ns))
    at = {}
    for m in ms:
        width = slot_width(max(_q_bound(rows, side, n, m) for side in spec for n in ns))
        at[m] = (width, *(_q_reader(rows, side, m, width) for side in spec))

    def sides(n, m):
        width, lhs, rhs = at[m]
        x, y = lhs(n), rhs(n)
        left = unpack(x, width).coeffs
        # at one width, equal packed ints are equal polynomials: the _poly_key of one object
        return left if x == y else (left, unpack(y, width).coeffs)

    return sides, _finish_poly


# --- the triangle theorem and its instances ---------------------------------
#
# For any sequence F(0..n) the paper's triangle theorem reads
#     sum_{k+l <= n} (-1)^(k or l) F(k+l) q^(b*C(k,2)) [m+1, k]_b [m+l, m]_b = F(0).
# F enters only through F(k+l), so the sum regroups by diagonals j = k + l as
# sum_j F(j) G_j, with
#     G_j = sum_{k+l=j} (-1)^(k or l) q^(b*C(k,2)) [m+1, k]_b [m+l, m]_b.
# The summand of G_j is V_k U_l with the single sums' kernels read in base
# q**b, so G_j in base q**b is G_j in base q dilated by b.  A diagonal in base
# q is summed packed, as a single-sum side is, by the same _weighted_sum:
# sum_{k+l=j} +-pack(V_k) * pack(U_l), unpacked once, with the sign of each
# parity class of k from _diagonal_weights.  Each fill packs V and U once,
# at the width that holds sum_{k+l=j} |V_k|_1 * |U_l|_1 for every diagonal
# j <= rows.top, the grid's max(ns).  The diagonals are one row per
# (m, b, the signed index) in the store of the run that reads them, shared by
# every case of its grid.  A parity half keeps only the terms whose unsigned
# index u has u = keep (mod 2), so its diagonals are keyed on keep as well,
# and the class of k that keep drops weighs 0.  The theorem says G_0 = 1 and
# G_j = 0 for j >= 1; a half's diagonals need not vanish.  Each prepare binds
# the nonzero pairs (j, G_j) of the rows it reads, so a case visits only those.
# A whole triangle's only nonzero diagonal is G_0 = 1, so resdbl1-4, f_theorem
# and triangle_sum sum with poly_mul (_diagonal_sum), whose product with 1
# hands F(0) back; a parity half sums its many nonzero diagonals packed.


def _diagonal(rows: _Rows, m: int, b: int, sign_on: str, keep: Optional[int]) -> list[IntPoly]:
    """G_j in base q**b for j <= rows.top; G_j keeps only the unsigned indices u = keep (mod 2) when keep is set."""
    if b > 1:
        return [poly_substitute_power(g, b) for g in rows[_diagonal, m, 1, sign_on, keep]]
    top = rows.top
    signs = [_diagonal_weights(sign_on, keep, j) for j in range(top + 1)]
    u_norm, v_norm = rows[_q_norm, "U", m], rows[_q_norm, "V", m]
    width = slot_width(max(_weighted_sum(map(abs, w), u_norm, v_norm, j, 1) for j, w in enumerate(signs)))
    u, v = _q_packed(rows, "U", m, 1, width, top), _q_packed(rows, "V", m, 1, width, top)
    return [unpack(_weighted_sum(w, u, v, j, 1), width) for j, w in enumerate(signs)]


def _diagonal_pairs(rows: _Rows, m: int, b: int, sign_on: str, keep: Optional[int]) -> list[tuple[int, IntPoly]]:
    """The pairs (j, G_j) with G_j nonzero, for j <= rows.top ascending."""
    return _nonzero(rows[_diagonal, m, b, sign_on, keep], ZERO)


def _diagonal_classes(pairs: dict) -> tuple[dict, list]:
    """Group the keys of pairs by equal nonzero-diagonal pairs: each key's class number and each class's pairs.

    Classes are numbered in first-seen order.  A whole triangle whose
    theorem holds has the one pair (0, 1) at every key, so its sums form
    one class.
    """
    numbers = {}
    class_of = {key: numbers.setdefault(tuple(row), len(numbers)) for key, row in pairs.items()}
    return class_of, list(numbers)


def _diagonal_sum(H: Sequence[IntPoly], n: int, pairs: list[tuple[int, IntPoly]]) -> IntPoly:
    """sum_j H[n - j] G_j over the nonzero diagonals j <= n, given as their ascending pairs (j, G_j).

    The product with G_0 = 1 and the sum onto zero pass their operand
    through (see bigpoly), so when the theorem holds the result is the
    object H[n] itself, not a copy.
    """
    total = ZERO
    for j, g in pairs:
        if j > n:
            break
        total = poly_add(total, poly_mul(H[n - j], g))
    return total


def triangle_sum(F: Sequence[IntPoly], n: int, m: int, b: int, sign_on: str) -> IntPoly:
    """The triangle sum of F over k + l <= n, with the brackets read in base q**b.

    The sum is read as sum_j F(j) G_j over the diagonals G_j, j <= n, built
    for this call alone, with a product only for each nonzero G_j.  When the
    theorem holds the result is the object F(0) itself, not a copy.
    """
    _require_domain(("n", "m", "b"), ([n], [m], [b]))
    if len(F) < n + 1:
        raise ValueError(f"F must provide at least n+1 = {n + 1} values, got {len(F)}")
    if sign_on not in ("k", "l"):
        raise ValueError(f"sign_on must be 'k' or 'l', got {sign_on!r}")
    return _diagonal_sum(F[n::-1], n, _diagonal_pairs(_Rows(n), m, b, sign_on, None))


# The four double sums take F(j) = q^(a*C(n-j,2)) [p+n-j, p]_c or [p, n-j]_c;
# each row is (F uses [p+s, p]_c rather than [p, s]_c, the signed index).
_RESDBL = {
    "resdbl1": (True, "k"),
    "resdbl2": (True, "l"),
    "resdbl3": (False, "k"),
    "resdbl4": (False, "l"),
}
RESDBL_IDS = tuple(_RESDBL)


def _resdbl_h(rows: _Rows, shifted_top: bool, p: int, a: int, c: int) -> list[IntPoly]:
    """H[s] = q^(a*C(s,2)) [p+s, p]_c or [p, s]_c for s <= rows.top; a case at n reads F(j) = H[n - j] in place."""
    return [
        poly_shift(bracket_base(p + s, p, c) if shifted_top else bracket_base(p, s, c), a * binom2(s))
        for s in range(rows.top + 1)
    ]


def _resdbl_sums(variant: str, ns, ms, ps, as_, bs, cs):
    """The prepare of a double sum: the H rows per (p, a, c) and the (m, b) grouped by their diagonals, through max(ns).

    The (m, b) with equal nonzero-diagonal pairs form one class, and each
    class's sides are summed once per (p, a, c, n), so a case is one lookup.
    """
    shifted_top, sign_on = _RESDBL[variant]
    rows = _Rows(max(ns))
    class_of, classes = _diagonal_classes({(m, b): _diagonal_pairs(rows, m, b, sign_on, None) for m in ms for b in bs})
    by_class = {}
    for p, a, c in itertools.product(ps, as_, cs):
        H = rows[_resdbl_h, shifted_top, p, a, c]
        for number, pairs in enumerate(classes):
            keys = by_class[number, p, a, c] = [None] * (rows.top + 1)
            for n in ns:
                keys[n] = _poly_key(_diagonal_sum(H, n, pairs), H[n])
    at = {
        (m, b, p, a, c): by_class[number, p, a, c]
        for (m, b), number in class_of.items()
        for p, a, c in itertools.product(ps, as_, cs)
    }

    def sides(n, m, p, a, b, c):
        return at[m, b, p, a, c][n]

    return sides, _finish_poly


_NM = ("n", "m")
_NMP = ("n", "m", "p")
_RESDBL_PARAMS = ("n", "m", "p", "a", "b", "c")


# --- even/odd halves of the double sums ------------------------------------
#
# Each corollary is a resdbl at b = c = 1; a row is (variant, p - m, a).  Its
# even half keeps the terms with n - u even (u the unsigned index) and has
# right side F(0); its odd half keeps n - u odd and has right side zero.  A
# half reads the diagonals keyed on keep = u mod 2.  Unlike a double sum, a
# half has many nonzero diagonals, so it is summed packed, as a single-sum
# side is: the prepare packs the F row and both halves' nonzero diagonals per
# m at one width, a case's half is sum_j pack(H[n - j]) * pack(G_j), and a
# half is unpacked only when it differs from its right side.  The width at m
# holds the largest of |H[n]|_1 and sum_j |H[n - j]|_1 * |G_j|_1 over either
# half's diagonals, at every n of the grid, so both halves and F(0) unpack
# exactly and equal packed ints are equal polynomials.

_COROLLARIES = {
    "corollary_2_4": ("resdbl2", 0, 0),
    "corollary_3_4": ("resdbl3", 1, 1),
}


def _parity_halves(corollary_id: str, ns, ms):
    """The prepare of a parity corollary: per m, the F row and both halves' nonzero diagonals, packed through max(ns).

    A case's sides are its even half's _poly_key and then its odd half's,
    each half one packed sum over those rows.
    """
    variant, p_offset, a = _COROLLARIES[corollary_id]
    shifted_top, sign_on = _RESDBL[variant]
    rows = _Rows(max(ns))
    at = {}
    for m in ms:
        H = rows[_resdbl_h, shifted_top, m + p_offset, a, 1]
        diagonals = [rows[_diagonal, m, 1, sign_on, keep] for keep in (0, 1)]
        h_norm = [sum(h.coeffs) for h in H]  # F's coefficients are nonnegative
        g_norms = [[sum(map(abs, g.coeffs)) for g in row] for row in diagonals]
        width = slot_width(
            max(max(h_norm[n], *(_weighted_sum((1,), h_norm, g, n, 1) for g in g_norms)) for n in ns)
        )
        halves = [[(j, pack(g, width)) for j, g in _nonzero(row, ZERO)] for row in diagonals]
        at[m] = (width, H, [pack(h, width) for h in H], halves)

    def sides(n, m):
        # keep is u mod 2: the even half keeps u = n (mod 2), the odd half u = n - 1
        width, H, h, halves = at[m]
        even = sum(h[n - j] * g for j, g in halves[n % 2] if j <= n)
        odd = sum(h[n - j] * g for j, g in halves[1 - n % 2] if j <= n)
        # at one width, equal packed ints are equal polynomials: the _poly_key of one object
        rhs = H[n].coeffs
        return (
            rhs if even == h[n] else (unpack(even, width).coeffs, rhs),
            (unpack(odd, width).coeffs, ()) if odd else (),
        )

    return sides, _finish_halves


def _finish_halves(keys, tamper: bool = False) -> tuple:
    even, odd = keys
    return _combine((_finish_poly(even, tamper), _finish_poly(odd)), "")


def _one_point_sides(identity_id: str, values: Sequence[int]):
    """The sides of the case at values, as the run of its one-point grid reads them."""
    sides, _ = _prepared(get_descriptor(identity_id), [[value] for value in values])
    return sides(*values)


def _poly_pair(key: tuple) -> tuple[IntPoly, IntPoly]:
    """The two polynomial sides of a _poly_key."""
    lhs, rhs = _poly_unkey(key)
    return IntPoly(lhs), IntPoly(rhs)


def parity_sum_sides(corollary_id: str, parity: str, n: int, m: int) -> tuple[IntPoly, IntPoly]:
    """Both sides of the even or odd half of a parity corollary.

    They are read as the family's cases read them, over the one-point grid
    at (n, m): the even half has right side F(0), the odd half zero.
    """
    if corollary_id not in _COROLLARIES:
        raise ValueError(f"corollary must be one of {tuple(_COROLLARIES)}, got {corollary_id!r}")
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    return _poly_pair(_one_point_sides(corollary_id, (n, m))[parity == "odd"])


def q_identity_sides(identity_id: str, params: dict[str, int]) -> tuple[IntPoly, IntPoly]:
    """Both sides of a q-polynomial identity as exact polynomials.

    Covers the single-sum identities, the four double sums, and the two
    parity corollaries (their even half); cosine-weighted identities come
    back in their doubled form.  A sum is read as its family's cases read
    it, over the one-point grid at params.
    """
    if identity_id not in _Q_SUMS and identity_id not in _RESDBL and identity_id not in _COROLLARIES:
        raise KeyError(f"no polynomial sides for {identity_id!r}")
    key = _one_point_sides(identity_id, [params[name] for name in get_descriptor(identity_id).params])
    return _poly_pair(key[0] if identity_id in _COROLLARIES else key)


def check_F_theorem(
    F: Sequence[IntPoly],
    n: int,
    m: int,
    sign_on: str,
    base: int = 1,
) -> CaseResult:
    """Verify the triangle sum of F, with the brackets read in base q**base, against F(0).

    The sum is read as sum_j F(j) G_j over the diagonals k + l = j.  Every
    G_j with j >= 1 is the zero polynomial and G_0 = 1, so the check costs
    one product, a pass-through of F(0); the diagonals themselves are still
    built from the brackets.
    """
    lhs = triangle_sum(F, n, m, base, sign_on)
    return CaseResult._make((_NM, (n, m), _finish_poly(_poly_key(lhs, F[0]))))


_F_RANDOM_SEED = 74521


def standard_f_sequences(n: int, m: int) -> list[tuple[str, tuple[IntPoly, ...]]]:
    """The stock coefficient sequences exercised by the registry check."""
    delta_f = (ONE,) + (ZERO,) * n
    power_f = tuple(poly_shift(ONE, j) for j in range(n + 1))
    rng = random.Random(_F_RANDOM_SEED + 1009 * n + m)
    random_f = tuple(IntPoly([rng.randint(-3, 3) for _ in range(4)]) for _ in range(n + 1))
    return [("delta", delta_f), ("power", power_f), ("random", random_f)]


def _f_theorem(ns, ms):
    """The prepare of f_theorem: the diagonal rows per (m, signed index), through max(ns).

    A case's sides are the _poly_keys of its six checks, check_F_theorem's
    for each stock sequence with the sign on k and then on l.
    """
    rows = _Rows(max(ns))
    diagonals = {(m, sign_on): _diagonal_pairs(rows, m, 1, sign_on, None) for m in ms for sign_on in ("k", "l")}

    def sides(n, m):
        sequences = [F for _, F in standard_f_sequences(n, m)]
        return tuple(
            _poly_key(_diagonal_sum(F[n::-1], n, diagonals[m, sign_on]), F[0])
            for sign_on in ("k", "l")
            for F in sequences
        )

    return sides, _finish_f_theorem


def _finish_f_theorem(keys, tamper: bool = False) -> tuple:
    verdict = _combine(map(_finish_poly, keys), ",")
    if tamper:
        return (False, verdict[1], _sha(verdict[2]), 0)
    return verdict


# ---------------------------------------------------------------------------
# Counting identities
# ---------------------------------------------------------------------------
#
# A count side reads the _Q_SUMS grammar over count kernels at the case's p.
# The kernels are named after the q kernels they stand in for, so a _Q_SUMS
# row reads here as it stands: U is P(a, b, p) and V is Q(a, b, p).  Q*, P*
# and P+ are the running sums of V and U along b and (a, b) -> P(a+b, b, p+1).
# delta is 1 at (0, 0), else 0, and zero is 0 everywhere.
# A side is a kernel at (n, m) or a row (scale, A, B, d, w) meaning
#     scale * sum_{k <= n/d, l <= m/d} w(l) A(n-dk, m-dl) B(k, l).
# The angle weights read m: 2cos((2l-m)pi/3) and 2sin((m-2l)pi/3)/sqrt(3).
#
# At one p, a row side over every (n, m) is the coefficient table of the
# product A(x, y) B(x^d, y^d), weighted.  Once m is fixed a weight depends on
# l only through l mod its period: 1, 2 for the sign, and 3 for the angles,
# since 2l mod 6 is 2(l mod 3).  So B splits into nonnegative classes by
# l mod the period, each class is one bigpoly.grid_mul, and the classes are
# summed per column m with their integer weights.  A row side is then one
# plane S[n][m] per (side, p).  Every count a family reads, here and in
# pmost_chain, qnmp_correspondence and genfun, comes from the P and Q layers
# that its prepare fills once with partitions.count_tables, at exactly its
# grid's extent; they, the kernel tables t[a][b] read from them, and the
# planes are held by that family run alone, so they are freed when the run
# ends and a family's timing does not depend on which family ran before it.
# A side that is a kernel alone is its table, so every side is a grid
# g[n][m] and a case is one lookup per side.
#
# So the count rows are _Q_SUMS rows, with the sides swapped where the paper
# states them the other way round, except theorem2 and qstar_relation: no q
# kernel stands for P+ or Q*.  The sine rows take a cosine row's right side
# with the weight _SIN; the paper sets that sum equal to zero.

_NIL = "zero"

# Each kernel's table at part bound p, t[a][b] for a < rows and b < cols, read
# from the run's P and Q layers; P reaches row rows + cols - 2 and layer p + 1
# when P+ is read.  P*(a, b) = sum_{k <= b} P(a, k) and Q*(a, b) likewise.
_COUNT_KERNELS = {
    "U": lambda P, Q, p, rows, cols: P[p][:rows],
    "V": lambda P, Q, p, rows, cols: Q[p],
    "P+": lambda P, Q, p, rows, cols: [[P[p + 1][a + b][b] for b in range(cols)] for a in range(rows)],
    "P*": lambda P, Q, p, rows, cols: [list(itertools.accumulate(row)) for row in P[p][:rows]],
    "Q*": lambda P, Q, p, rows, cols: [list(itertools.accumulate(row)) for row in Q[p]],
    _DELTA: lambda P, Q, p, rows, cols: [[int(a == b == 0) for b in range(cols)] for a in range(rows)],
    _NIL: lambda P, Q, p, rows, cols: [[0] * cols] * rows,
}


def _count_kernels(names: set, ps, rows: int, cols: int) -> dict[int, dict[str, list[list[int]]]]:
    """Per p in ps, each named kernel's table t[a][b] for a < rows and b < cols, from one P fill and one Q fill."""
    wide = "P+" in names
    P = count_tables(rows + (cols - 1) * wide, cols, max(ps) + wide)
    Q = count_tables(rows, cols, max(ps), distinct=True)
    return {p: {name: _COUNT_KERNELS[name](P, Q, p, rows, cols) for name in names} for p in ps}


_COUNT_SUMS = {
    "theorem1": _Q_SUMS["result1"][::-1],
    "theorem2": ("P+", (1, "Q*", "U", 2, _PLAIN)),
    "theorem3": _Q_SUMS["result2"][::-1],
    "theorem6": _Q_SUMS["result3"],
    "theorem7": _Q_SUMS["result4"],
    "theorem8": _Q_SUMS["result5"],
    "theorem9": _Q_SUMS["result6"],
    "theorem_simple": _Q_SUMS["delta"],
    "qstar_relation": ("Q*", (1, "P+", "V", 2, _ALT)),
    "sine_vanishing_6": (_Q_SUMS["result3"][1][:4] + (_SIN,), _NIL),
    "sine_vanishing_7": (_Q_SUMS["result4"][1][:4] + (_SIN,), _NIL),
}


def _count_plane(side, kernels: dict[str, list[list[int]]], rows: int, cols: int) -> list[list[int]]:
    """S[n][m], the row side at every n < rows, m < cols, from one grid product per weight class.

    kernels holds the kernel tables of one p.
    """
    scale, a, b, d, weight = side
    periods = _PERIOD_WEIGHTS[weight]
    period = len(periods[0])
    outer = kernels[a]
    inner_rows, inner_cols = (rows - 1) // d + 1, (cols - 1) // d + 1
    inner = [row[:inner_cols] for row in kernels[b][:inner_rows]]
    # class c keeps B's cells at l = c (mod period) and weighs w(c) at column m
    classes = []
    for c in range(period):
        part = [[x if l % period == c else 0 for l, x in enumerate(row)] for row in inner]
        classes.append(grid_mul(outer, part, d))
    weights = [[scale * w for w in periods[m % 6]] for m in range(cols)]
    return [
        [sum(map(mul, w, cells)) for w, cells in zip(weights, zip(*class_rows))]
        for class_rows in zip(*classes)
    ]


def _count_sums(spec, ns, ms, ps):
    """The prepare of a count row: each side's grid per p through max(ns) and max(ms).

    A kernel's grid is its table, a row's its plane.
    """
    rows, cols = max(ns) + 1, max(ms) + 1
    names = {name for side in spec for name in ((side,) if isinstance(side, str) else side[1:3])}
    kernels = _count_kernels(names, ps, rows, cols)
    left, right = (
        {p: kernels[p][side] if isinstance(side, str) else _count_plane(side, kernels[p], rows, cols) for p in ps}
        for side in spec
    )

    def sides(n, m, p):
        return left[p][n][m], right[p][n][m]

    return sides, _finish_pair


def _pmost_chain(ns, ps):
    """The prepare of pmost_chain: per p, the one-shot box counts, and P layers through p + 1 and Q layers through p.

    Pair 1's left side is box_counts, so pairs 1 and 2 test the fill rather
    than restate it.  P(x, p) with unbounded parts is read by conjugation as
    the partitions of x with largest part exactly p, the difference of two
    layers' row sums, so no layer past p + 1 is filled.
    """
    top, p_top = max(ns), max(ps)
    # pair 3 reads row 2n, and the row sums reach x = n + p, which has at most x parts
    P = count_tables(max(2 * top, top + p_top) + 1, top + p_top + 1, p_top + 1)
    # m distinct parts of size at most p need m <= p
    Q = count_tables(top + 1, min(top, p_top) + 1, p_top, distinct=True)
    most = [[sum(row) for row in layer[: top + p_top + 1]] for layer in P]
    distinct_most = [[sum(row) for row in layer] for layer in Q]
    boxes = {p: box_counts(top, UNBOUNDED, p) for p in ps}

    def exactly(x, p):
        return most[p][x] - (most[p - 1][x] if p else 0)

    def pairs(n, p):
        box, unbounded = boxes[p][n], exactly(n + p, p)
        convolution = sum(distinct_most[p][n - 2 * k] * exactly(p + k, p) for k in range(n // 2 + 1))
        return (
            (box, most[p][n]),
            (box, sum(P[p][n][: n + 1])),
            (box, P[p + 1][2 * n][n]),
            (box, unbounded),
            (unbounded, convolution),
        )

    return pairs, _finish_pairs


# Euler's two convolutions, P(x) = Q(x) P(x^2) and Q(x) = P(x) (x^2; x^2)_inf,
# read at x^n: a row (left, A, B) states left[n] = sum_k A[n-2k] B[k] over the
# series p(x), q(x) and s(k) = sum_l (-1)^l Q(k, l), which is [x^k] prod (1 - x^j)
# by the distinct-part generating function at z = -1.  qn_double_sum's
# statement runs l to floor(n/2); that sum does not depend on n, so it is one
# row over k.  Each series is one rolling list, expanded by the family's
# prepare to its grid's extent.
_SERIES = {
    "p": lambda top: box_counts(top, UNBOUNDED, UNBOUNDED),
    "q": lambda top: distinct_series(top, 1),
    "s": lambda top: distinct_series(top, -1),
}

_SERIES_SUMS = {
    "pn_from_q": ("p", "q", "p"),
    "qn_double_sum": ("q", "p", "s"),
}


def _series_sums(identity_id: str, ns):
    """The prepare of a series row: left and A through max(ns), B through max(ns) // 2."""
    lhs, a, b = (_SERIES[name] for name in _SERIES_SUMS[identity_id])
    top = max(ns)
    left, outer, inner = lhs(top), a(top), b(top // 2)

    def pair(n):
        return left[n], _weighted_sum((1,), outer, inner, n, 2)

    return pair, _finish_pair


def _qnmp_correspondence(ns, ms, ps):
    """The prepare of qnmp_correspondence, Q(n, m, p) = P(n - C(m, 2), m, p - m + 1).

    Q is filled through layer max(ps) and P through max(ps) + 1.
    """
    rows, cols, p_top = max(ns) + 1, max(ms) + 1, max(ps)
    Q = count_tables(rows, cols, p_top, distinct=True)
    P = count_tables(rows, cols, p_top + 1)

    def pair(n, m, p):
        a, q = n - m * (m - 1) // 2, p - m + 1
        return Q[p][n][m], P[q][a][m] if a >= 0 and q >= 0 else 0

    return pair, _finish_pair


# --- generating functions ---------------------------------------------------

GENFUN_Q_ORDER = 30
GENFUN_Z_DEGREE = 8


def genfun_table(p: int, q_order: int, z_degree: int, distinct: bool) -> list[list[int]]:
    """c[m][n], the coefficient of q^n z^m in a bounded-part product.

    distinct=False expands prod_{j=1..p} 1/(1 - z q^j), distinct=True expands
    prod_{j=1..p} (1 + z q^j), both truncated at q^q_order and z^z_degree.
    Each factor is multiplied in place by c[m][n] += c[m-1][n-j]: for the
    reciprocal factor m ascends, so row m-1 already carries every power of
    z q^j; for the plain factor m descends, so row m-1 still holds the
    product before this factor.
    """
    if p < 0 or q_order < 0 or z_degree < 0:
        raise ValueError("p, q_order and z_degree must all be >= 0")
    c = [[0] * (q_order + 1) for _ in range(z_degree + 1)]
    c[0][0] = 1
    rows = range(z_degree, 0, -1) if distinct else range(1, z_degree + 1)
    for j in range(1, p + 1):
        for m in rows:
            row, prev = c[m], c[m - 1]
            for n in range(j, q_order + 1):
                row[n] += prev[n - j]
    return c


def _genfun(ps, q_order: int = GENFUN_Q_ORDER, z_degree: int = GENFUN_Z_DEGREE):
    """The prepare of genfun: P and Q layers through max(ps) at n <= q_order and m <= z_degree.

    A case's pairs set each coefficient of the two expanded products against
    the count it should be, P(n, m, p) and Q(n, m, p) in turn.
    """
    P, Q = (count_tables(q_order + 1, z_degree + 1, max(ps), distinct) for distinct in (False, True))

    def pairs(p):
        p_table = genfun_table(p, q_order, z_degree, distinct=False)
        q_table = genfun_table(p, q_order, z_degree, distinct=True)
        return tuple(
            pair
            for mm in range(z_degree + 1)
            for nn in range(q_order + 1)
            for pair in ((p_table[mm][nn], P[p][nn][mm]), (q_table[mm][nn], Q[p][nn][mm]))
        )

    return pairs, _finish_pairs


def check_genfun(p: int, q_order: int = GENFUN_Q_ORDER, z_degree: int = GENFUN_Z_DEGREE,
                 tamper: bool = False) -> CaseResult:
    """Expand both bounded-part products and compare every q^n z^m coefficient.

    The reciprocal product must reproduce P(n, m, p) and the plain product
    Q(n, m, p), for all n <= q_order, m <= z_degree, as partitions.count_tables
    fills them.
    """
    pairs, finish = _genfun([p], q_order, z_degree)
    return CaseResult._make((("p",), (p,), finish(pairs(p), tamper)))


# ---------------------------------------------------------------------------
# Combinatorial identities at q = 1 (independent big-integer binomials)
# ---------------------------------------------------------------------------
#
# Every _COMB_SUMS row names the q row it specialises at q = 1 and reads it
# through its own integer evaluator; the two layers share spec rows, never an
# evaluator.  With u_j = C(m+j, m) and v_j = C(m+1, j), the q = 1 values of
# the kernels U and V, a row is one of
#   _comb_sums(row, r):  the _Q_SUMS row at index d*n + r, d its own dilation
#       (comb01-15, comb23-26); cosine rows are verified doubled
#   _comb_triangles(row, parity):  the triangle theorem at a = b = c = 1, for a
#       _RESDBL row (comb16-19, parity None) or a half of a _COROLLARIES row
#       (comb20-22, parity 0 for the even half and 1 for the odd one)
#
# Both read binomial rows of two forms, per x in the run's row store: the
# upper row C(x+j, x) and the lower row C(x, j), under (_binom_entry, upper, x).
# u is the upper row at m and v the lower row at m + 1; the triangle sums'
# F_s = C(p+s, p) or C(p, s) is the upper or lower row at p.  delta, 1 at
# index 0 and else 0, is a row of the prepare that reads it.


def _binom_entry(rows: _Rows, upper: bool, x: int) -> list[int]:
    js = range(rows.top + 1)
    return [binom(x + j, x) for j in js] if upper else [binom(x, j) for j in js]


def _comb_side(side, N: int, kernels: dict[str, list[int]]) -> int:
    """A _Q_SUMS side at q = 1 and index N, as _q_reader reads it, over the kernel rows named in kernels."""
    if isinstance(side, str):
        return kernels[side][N]
    scale, a, b, d, weight = side
    return scale * _weighted_sum(_PERIOD_WEIGHTS[weight][N % 6], kernels[a], kernels[b], N, d)


def _comb_sums(row: str, r: int, ns, ms):
    """01-15 and 23-26: both sides of the _Q_SUMS row at q = 1 and index d*n + r.

    The prepare binds u and v per m, and delta, through d*max(ns) + r.
    """
    lhs, rhs = _Q_SUMS[row]
    d = lhs[3]
    rows = _Rows(d * max(ns) + r)
    delta = [int(j == 0) for j in range(rows.top + 1)]
    kernels = {m: {"U": rows[_binom_entry, True, m], "V": rows[_binom_entry, False, m + 1], _DELTA: delta} for m in ms}
    # The paper puts (-1)^k on the index d*k + r and the row on the other
    # index; k -> n - k maps one to the other and multiplies both sides by
    # (-1)^n whenever the row's left sum is _ALT.
    alternating = lhs[4] == _ALT

    def sides(n, m):
        N, at_m = d * n + r, kernels[m]
        sign = -1 if alternating and n % 2 else 1
        return sign * _comb_side(lhs, N, at_m), sign * _comb_side(rhs, N, at_m)

    return sides, _finish_pair


def _comb_diagonal(rows: _Rows, sign_on: str, m: int, keep: Optional[int]) -> list[int]:
    """g_j = sum_{k+l=j} (-1)^(k or l) v_k u_l for j <= rows.top, over the terms keep keeps, as G_j is summed."""
    u, v = rows[_binom_entry, True, m], rows[_binom_entry, False, m + 1]
    return [_weighted_sum(_diagonal_weights(sign_on, keep, j), u, v, j, 1) for j in range(rows.top + 1)]


def _comb_triangles(row: str, parity: Optional[int], ns, ms, ps=()):
    """16-22: sum_{k+l <= n} (-1)^(k or l) F_{n-k-l} v_k u_l = F_n, F_s = C(p+s, p) or C(p, s).

    row is the _RESDBL row this specialises, or a _COROLLARIES row, which sets
    p = m + its offset and keeps the terms of one half as the corollary's q
    prepare does; the right side is then F_n for the even half and 0 for the
    odd one.
    Read as sum_j F_{n-j} g_j over the diagonals k + l = j; the prepare binds
    the F rows and the nonzero pairs (j, g_j) through max(ns), as the q
    prepares do.  For a whole triangle the m with equal pairs form one
    class, as resdbl1-4's (m, b) do, whose sides are summed once per (p, n);
    a half sums each case in place.
    """
    rows = _Rows(max(ns))
    if parity is None:
        shifted_top, sign_on = _RESDBL[row]
        class_of, classes = _diagonal_classes({m: _nonzero(rows[_comb_diagonal, sign_on, m, None], 0) for m in ms})
        by_class = {}
        for p in ps:
            f = rows[_binom_entry, shifted_top, p]
            for number, pairs in enumerate(classes):
                both = by_class[number, p] = [None] * (rows.top + 1)
                for n in ns:
                    both[n] = sum(f[n - j] * g for j, g in pairs if j <= n), f[n]
        at = {(m, p): by_class[number, p] for m, number in class_of.items() for p in ps}

        def sides(n, m, p):
            return at[m, p][n]

        return sides, _finish_pair
    variant, p_offset, _ = _COROLLARIES[row]
    shifted_top, sign_on = _RESDBL[variant]
    keeps = {(n - parity) % 2 for n in ns}
    f_rows = {m: rows[_binom_entry, shifted_top, m + p_offset] for m in ms}
    g_pairs = {(m, keep): _nonzero(rows[_comb_diagonal, sign_on, m, keep], 0) for m in ms for keep in keeps}

    def half(n, m):
        f = f_rows[m]
        return sum(f[n - j] * g for j, g in g_pairs[m, (n - parity) % 2] if j <= n), 0 if parity else f[n]

    return half, _finish_pair


_COMB_SUMS = {
    "comb01": (_comb_sums, "delta", 0),
    "comb02": (_comb_sums, "result1", 0),
    "comb03": (_comb_sums, "result1", 1),
    "comb04": (_comb_sums, "result2", 0),
    "comb05": (_comb_sums, "result2", 1),
    "comb06": (_comb_sums, "result3", 0),
    "comb07": (_comb_sums, "result3", 1),
    "comb08": (_comb_sums, "result3", 2),
    "comb09": (_comb_sums, "result4", 0),
    "comb10": (_comb_sums, "result4", 1),
    "comb11": (_comb_sums, "result4", 2),
    "comb12": (_comb_sums, "result5", 0),
    "comb13": (_comb_sums, "result5", 1),
    "comb14": (_comb_sums, "result5", 2),
    "comb15": (_comb_sums, "result5", 3),
    "comb16": (_comb_triangles, "resdbl1", None),
    "comb17": (_comb_triangles, "resdbl2", None),
    "comb18": (_comb_triangles, "resdbl3", None),
    "comb19": (_comb_triangles, "resdbl4", None),
    "comb20": (_comb_triangles, "corollary_2_4", 0),
    "comb21": (_comb_triangles, "corollary_3_4", 0),
    "comb22": (_comb_triangles, "corollary_2_4", 1),
    "comb23": (_comb_sums, "result6", 0),
    "comb24": (_comb_sums, "result6", 1),
    "comb25": (_comb_sums, "result6", 2),
    "comb26": (_comb_sums, "result6", 3),
}


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def _rng(hi: int) -> list[int]:
    return list(range(hi + 1))


def _build_registry() -> list[IdentityDescriptor]:
    entries: list[IdentityDescriptor] = []

    def add(identity_id, kind, params, grid, prepare):
        entries.append(IdentityDescriptor(identity_id, kind, tuple(params), dict(grid), prepare))

    q, count, comb = KIND_Q_POLYNOMIAL, KIND_COUNT_INTEGER, KIND_COMBINATORIAL
    nm10 = {"n": _rng(10), "m": _rng(10)}
    for identity_id, spec in _Q_SUMS.items():
        add(identity_id, q, _NM, nm10, partial(_q_sums, spec))
    resdbl_grid = {
        "n": _rng(6),
        "m": _rng(6),
        "p": _rng(6),
        "a": [0, 1, 2],
        "b": [1, 2],
        "c": [1, 2],
    }
    for identity_id in RESDBL_IDS:
        add(identity_id, q, _RESDBL_PARAMS, resdbl_grid, partial(_resdbl_sums, identity_id))
    nm8 = {"n": _rng(8), "m": _rng(8)}
    for identity_id in _COROLLARIES:
        add(identity_id, q, _NM, nm8, partial(_parity_halves, identity_id))
    add("f_theorem", q, _NM, nm8, _f_theorem)

    nmp = {"n": _rng(12), "m": _rng(12), "p": _rng(8)}
    for identity_id, spec in _COUNT_SUMS.items():
        add(identity_id, count, _NMP, nmp, partial(_count_sums, spec))
    pmost_grid = {"n": _rng(15), "p": _rng(15)}
    add("pmost_chain", count, ("n", "p"), pmost_grid, _pmost_chain)
    for identity_id in _SERIES_SUMS:
        add(identity_id, count, ("n",), {"n": _rng(40)}, partial(_series_sums, identity_id))
    corr_grid = {"n": _rng(15), "m": _rng(15), "p": _rng(15)}
    for identity_id, params, grid, prepare in (
        ("pnmp_correspondence", _NMP, corr_grid, partial(_count_sums, ("P*", "P+"))),
        ("qnmp_correspondence", _NMP, corr_grid, _qnmp_correspondence),
        ("genfun", ("p",), {"p": _rng(6)}, _genfun),
    ):
        add(identity_id, count, params, grid, prepare)

    comb_grid = {"n": _rng(20), "m": _rng(20), "p": _rng(12)}
    for identity_id, (template, *args) in _COMB_SUMS.items():
        params = _NMP if args[0] in _RESDBL else _NM
        grid = {name: comb_grid[name] for name in params}
        add(identity_id, comb, params, grid, partial(template, *args))

    ids = [e.id for e in entries]
    assert len(ids) == len(set(ids)), "registry ids must be unique"
    return entries


# built once, at import: each descriptor binds its spec row as the tables stand then
_REGISTRY = _build_registry()
_REGISTRY_BY_ID = {e.id: e for e in _REGISTRY}


def registry() -> list[IdentityDescriptor]:
    """All identity descriptors, in declaration order."""
    return _REGISTRY


def get_descriptor(identity_id: str) -> IdentityDescriptor:
    try:
        return _REGISTRY_BY_ID[identity_id]
    except KeyError:
        raise KeyError(f"unknown identity id {identity_id!r}") from None


def _prepared(desc: IdentityDescriptor, axes: Sequence[Sequence[int]]) -> tuple[Callable, Callable]:
    """desc's (sides, finish) over non-empty axes, once the grid's domain has been checked."""
    _require_domain(desc.params, axes)
    return desc.prepare(*axes)


def _run_grid(desc: IdentityDescriptor, grid: dict[str, list[int]], tamper_first: bool) -> CaseRun:
    """Every case of grid, in itertools.product order: prepare once, then one pass over the grid points.

    Each case's sides go to the run's own verdict memo, which finishes only
    sides it has not seen and numbers each distinct verdict in first-seen
    order; the run keeps those verdicts and one number per case.  With
    tamper_first the first case is finished with its right side tampered,
    outside the memo, as a verdict of its own, so no later case with the
    same sides reads it.  The run holds the grid's axes, not its points.
    """
    names = desc.params
    axes = [grid[name] for name in names]
    verdicts, indices = [], array("I")
    if all(axes):
        sides, finish = _prepared(desc, axes)
        cases = itertools.starmap(sides, itertools.product(*axes))
        if tamper_first:
            verdicts.append(finish(next(cases), True))
            indices.append(0)
        indices.extend(map(_Verdicts(finish, verdicts).__getitem__, cases))
    return CaseRun(names, [tuple(map(tuple, axes))], verdicts, indices)


def evaluate_case(identity_id: str, params: dict[str, int], tamper: bool = False) -> CaseResult:
    """Check one case, as the run of its one-point grid.

    Its result's params holds the descriptor's names, in their order.
    """
    desc = get_descriptor(identity_id)
    return _run_grid(desc, {name: [params[name]] for name in desc.params}, tamper)[0]


def run_identity(
    identity_id: str,
    grid: Optional[dict[str, list[int]]] = None,
    tamper_first: bool = False,
) -> CaseRun:
    """Evaluate one identity over a grid: its CaseRun, a read-only sequence of CaseResults."""
    desc = get_descriptor(identity_id)
    return _run_grid(desc, grid or desc.default_grid, tamper_first)
