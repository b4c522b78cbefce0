"""Exact partition counting, plus a brute-force enumerator used as the oracle.

Counting conventions:
  count_P(n, m, p): partitions of n into exactly m parts, each part at most p.
  count_Q(n, m, p): the same with all parts distinct.
Out-of-range arguments (negative n, m or p, or n outside the feasible band)
count zero rather than raising, because the identity checks generate such
arguments freely.  m == 0 counts the empty partition: 1 if n == 0 else 0,
for any p.  The unbounded part-size sentinel is UNBOUNDED (p = n suffices,
since no part of a partition of n can exceed n).

Counts come from two independent sources, and neither keeps anything
between calls:

* count_tables fills the tables t_p[n][m] = P(n, m, p), or Q(n, m, p), for
  p = 0..p_max, one layer at a time, from the recurrence that splits on the
  smallest part: either it is 1 and is dropped, or 1 comes off every part.
  For P that gives P(n, m, p) = P(n-1, m-1, p) + P(n-m, m, p-1).  For Q a
  dropped 1 leaves distinct parts >= 2, which lose 1 each too, so
  Q(n, m, p) = Q(n-m, m-1, p-1) + Q(n-m, m, p-1).  A verification run fills
  the tables its grid reaches, once, and reads every count from them.
* The one-shot counts (box_counts and the count_* functions built on it)
  expand one rolling list of n+1 integers per query, and distinct_series
  expands the signed products prod (1 +- x^j), which give the distinct-part
  series.

The enumerators share no code with the DP recurrences: they generate the
actual partitions, so they can anchor the counts.  enumerate_partitions
lists the partitions that one PartitionSpec admits, by recursive descent.
oracle_counts is the one-pass oracle: it generates the partitions of n in
place with ZS1 (Zoghbi and Stojmenovic, 1998; Knuth, TAOCP 4A 7.2.1.4), in
the same order, and tabulates every count_P(n, m, p) and count_Q(n, m, p) as
each partition appears, holding no list of them.  The two are independent,
so the tests check one against the other.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple, Optional

UNBOUNDED = None
ORACLE_LIMIT_DEFAULT = 30


def count_tables(rows: int, cols: int, p_max: int, distinct: bool = False) -> list[list[list[int]]]:
    """[t_0, ..., t_p_max]: t_p[n][m] = P(n, m, p), or Q(n, m, p) when distinct, for n < rows and m < cols.

    Layer 0 holds the empty partition alone, and each later layer is filled
    from itself and the layer below by the smallest-part recurrence, row n
    ascending.  No part of an n < rows exceeds rows - 1, so every layer past
    rows - 1 is that layer, one list object.
    """
    layers = [[[int(n == m == 0) for m in range(cols)] for n in range(rows)]]
    top = min(p_max, rows - 1)
    for p in range(1, top + 1):
        lower, layer = layers[-1], []
        for n in range(rows):
            # m parts need n >= m, so cells past column n stay 0
            reach = range(1, min(n, cols - 1) + 1)
            if distinct:
                row = [int(n == 0)] + [lower[n - m][m - 1] + lower[n - m][m] for m in reach]
            else:
                prev = layer[n - 1] if n else None
                row = [int(n == 0)] + [prev[m - 1] + lower[n - m][m] for m in reach]
            layer.append(row + [0] * (cols - len(row)))
        layers.append(layer)
    layers += [layers[-1]] * (p_max - top)
    return layers[: p_max + 1]


# --- one-shot counts ---------------------------------------------------------
#
# A single query needs no table: the partitions of N into at most r parts,
# each at most s, fill an r-by-s box, so by conjugation their count is the
# coefficient of q^N in the Gaussian polynomial [a+b, a] with a = min(r, s)
# and b = max(r, s).  That polynomial is prod_{i=1..a} (1 - q^(b+i)) / (1 - q^i),
# expanded into one rolling list of N+1 integers.  When b >= N the numerator
# factors lie past q^N, and the list is the usual count by parts at most a.


def box_counts(n: int, max_parts: Optional[int], max_part: Optional[int]) -> list[int]:
    """c[t] for t <= n: partitions of t into at most max_parts parts, each at most max_part.

    UNBOUNDED leaves a bound off.  The empty partition counts once for any
    part-size bound; a negative part-count bound admits nothing.
    """
    if n < 0:
        return []
    if max_parts is not None and max_parts < 0:
        return [0] * (n + 1)
    r = n if max_parts is None else min(max_parts, n)
    s = n if max_part is None else min(max_part, n)
    a, b = min(r, s), max(r, s)
    c = [1] + [0] * n
    for i in range(1, a + 1):
        for t in range(n, b + i - 1, -1):  # times 1 - q^(b+i)
            c[t] -= c[t - b - i]
        for t in range(i, n + 1):  # over 1 - q^i
            c[t] += c[t - i]
    return c


def box_count(n: int, max_parts: Optional[int], max_part: Optional[int]) -> int:
    """Partitions of n into at most max_parts parts, each at most max_part: box_counts at n."""
    return box_counts(n, max_parts, max_part)[n] if n >= 0 else 0


def distinct_series(n: int, sign: int) -> list[int]:
    """c[t] = sum_l sign^l Q(t, l) for t <= n: the coefficients of prod_{j>=1} (1 + sign x^j).

    sign = 1 counts the partitions of t into distinct parts; sign = -1 gives
    Euler's pentagonal series.  Each factor is multiplied in place, t
    descending, so c[t - j] is still the product before that factor.
    """
    c = [1] + [0] * n
    for j in range(1, n + 1):
        for t in range(n, j - 1, -1):
            c[t] += sign * c[t - j]
    return c


def count_P(n: int, m: int, p: Optional[int]) -> int:
    """Partitions of n into exactly m parts, each at most p (UNBOUNDED allowed).

    Taking one off each of the m parts leaves n - m in an m-by-(p-1) box.
    """
    if m == 0:
        return 1 if n == 0 else 0
    if m < 0 or (p is not None and p < 1):
        return 0
    return box_count(n - m, m, None if p is None else p - 1)


def count_Q(n: int, m: int, p: Optional[int]) -> int:
    """Partitions of n into exactly m distinct parts, each at most p.

    Taking m, m-1, ..., 1 off the distinct parts, largest first, leaves
    n - m(m+1)/2 in an m-by-(p-m) box.
    """
    if m == 0:
        return 1 if n == 0 else 0
    if m < 0 or (p is not None and p < m):
        return 0
    return box_count(n - m * (m + 1) // 2, m, None if p is None else p - m)


def count_P_star(n: int, m: int, p: Optional[int]) -> int:
    """Partitions of n into at most m parts, each at most p."""
    return box_count(n, m, p)


def count_Q_star(n: int, m: int, p: Optional[int]) -> int:
    """Partitions of n into at most m distinct parts, each at most p, summed over the feasible part counts."""
    # Q(n, k, p) is 0 once 1 + 2 + ... + k = C(k+1, 2) > n
    k = 0
    total = 0
    while k <= m and k * (k + 1) // 2 <= n:
        total += count_Q(n, k, p)
        k += 1
    return total


def count_P_most(n: int, p: Optional[int]) -> int:
    """Partitions of n with each part at most p, any number of parts."""
    return count_P_star(n, n, p)


def count_Q_most(n: int, p: Optional[int]) -> int:
    """Partitions of n into distinct parts, each at most p."""
    return count_Q_star(n, n, p)


def count_P_of(n: int) -> int:
    """The unrestricted partition count."""
    return count_P_most(n, UNBOUNDED)


def count_Q_of(n: int) -> int:
    """Partitions of n into distinct parts."""
    return count_Q_most(n, UNBOUNDED)


def count_P_nm(n: int, m: int) -> int:
    """Partitions of n into exactly m parts, part size unbounded."""
    return count_P(n, m, UNBOUNDED)


def count_Q_nm(n: int, m: int) -> int:
    """Partitions of n into exactly m distinct parts, part size unbounded."""
    return count_Q(n, m, UNBOUNDED)


class _SpecFields(NamedTuple):
    n: int
    exact_parts: Optional[int] = None
    max_parts: Optional[int] = None
    max_part: Optional[int] = None
    distinct: bool = False


class PartitionSpec(_SpecFields):
    """What to enumerate: weight n plus optional part-count/part-size bounds.

    An immutable tuple, validated wherever one is made: by the constructor,
    by _replace, and by pickle and copy, which rebuild it through __new__.
    """

    __slots__ = ()

    def __new__(
        cls,
        n: int,
        exact_parts: Optional[int] = None,
        max_parts: Optional[int] = None,
        max_part: Optional[int] = None,
        distinct: bool = False,
    ):
        if exact_parts is not None and max_parts is not None:
            raise ValueError("at most one of exact_parts/max_parts may be set")
        if n < 0:
            raise ValueError("n must be >= 0")
        return super().__new__(cls, n, exact_parts, max_parts, max_part, distinct)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def enumerate_partitions(
    spec: PartitionSpec, oracle_limit: int = ORACLE_LIMIT_DEFAULT
) -> list[list[int]]:
    """All partitions satisfying spec, largest first part first.

    Direct recursive descent independent of the DP recurrences; refuses
    weights above oracle_limit to keep brute force honest about its range.
    """
    if spec.n > oracle_limit:
        raise ValueError(
            f"n={spec.n} exceeds the oracle limit {oracle_limit}"
        )
    biggest = spec.n if spec.max_part is None else min(spec.max_part, spec.n)
    results: list[list[int]] = []
    prefix: list[int] = []

    def descend(remaining: int, cap: int) -> None:
        if remaining == 0:
            k = len(prefix)
            if spec.exact_parts is not None and k != spec.exact_parts:
                return
            if spec.max_parts is not None and k > spec.max_parts:
                return
            results.append(list(prefix))
            return
        if spec.exact_parts is not None and len(prefix) >= spec.exact_parts:
            return
        if spec.max_parts is not None and len(prefix) >= spec.max_parts:
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            descend(remaining - part, part - 1 if spec.distinct else part)
            prefix.pop()

    descend(spec.n, biggest)
    return results


def oracle_counts(
    n: int, oracle_limit: int = ORACLE_LIMIT_DEFAULT
) -> tuple[list[list[int]], list[list[int]]]:
    """Counts of the partitions of n by part count and part-size cap, by enumeration.

    Returns (plain, distinct): two (n+1)x(n+1) tables whose entry [m][p]
    counts the partitions of n into exactly m parts, each at most p, and
    those among them with distinct parts.  ZS1 (Zoghbi and Stojmenovic,
    1998) rewrites one list of parts in place, in the order of
    enumerate_partitions, and each partition is tallied as it appears by its
    length and its largest part; prefix sums over p give the caps.  Memory
    is the two tables and the one list.  Refuses n above oracle_limit, as
    enumerate_partitions does.  Shares no code with the DP recurrences.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > oracle_limit:
        raise ValueError(f"n={n} exceeds the oracle limit {oracle_limit}")
    plain = [[0] * (n + 1) for _ in range(n + 1)]
    distinct = [[0] * (n + 1) for _ in range(n + 1)]
    # x[:k] is the partition, x[:h] its parts above 1; past h it holds 1s
    x = [n] + [1] * n
    k, h = (1, 1) if n > 1 else (n, 0)
    plain[k][n] = distinct[k][n] = 1
    while x[0] > 1:
        if x[h - 1] == 2:
            # a trailing 2 splits into 1 + 1
            x[h - 1] = 1
            h -= 1
            k += 1
        else:
            # the last part above 1 falls by one, and it and the 1s after it
            # are dealt out again as copies of the new part r and a remainder
            r = x[h - 1] - 1
            t = k - h + 1
            x[h - 1] = r
            while t >= r:
                x[h] = r
                h += 1
                t -= r
            k = h + (t > 0)
            if t > 1:
                x[h] = t
                h += 1
        plain[k][x[0]] += 1
        # two 1s repeat a part; otherwise the parts above 1 must all differ
        if k - h <= 1 and len(set(x[:h])) == h:
            distinct[k][x[0]] += 1
    return (
        [list(accumulate(row)) for row in plain],
        [list(accumulate(row)) for row in distinct],
    )
