"""Exact partition counting, plus a brute-force enumerator used as the oracle.

Counting conventions:
  count_P(n, m, p): partitions of n into exactly m parts, each part at most p.
  count_Q(n, m, p): the same with all parts distinct.
Out-of-range arguments (negative n, m or p, or n outside the feasible band)
count zero rather than raising, because the identity checks generate such
arguments freely.  m == 0 counts the empty partition: 1 if n == 0 else 0,
for any p.  The unbounded part-size sentinel is UNBOUNDED (p = n suffices,
since no part of a partition of n can exceed n).

Both counts come from one recurrence that splits on the smallest part:
either it is 1 and is dropped, or 1 comes off every part.  For P the
children are (n-1, m-1, p) and (n-m, m, p-1).  For Q a dropped 1 leaves
distinct parts >= 2, which lose 1 each too, so the children are
(n-m, m-1, p-1) and (n-m, m, p-1) and n falls by m at every step.

Single queries (the CLI's table and gauss commands) go through box_counts
and its reductions instead: each expands one rolling list of n+1 integers
and never touches the memo, which would keep a key for every argument its
recurrence reaches.

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
from math import isqrt
from typing import NamedTuple, Optional

UNBOUNDED = None
ORACLE_LIMIT_DEFAULT = 30


class CountTable:
    """Memoized P and Q counts from the one smallest-part recurrence.

    The memo maps are unbounded.  Every Q step takes m off n, so a fill
    reaches few keys: the distinct-part count q(300) leaves 3,878.
    """

    def __init__(self):
        self.memo_P: dict[tuple[int, int, int], int] = {}
        self.memo_Q: dict[tuple[int, int, int], int] = {}

    def count_P(self, n: int, m: int, p: Optional[int]) -> int:
        return _count(self.memo_P, False, n, m, p)

    def count_Q(self, n: int, m: int, p: Optional[int]) -> int:
        return _count(self.memo_Q, True, n, m, p)


def _entry(distinct: bool, n: int, m: int, p: Optional[int]):
    """The count when the base rules decide it, else its canonical memo key.

    m parts fit in n when m <= n <= m*p; distinct parts need the staircase
    0, 1, ..., m-1 on top of that, which narrows the band by C(m, 2) at
    both ends.
    """
    if m == 0:
        return 1 if n == 0 else 0
    if p is UNBOUNDED or p > n:
        p = n  # a part never exceeds n; canonicalizes the memo key
    stair = m * (m - 1) // 2 if distinct else 0
    if m < 0 or p < 0 or not m + stair <= n <= m * p - stair:
        return 0
    return (n, m, p)


def _children(distinct: bool, n: int, m: int, p: int):
    """The two entries that sum to (n, m, p): smallest part 1, or larger."""
    if distinct:
        ones = _entry(True, n - m, m - 1, p - 1)
    else:
        ones = _entry(False, n - 1, m - 1, p)
    return ones, _entry(distinct, n - m, m, p - 1)


def _count(memo: dict, distinct: bool, n: int, m: int, p: Optional[int]) -> int:
    """P(n, m, p), or Q(n, m, p) when distinct, from memo, filling it first.

    An explicit stack replaces recursion, so a long chain of misses is
    bounded by memory rather than by the interpreter's recursion limit.
    """
    key = _entry(distinct, n, m, p)
    if type(key) is int:
        return key
    get = memo.get
    val = get(key)
    if val is not None:
        return val
    stack = [key]
    while stack:
        top = stack[-1]
        a, b = _children(distinct, *top)
        val_a = a if type(a) is int else get(a)
        val_b = b if type(b) is int else get(b)
        if val_a is None or val_b is None:
            if val_a is None:
                stack.append(a)
            if val_b is None:
                stack.append(b)
            continue
        memo[top] = val_a + val_b
        stack.pop()
    return memo[key]


_default_table = CountTable()
# read straight from the module functions, so a memo hit skips the method call
_memo_P, _memo_Q = _default_table.memo_P, _default_table.memo_Q


def count_P(n: int, m: int, p: Optional[int]) -> int:
    """Partitions of n into exactly m parts, each at most p (UNBOUNDED allowed)."""
    return _count(_memo_P, False, n, m, p)


def count_Q(n: int, m: int, p: Optional[int]) -> int:
    """Partitions of n into exactly m distinct parts, each at most p."""
    return _count(_memo_Q, True, n, m, p)


def fewest_parts(n: int, p: Optional[int]) -> int:
    """The least part count k that can hold n in parts of size at most p, which hold at most k*p.

    0 for n <= 0 or an unbounded p, and n + 1, past every k <= n, when n > 0 and p <= 0.
    """
    if n <= 0 or p is UNBOUNDED:
        return 0
    return -(-n // p) if p > 0 else n + 1


def count_P_star(n: int, m: int, p: Optional[int]) -> int:
    """Partitions of n into at most m parts, each at most p."""
    # P(n, k, p) is 0 once k > n, and while k*p < n
    return sum(count_P(n, k, p) for k in range(fewest_parts(n, p), min(m, n) + 1))


def count_Q_star(n: int, m: int, p: Optional[int]) -> int:
    """Partitions of n into at most m distinct parts, each at most p."""
    # Q(n, k, p) is 0 once 1 + 2 + ... + k = C(k+1, 2) > n, and once k > p:
    # k distinct parts need k sizes of at most p
    top = min(m, (isqrt(8 * n + 1) - 1) // 2) if n >= 0 else -1
    if p is not UNBOUNDED:
        top = min(top, max(p, 0))
    return sum(count_Q(n, k, p) for k in range(top + 1))


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


# --- one-shot counts for single queries --------------------------------------
#
# A single query needs no memo: the partitions of N into at most r parts,
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


def box_count_P(n: int, m: int, p: Optional[int]) -> int:
    """count_P(n, m, p) without the memo.

    Taking one off each of the m parts leaves n - m in an m-by-(p-1) box.
    """
    if m == 0:
        return 1 if n == 0 else 0
    if m < 0 or (p is not None and p < 1):
        return 0
    return box_count(n - m, m, None if p is None else p - 1)


def box_count_Q(n: int, m: int, p: Optional[int]) -> int:
    """count_Q(n, m, p) without the memo.

    Taking m, m-1, ..., 1 off the distinct parts, largest first, leaves
    n - m(m+1)/2 in an m-by-(p-m) box.
    """
    if m == 0:
        return 1 if n == 0 else 0
    if m < 0 or (p is not None and p < m):
        return 0
    return box_count(n - m * (m + 1) // 2, m, None if p is None else p - m)


def box_count_Q_star(n: int, m: int, p: Optional[int]) -> int:
    """count_Q_star(n, m, p) without the memo, summed over the feasible part counts."""
    k = 0
    total = 0
    while k <= m and k * (k + 1) // 2 <= n:
        total += box_count_Q(n, k, p)
        k += 1
    return total


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
