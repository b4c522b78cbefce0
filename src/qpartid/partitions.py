"""Exact partition counting, plus a brute-force enumerator used as the oracle.

Counting conventions:
  count_P(n, m, p): partitions of n into exactly m parts, each part at most p.
  count_Q(n, m, p): the same with all parts distinct.
Out-of-range arguments (negative n, m or p, or n outside the feasible band)
count zero rather than raising, because the identity checks generate such
arguments freely.  m == 0 counts the empty partition: 1 if n == 0 else 0,
for any p.  The unbounded part-size sentinel is UNBOUNDED (p = n suffices,
since no part of a partition of n can exceed n).

The enumerator shares no code with the DP recurrences: it generates the
actual partitions by recursive descent, so it can anchor the counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

UNBOUNDED = None
ORACLE_LIMIT_DEFAULT = 30


class CountTable:
    """Memoized P and Q counts.  Memo maps are unbounded; grids keep them small."""

    def __init__(self):
        self.memo_P: dict[tuple[int, int, int], int] = {}
        self.memo_Q: dict[tuple[int, int, int], int] = {}

    def count_P(self, n: int, m: int, p: Optional[int]) -> int:
        if p is UNBOUNDED:
            p = n
        if m == 0:
            return 1 if n == 0 else 0
        if n < 0 or m < 0 or p < 0 or n < m or n > m * p:
            return 0
        if p > n:
            p = n  # a part never exceeds n; canonicalizes the memo key
        key = (n, m, p)
        val = self.memo_P.get(key)
        if val is None:
            # split on the smallest part: equal to 1, or subtract 1 everywhere
            val = self.count_P(n - 1, m - 1, p) + self.count_P(n - m, m, p - 1)
            self.memo_P[key] = val
        return val

    def count_Q(self, n: int, m: int, p: Optional[int]) -> int:
        if p is UNBOUNDED:
            p = n
        if m == 0:
            return 1 if n == 0 else 0
        if n < 0 or m < 0 or p < 0:
            return 0
        if p > n:
            p = n
        if n < m * (m + 1) // 2 or n > m * p - m * (m - 1) // 2:
            return 0
        key = (n, m, p)
        val = self.memo_Q.get(key)
        if val is None:
            # split on whether the largest allowed part p is used
            val = self.count_Q(n, m, p - 1) + self.count_Q(n - p, m - 1, p - 1)
            self.memo_Q[key] = val
        return val


_default_table = CountTable()


def count_P(n: int, m: int, p: Optional[int]) -> int:
    """Partitions of n into exactly m parts, each at most p (UNBOUNDED allowed)."""
    return _default_table.count_P(n, m, p)


def count_Q(n: int, m: int, p: Optional[int]) -> int:
    """Partitions of n into exactly m distinct parts, each at most p."""
    return _default_table.count_Q(n, m, p)


def count_P_star(n: int, m: int, p: Optional[int]) -> int:
    """Partitions of n into at most m parts, each at most p."""
    return sum(count_P(n, k, p) for k in range(0, m + 1)) if m >= 0 else 0


def count_Q_star(n: int, m: int, p: Optional[int]) -> int:
    """Partitions of n into at most m distinct parts, each at most p."""
    return sum(count_Q(n, k, p) for k in range(0, m + 1)) if m >= 0 else 0


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


@dataclass(frozen=True)
class PartitionSpec:
    """What to enumerate: weight n plus optional part-count/part-size bounds."""

    n: int
    exact_parts: Optional[int] = None
    max_parts: Optional[int] = None
    max_part: Optional[int] = None
    distinct: bool = False

    def __post_init__(self):
        if self.exact_parts is not None and self.max_parts is not None:
            raise ValueError("at most one of exact_parts/max_parts may be set")
        if self.n < 0:
            raise ValueError("n must be >= 0")


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
