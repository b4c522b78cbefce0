"""Partition counting: the DP counts, the enumeration oracle, correspondences.

Run:  python demos/partition_counting.py
"""

from qpartid import (
    PartitionSpec,
    count_P,
    count_P_of,
    count_P_star,
    count_Q,
    count_Q_of,
    count_tables,
    enumerate_partitions,
    evaluate_case,
)

# count_P(n, m, p): partitions of n into exactly m parts, each at most p.
# count_Q is the same with distinct parts.  Both are exact one-shot counts,
# each expanded from one rolling list of n + 1 integers.
print("P(10, m, 4) and Q(10, m, 4) by number of parts m")
print("  m   P   Q")
for m in range(8):
    print(f"  {m}  {count_P(10, m, 4):2d}  {count_Q(10, m, 4):2d}")

# A verification run reads its counts from one fill instead: the tables
# t_p[n][m] for every p up to a bound, built layer by layer from the
# smallest-part recurrence, which shares no code with the one-shot counts.
P, Q = (count_tables(11, 8, 4, distinct) for distinct in (False, True))
print("the fill agrees at n = 10, p = 4:", P[4][10] == [count_P(10, m, 4) for m in range(8)]
      and Q[4][10] == [count_Q(10, m, 4) for m in range(8)])

# The enumeration oracle produces the actual partitions, so any count can be
# spot-checked against a list you can read.
spec = PartitionSpec(9, exact_parts=3, max_part=5, distinct=True)
parts = enumerate_partitions(spec)
print("\npartitions of 9 into 3 distinct parts, each at most 5:")
for part in parts:
    print("  ", part)
print("count_Q(9, 3, 5) =", count_Q(9, 3, 5), "== len(oracle) =", len(parts))

# Two correspondences tie the families together: box counts against
# exact-part counts, and distinct counts against a staircase shift.  Both are
# registry identities, checked here one (n, m, p) case at a time.
print("\ncorrespondences hold on a sample grid:")
ok = all(
    evaluate_case(identity_id, {"n": n, "m": m, "p": p}).passed
    for identity_id in ("pnmp_correspondence", "qnmp_correspondence")
    for n in range(12)
    for m in range(12)
    for p in range(12)
)
print("  all pass for n, m, p < 12:", ok)

# The cumulative count P*(n, m, p) caps the number of parts instead of
# fixing it, which is what a Gaussian polynomial coefficient counts.
print("\nP*(6, m, 3) as m grows:", [count_P_star(6, m, 3) for m in range(8)])

print("\nunrestricted counts: P(n) and Q(n) for n <= 10")
print("  P:", [count_P_of(n) for n in range(11)])
print("  Q:", [count_Q_of(n) for n in range(11)])
