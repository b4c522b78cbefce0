"""Bivariate generating functions for bounded-part partitions.

Run:  python demos/generating_functions.py
"""

from qpartid import count_P, count_Q, genfun_table

Q_ORDER = 12
Z_DEGREE = 5
P_BOUND = 3

# Partitions with parts of size at most p have a two-variable series: q tracks
# the weight, z the number of parts.  The product of reciprocal factors
# 1/(1 - z q^j) for j = 1..p expands to sum P(n, m, p) q^n z^m, and the plain
# product (1 + z q^j) to sum Q(n, m, p) q^n z^m.  genfun_table multiplies the
# factors into an integer table whose entry [m][n] is the q^n z^m coefficient.
p_table = genfun_table(P_BOUND, Q_ORDER, Z_DEGREE, distinct=False)
q_table = genfun_table(P_BOUND, Q_ORDER, Z_DEGREE, distinct=True)

print(f"coefficients of q^n z^m in the reciprocal product, p = {P_BOUND}")
header = "  n: " + " ".join(f"{n:3d}" for n in range(Q_ORDER + 1))
print(header)
for m in range(Z_DEGREE + 1):
    row = " ".join(f"{p_table[m][n]:3d}" for n in range(Q_ORDER + 1))
    print(f"  m={m} {row}")

print("\nsame table from count_P directly")
for m in range(Z_DEGREE + 1):
    row = " ".join(f"{count_P(n, m, P_BOUND):3d}" for n in range(Q_ORDER + 1))
    print(f"  m={m} {row}")

mismatches = sum(
    1
    for n in range(Q_ORDER + 1)
    for m in range(Z_DEGREE + 1)
    if p_table[m][n] != count_P(n, m, P_BOUND)
    or q_table[m][n] != count_Q(n, m, P_BOUND)
)
print(f"\nmismatches against count_P / count_Q over the full table: {mismatches}")

# A single spot value, readable by hand: q^5 z^2 in the distinct-part product
# counts partitions of 5 into two distinct parts of size at most 3 -- only 3+2.
print("coefficient of q^5 z^2 in the distinct product:", q_table[2][5])
