"""Gaussian polynomials: construction, symmetry, and base dilation.

Run:  python demos/gaussian_polynomials.py
"""

from qpartid import (
    binom,
    bracket_base,
    coeff_at,
    format_poly,
    gaussian,
    poly_eval_int,
)

# A Gaussian polynomial counts the partitions that fit inside a box: the
# coefficient of q^n in gaussian(m, p) is the number of partitions of n with
# at most m parts, each part at most p.
print("gaussian(m, p) for small boxes")
for m in range(5):
    print(f"  m={m}: {format_poly(gaussian(m, 2))}")

# At q = 1 the polynomial collapses onto the ordinary binomial coefficient.
print("\nvalue at q=1 versus C(m+p, m)")
for m, p in [(3, 4), (5, 5), (10, 7)]:
    g = gaussian(m, p)
    print(f"  ({m},{p}): eval {poly_eval_int(g, 1)}  binomial {binom(m + p, m)}")

# The coefficient list is palindromic (conjugating a partition inside the box
# swaps weight n with weight mp - n), and the box is symmetric in m and p.
g = gaussian(3, 4)
print("\ngaussian(3,4) coefficients:", list(g.coeffs))
print("reversed:                  ", list(reversed(g.coeffs)))
print("gaussian(4,3) equals gaussian(3,4):", gaussian(4, 3) == g)

# Reading the bracket in base q^c dilates every exponent; out-of-range keys
# are the zero polynomial so summations never need explicit guards.
print("\nbracket(4, 2) in bases 1..3")
for base in (1, 2, 3):
    print(f"  base {base}: {format_poly(bracket_base(4, 2, base))}")
print("out-of-range bracket(3, 5):", format_poly(bracket_base(3, 5)))

# Coefficient extraction works like an indexing bracket.
print("\n[q^6] gaussian(3,4) =", coeff_at(g, 6))
