"""Walking the identity registry and inspecting one check up close.

Run:  python demos/identity_verification.py
"""

from qpartid import evaluate_case, format_poly, q_identity_sides, registry, run_identity

# The registry holds every identity as an executable descriptor with its
# parameter names and default verification grid.
entries = registry()
print(f"registry holds {len(entries)} identities:")
for kind in ("q_polynomial", "count_integer", "combinatorial_q1"):
    ids = [d.id for d in entries if d.kind == kind]
    print(f"  {kind}: {len(ids)}")
    print("    " + ", ".join(ids))

# Each check builds both sides independently and compares exactly.  Here is
# one instance of a single-sum identity, with the polynomials shown.
params = {"n": 4, "m": 2}
lhs, rhs = q_identity_sides("result1", params)
print(f"\nresult1 at {params}")
print("  lhs =", format_poly(lhs))
print("  rhs =", format_poly(rhs))
print("  equal:", lhs == rhs)

# Running a descriptor over a small slice of its grid.
desc = next(d for d in entries if d.id == "theorem1")
small_grid = {"n": list(range(6)), "m": list(range(6)), "p": list(range(4))}
results = run_identity(desc.id, small_grid)
print(f"\ntheorem1 over {len(results)} small cases: all pass =", all(r.passed for r in results))

# A failing comparison is reported with the first mismatch location; forcing
# one here shows the shape of a failure record.
bad = evaluate_case("delta", {"n": 0, "m": 0}, tamper=True)
print("\ntampered delta case:")
print("  passed:", bad.passed)
print("  first_mismatch:", bad.first_mismatch)
print("  lhs_hash:", bad.lhs_hash[:16], "...")
print("  rhs_hash:", bad.rhs_hash[:16], "...")
