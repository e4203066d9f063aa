"""The discrete Sugeno integral on lattices, in three formulations.

A capacity weighs every subset of criteria; the integral of an input
vector joins, over all subsets, the capacity of the subset capped by the
worst input inside it.  On chains the equivalent level-set and pointwise
forms are classical; on a general lattice the pointwise form can drift
below the others, and this script exhibits a witness.
"""

from latcong import (
    Capacity,
    catalogue,
    check_comonotone_maxitive,
    check_horizontally_maxitive,
    check_idempotent,
    check_min_homogeneous,
    compare_formulations,
    sugeno_eval,
    sugeno_eval_levels,
    sugeno_eval_pointwise,
)

C3 = catalogue("chain(3)")
m = Capacity(C3, (0, 1, 1, 2))  # m({1}) = m({2}) = 1 on the 3-chain

u = (2, 0)
print("chain(3), capacity", m.coefficients, "input", u)
print("  subset form   :", sugeno_eval(C3, m, u))
print("  level form    :", sugeno_eval_levels(C3, m, u))
print("  pointwise form:", sugeno_eval_pointwise(C3, m, u))

# The axioms that characterize the integral on chains, checked brute force.
print("axioms for this capacity:")
print("  idempotent            :", check_idempotent(C3, m))
print("  min-homogeneous       :", check_min_homogeneous(C3, m))
print("  comonotone maxitive   :", check_comonotone_maxitive(C3, m))
print("  horizontally maxitive :", check_horizontally_maxitive(C3, m))

# Exhaustive comparison over every capacity and input.  Chains agree;
# the 2x2 boolean cube happens to agree too at arity 2; the 3-cube does not.
for name in ("chain(4)", "boolean(2)", "boolean(3)"):
    report = compare_formulations(catalogue(name), 2)
    print(f"{name:12s} arity 2: {len(report.disagreements)} disagreements "
          f"over {report.capacities} capacities")

# A concrete disagreement: the capacity that only values the full set.
B3 = catalogue("boolean(3)")
m3 = Capacity(B3, (0, 0, 0, 7))
u = (0b011, 0b101)  # two faces of the cube meeting in an edge
print("boolean(3) witness: subset form", sugeno_eval(B3, m3, u),
      " pointwise form", sugeno_eval_pointwise(B3, m3, u))
