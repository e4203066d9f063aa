"""Four faces of the same class of functions.

For a nondecreasing function on a bounded distributive lattice, the
following are equivalent: it preserves every congruence; every coordinate
slice is the median of its bottom and top sections; it is determined by
its values at the boolean vertices; it equals the join-of-meets built
from those vertices.  The aggregation functions in this class are exactly
the Sugeno integrals.  This script walks one example through all four and
then counts the whole class by enumeration.
"""

from latcong import (
    FunctionTable,
    boolean_restriction,
    capacity_from_function,
    catalogue,
    eval_normal_form,
    is_compatible,
    median_decomposition_check,
    sugeno_table,
    synthesize,
    verify_equivalence_suite,
)

C3 = catalogue("chain(3)")

# A monotone unary function that jumps over the midpoint: 0, 2, 2.
bent = FunctionTable(1, 3, (0, 2, 2))
print("table (0, 2, 2):")
print("  preserves congruences? ", is_compatible(C3, bent))
print("  median decomposition?  ", median_decomposition_check(C3, bent))
nf, rebuilt = synthesize(C3, bent)
print("  boolean vertices       ", nf.coefficients)
print("  rebuild matches?       ", rebuilt)
print("  rebuild at midpoint    ", eval_normal_form(C3, nf, (1,)),
      " (the table says 2)")

# The identity is fine: its median interpolation is itself.
ident = FunctionTable(1, 3, (0, 1, 2))
print("table (0, 1, 2): compatible?", is_compatible(C3, ident))

# Exhaustive accounting at arity 2: every monotone table is classified,
# compatible tables inject into their boolean vertices, and the
# compatible aggregation tables match the capacities one for one.
report = verify_equivalence_suite(C3, 2)
print(report.render())

# The capacity behind a compatible aggregation table is read off the
# characteristic vectors, and integrating it recovers the table.
maximum = FunctionTable.from_callable(3, 2, max)
m = capacity_from_function(C3, maximum)
print("capacity of max:", m.coefficients)
print("integral of that capacity equals max?",
      sugeno_table(C3, m) == maximum)
print("boolean restriction of max:",
      boolean_restriction(C3, maximum).coefficients)
