"""Principal congruences two ways, and where the closed form breaks.

The least congruence collapsing a pair (a, b) can be computed on any
lattice as a fixpoint: merge the pair, then keep merging the classes that
a meet or a join with a fixed element sends apart, until none are.  On a
distributive lattice there is a shortcut: x and y are congruent exactly
when b v x = b v y and a ^ x = a ^ y.  Off distributive lattices that
shortcut fails, and this script shows it failing.
"""

from latcong import (
    all_congruences,
    catalogue,
    formula_relation,
    is_congruence,
    principal_congruence,
    principal_congruence_fixpoint,
)

C4 = catalogue("chain(4)")

# Both routes agree on a distributive lattice.
for a, b in [(0, 1), (1, 3), (0, 3)]:
    closed = principal_congruence(C4, a, b)
    closure = principal_congruence_fixpoint(C4, a, b)
    print(f"chain(4) pair ({a},{b}): closed form {closed}  closure {closure}")

# The whole congruence lattice of a chain: one congruence per way of
# cutting the chain into intervals, hence 2^(k-1) of them.
print("congruences of chain(4):")
for cong in all_congruences(C4):
    print("  ", cong)

# On the pentagon the formula's relation need not be a congruence at all.
N5 = catalogue("N5")
rel = formula_relation(N5, 0, 1)
print("pentagon, pair (bot, a): formula relation", rel)
print("  is a congruence?", is_congruence(N5, rel))
print("  closure gives   ", principal_congruence_fixpoint(N5, 0, 1))

# The diamond M3 is simple: collapsing any single pair collapses everything.
M3 = catalogue("M3")
print("diamond, pair (bot, a): closure gives",
      principal_congruence_fixpoint(M3, 0, 1))
