"""Compatibility of function tables with lattice congruences.

Four executable characterizations of the same class of functions meet here:
congruence preservation, the median decomposition (every coordinate slice
is med(value at bottom, coordinate, value at top)), determination by the
boolean vertices, and reconstruction as a join-of-meets normal form.  For
nondecreasing functions on bounded distributive lattices all four coincide,
and the aggregation functions among them are exactly the Sugeno integrals
of capacities; ``verify_equivalence_suite`` checks the whole chain by
exhaustive enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .congruences import all_congruences, principal_congruences
from .errors import BudgetExceeded, NotMonotone
from .lattice import Lattice
from .polynomials import NormalForm, _monotone_assignments, \
    boolean_restriction, eval_normal_form, is_monotone
from .sugeno import capacity_from_function, enumerate_capacities, sugeno_table
from .tables import FunctionTable, all_inputs, check_table, encode

__all__ = [
    "FunctionTable",
    "is_compatible",
    "median_decomposition_check",
    "boolean_restriction",
    "synthesize",
    "enumerate_monotone_tables",
    "verify_equivalence_suite",
    "EquivalenceReport",
]


def _congruence_set(L, mode):
    if mode == "principal-only":
        return principal_congruences(L)
    if mode == "all":
        return all_congruences(L)
    raise ValueError(f"unknown mode {mode!r}; use 'principal-only' or 'all'")


def is_compatible(L: Lattice, f: FunctionTable, mode: str = "principal-only") -> bool:
    """Whether congruent inputs always map to congruent outputs.

    Checked one coordinate at a time: perturbing a single coordinate within
    its congruence class must keep the output in class.  Transitivity of the
    congruence telescopes this to full tuples.  The principal congruences of
    covering pairs suffice (every congruence is a join of them, and
    preservation is stable under joins); mode='all' re-checks against the
    full congruence lattice.
    """
    check_table(L, f)
    n = f.arity
    size = L.size
    strides = [size ** (n - 1 - k) for k in range(n)]
    grid = list(all_inputs(size, n))
    vals = f.values
    for cong in _congruence_set(L, mode):
        cls = cong.class_of
        if cong.num_classes == size:
            continue
        for idx, x in enumerate(grid):
            fx = cls[vals[idx]]
            for k in range(n):
                xk = x[k]
                ck = cls[xk]
                stride = strides[k]
                for y in range(xk + 1, size):
                    if cls[y] == ck and cls[vals[idx + (y - xk) * stride]] != fx:
                        return False
    return True


def median_decomposition_check(L: Lattice, f: FunctionTable) -> bool:
    """Whether every coordinate slice satisfies f(x) = med(f0, x_k, f1).

    f0 and f1 are f with coordinate k forced to bottom resp. top.
    """
    check_table(L, f)
    n = f.arity
    size = L.size
    strides = [size ** (n - 1 - k) for k in range(n)]
    vals = f.values
    bottom, top = L.bottom, L.top
    for idx, x in enumerate(all_inputs(size, n)):
        fx = vals[idx]
        for k in range(n):
            stride = strides[k]
            base = idx - x[k] * stride
            f0 = vals[base + bottom * stride]
            f1 = vals[base + top * stride]
            if L.med(f0, x[k], f1) != fx:
                return False
    return True


def synthesize(L: Lattice, f: FunctionTable) -> tuple[NormalForm, bool]:
    """Normal form from the boolean vertices, plus whether it rebuilds f.

    The reconstruction succeeds exactly when f is compatible; a monotone
    but incompatible table differs from its normal form somewhere.
    """
    if not is_monotone(L, f):
        raise NotMonotone("synthesis is defined for nondecreasing tables")
    nf = boolean_restriction(L, f)
    verified = all(eval_normal_form(L, nf, x) == fx
                   for x, fx in zip(all_inputs(L.size, f.arity), f.values))
    return nf, verified


def enumerate_monotone_tables(L: Lattice, n: int, filter: str = "all",
                              budget: int = 10 ** 6):
    """Yield every nondecreasing table L^n -> L, in value-tuple order.

    filter='aggregation' additionally pins the all-bottom input to bottom
    and the all-top input to top.  Raises BudgetExceeded when more than
    ``budget`` tables would be emitted.
    """
    if filter not in ("all", "aggregation"):
        raise ValueError(f"unknown filter {filter!r}")
    size = L.size
    grid = list(all_inputs(size, n))
    leq = L.leq_table

    # For every input position, the earlier positions it must dominate or
    # be dominated by.  Checking against all assigned comparables keeps the
    # scan correct for any element numbering.
    below, above = [], []
    for t, x in enumerate(grid):
        lows, highs = [], []
        for s in range(t):
            y = grid[s]
            if all(leq[a, b] for a, b in zip(y, x)):
                lows.append(s)
            elif all(leq[b, a] for a, b in zip(y, x)):
                highs.append(s)
        below.append(tuple(lows))
        above.append(tuple(highs))

    pinned = ()
    if filter == "aggregation":
        pinned = ((encode((L.bottom,) * n, size), L.bottom),
                  (encode((L.top,) * n, size), L.top))

    for emitted, values in enumerate(
            _monotone_assignments(L, below, above, pinned), start=1):
        if emitted > budget:
            raise BudgetExceeded(
                f"monotone-table enumeration exceeded budget {budget}")
        yield FunctionTable(n, size, values)


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of the exhaustive four-way equivalence scan.

    Violations are split by what failed: the three-way agreement of
    congruence preservation, median decomposition, and reconstruction;
    injectivity of the boolean restriction among compatible tables; and the
    correspondence between compatible aggregation tables and capacities.
    """

    lattice_name: str
    arity: int
    filter: str
    monotone_count: int
    compatible_count: int
    capacity_count: int
    compatible_aggregation_count: int
    equivalence_violations: tuple[str, ...] = field(default_factory=tuple)
    restriction_collisions: tuple[str, ...] = field(default_factory=tuple)
    integral_violations: tuple[str, ...] = field(default_factory=tuple)

    @property
    def bijection_holds(self) -> bool:
        return self.compatible_aggregation_count == self.capacity_count \
            and not self.integral_violations

    @property
    def ok(self) -> bool:
        return not self.equivalence_violations \
            and not self.restriction_collisions and self.bijection_holds

    def render(self) -> str:
        lines = [
            f"equivalence scan on {self.lattice_name}, arity {self.arity}, "
            f"filter {self.filter}: {self.monotone_count} monotone, "
            f"{self.compatible_count} compatible, "
            f"{self.compatible_aggregation_count} compatible aggregation, "
            f"{self.capacity_count} capacities"
        ]
        for group in (self.equivalence_violations, self.restriction_collisions,
                      self.integral_violations):
            lines.extend(f"  {v}" for v in group)
        return "\n".join(lines)


def verify_equivalence_suite(L: Lattice, n: int, filter: str = "all",
                             budget: int = 10 ** 6) -> EquivalenceReport:
    """Exhaustively check the equivalence chain over all monotone tables.

    For every enumerated table: congruence preservation, the median
    decomposition, and normal-form reconstruction must agree.  Compatible
    tables must have pairwise distinct boolean restrictions.  Compatible
    aggregation tables must be exactly the Sugeno integrals of capacities,
    in bijection via boolean restriction.
    """
    monotone = 0
    compatible = 0
    compatible_aggregation = 0
    equivalence_violations = []
    collisions = []
    integral_violations = []
    seen_restrictions = {}
    bottom_vertex = (L.bottom,) * n
    top_vertex = (L.top,) * n
    for f in enumerate_monotone_tables(L, n, filter=filter, budget=budget):
        monotone += 1
        comp = is_compatible(L, f)
        med = median_decomposition_check(L, f)
        nf, rebuilt = synthesize(L, f)
        if not (comp == med == rebuilt):
            equivalence_violations.append(
                f"table {f.values}: compatible={comp} median={med} "
                f"reconstructed={rebuilt}")
            continue
        if comp:
            compatible += 1
            clash = seen_restrictions.get(nf.coefficients)
            if clash is not None:
                collisions.append(
                    f"tables {clash} and {f.values} share boolean "
                    f"restriction {nf.coefficients}")
            seen_restrictions[nf.coefficients] = f.values
            if f.value_at(bottom_vertex) == L.bottom \
                    and f.value_at(top_vertex) == L.top:
                compatible_aggregation += 1
                m = capacity_from_function(L, f)
                if sugeno_table(L, m) != f:
                    integral_violations.append(
                        f"aggregation table {f.values} is not the integral "
                        f"of its own capacity {m.coefficients}")
    capacity_count = 0
    for m in enumerate_capacities(L, n):
        capacity_count += 1
        table = sugeno_table(L, m)
        if not is_compatible(L, table):
            integral_violations.append(
                f"integral of capacity {m.coefficients} is not compatible")
        if capacity_from_function(L, table) != m:
            integral_violations.append(
                f"capacity {m.coefficients} does not round-trip through its integral")
    return EquivalenceReport(
        L.name or f"size-{L.size}", n, filter, monotone, compatible,
        capacity_count, compatible_aggregation, tuple(equivalence_violations),
        tuple(collisions), tuple(integral_violations))
