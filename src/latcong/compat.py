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
from functools import lru_cache
from itertools import chain, islice

import numpy as np

from .congruences import principal_congruences
from .errors import BudgetExceeded, InvalidArgument, NotMonotone
from .lattice import Lattice, _integer, check_elements, check_type
from .polynomials import NormalForm, _rebuild_rows, boolean_restriction, \
    is_monotone, normal_form_table
from .sugeno import enumerate_capacities
from .tables import BLOCK, FunctionTable, _apply, _map_blocks, _plan, \
    check_arity, check_table

__all__ = [
    "FunctionTable",
    "is_compatible",
    "median_decomposition_check",
    "boolean_restriction",
    "synthesize",
    "normal_form_table",
    "enumerate_monotone_tables",
    "verify_equivalence_suite",
    "EquivalenceReport",
]

# The most tables the enumerator yields by default, and the most tables one
# arity down that the scan reads before it prunes.
BUDGET = 10 ** 6

# --- kernels on table stacks (see ``tables``) -----------------------------------


@lru_cache(maxsize=64)
def _pairs(L: Lattice, n: int):
    """Input pairs that one principal congruence relates, one per input.

    Per congruence and input x, x is paired with the input that moves every
    coordinate to the least-numbered member of its class, when that differs
    from x.  Inputs related coordinatewise move to the same input, so by
    transitivity these pairs cover every related pair.  Returns the
    congruence index, the two input indices of each pair and the
    class-equality table of each congruence.
    """
    plan = _plan(L, n)
    classes = np.array([c.class_of for c in principal_congruences(L)],
                       dtype=np.intp).reshape(-1, L.size)
    same = classes[:, :, None] == classes[:, None, :]
    moved = same.argmax(axis=2)[:, plan.grid] @ plan.strides
    which, left = np.nonzero(moved != np.arange(len(plan.grid)))
    return which, left, moved[which, left], same


def _compatible_rows(plan, stack) -> np.ndarray:
    """Per row of a full-grid stack: congruent inputs give congruent outputs."""
    which, left, right, same = _pairs(plan.lattice, plan.arity)
    return same[which, stack[:, left], stack[:, right]].all(axis=1)


def _median_rows(plan, stack) -> np.ndarray:
    """Per row: every slice is f(x) = (f0 v x_k) ^ f1, with f0 and f1 the
    values at x_k = bottom and top.

    This is f(x) = med(f0, x_k, f1) in any lattice: at x_k = bottom either
    form says f0 = f0 ^ f1, that is f0 <= f1, and then the median
    (f0 v x_k) ^ (f1 v x_k) ^ (f0 v f1) is (f0 v x_k) ^ f1.
    """
    meet, join = plan.meet, plan.join
    holds = np.ones(len(stack), dtype=bool)
    for lows, highs, x in zip(*plan.slices):
        med = _apply(meet, _apply(join, stack[:, lows], x), stack[:, highs])
        holds &= (med == stack).all(axis=1)
    return holds


def _verdicts(plan, stack, prune: bool) -> np.ndarray:
    """(3, T): per row of a stack of monotone tables, whether it is
    compatible, has the median decomposition, and is rebuilt by the normal
    form of its boolean vertices.

    The kernels run only on candidate rows; every other row gets three
    False verdicts.  With ``prune``, set when the three verdicts agree on
    every monotone table one arity down (``_agrees``), a candidate is a row
    whose row slices f(x, .) are all compatible; otherwise every row is
    one.  A row with an incompatible slice then fails all three: a slice of
    a compatible table is compatible; a slice of a table with the median
    decomposition has it too, so it is compatible since arity n - 1 agrees;
    and a slice of a rebuilt table is a polynomial, so it is compatible.
    """
    rows = slice(None)
    if prune:
        L, n = plan.lattice, plan.arity
        whole = _compatible_rows(_plan(L, n - 1), stack.reshape(-1, L.size ** (n - 1)))
        rows = np.flatnonzero(whole.reshape(len(stack), L.size).all(axis=1))
    verdicts = np.zeros((3, len(stack)), dtype=bool)
    part = stack[rows]
    verdicts[0, rows] = _compatible_rows(plan, part)
    verdicts[1, rows] = _median_rows(plan, part)
    rebuilt = _rebuild_rows(plan, part[:, plan.vertices])
    verdicts[2, rows] = (rebuilt == part).all(axis=1)
    return verdicts


def _agrees(L: Lattice, n: int) -> bool:
    """Whether the three verdicts agree on every monotone table L^n -> L.

    False also once more than ``BUDGET`` tables have been read, so a scan
    above arity n then runs its kernels on every row.  The tables come
    straight from ``_map_blocks``, each block pruned by the arity below,
    which is decided once, first.
    """
    plan, seen = _plan(L, n), 0
    prune = n >= 2 and _agrees(L, n - 1)
    for block in _map_blocks(L, n, L):
        seen += len(block)
        if seen > BUDGET:
            return False
        comp, med, rebuilt = _verdicts(plan, block, prune)
        if not ((comp == med) & (med == rebuilt)).all():
            return False
    return True


# --- the four characterizations, one table at a time ----------------------------


def is_compatible(L: Lattice, f: FunctionTable) -> bool:
    """Whether congruent inputs always map to congruent outputs.

    For a congruence, every input is compared with the input whose
    coordinates all move to the least-numbered member of their class: f
    preserves the congruence exactly when each such pair of outputs is
    congruent, since inputs related coordinatewise move to the same input.
    The principal congruences of covering pairs suffice (every congruence is
    a join of them, and preservation is stable under joins).
    """
    check_table(L, f)
    return bool(_compatible_rows(_plan(L, f.arity), np.array([f.values]))[0])


def median_decomposition_check(L: Lattice, f: FunctionTable) -> bool:
    """Whether every coordinate slice satisfies f(x) = med(f0, x_k, f1).

    f0 and f1 are f with coordinate k forced to bottom resp. top.
    """
    check_table(L, f)
    plan = _plan(L, f.arity)
    return bool(_median_rows(plan, np.array([f.values], dtype=plan.dtype))[0])


def synthesize(L: Lattice, f: FunctionTable) -> tuple[NormalForm, bool]:
    """Normal form from the boolean vertices, plus whether it rebuilds f.

    The reconstruction succeeds exactly when f is compatible; a monotone
    but incompatible table differs from its normal form somewhere.
    """
    if not is_monotone(L, f):
        raise NotMonotone("synthesis is defined for nondecreasing tables")
    nf = boolean_restriction(L, f)
    return nf, normal_form_table(L, nf) == f


def _check_filter(filter) -> None:
    if filter not in ("all", "aggregation"):
        raise InvalidArgument(f"unknown filter {filter!r}")


def enumerate_monotone_tables(L: Lattice, n: int, filter: str = "all",
                              budget: int = BUDGET):
    """Yield every nondecreasing table L^n -> L, in value-tuple order.

    filter='aggregation' additionally pins the all-bottom input to bottom
    and the all-top input to top.  Raises BudgetExceeded once ``budget``
    tables have been yielded and another would follow.  Each block of
    tables is range-checked once, so the tables themselves skip validation.
    """
    _check_filter(filter)
    budget, emitted = _integer(budget, "budget"), 0
    if budget < 0:
        raise InvalidArgument(f"budget must be non-negative, got {budget}")
    for block in _map_blocks(L, n, L, pinned=filter == "aggregation"):
        check_elements(L.size, (block.min(), block.max()), "output")
        for row in map(tuple, block[:budget - emitted].tolist()):
            yield FunctionTable._unchecked(n, L.size, row)
        emitted += len(block)
        if emitted > budget:
            raise BudgetExceeded(
                f"monotone-table enumeration exceeded budget {budget}")


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


def verify_equivalence_suite(L: Lattice, n: int,
                             filter: str = "all") -> EquivalenceReport:
    """Exhaustively check the equivalence chain over all monotone tables.

    For every enumerated table: congruence preservation, the median
    decomposition, and normal-form reconstruction must agree.  Compatible
    tables must have pairwise distinct boolean restrictions.  Compatible
    aggregation tables must be exactly the Sugeno integrals of capacities,
    in bijection via boolean restriction.

    Tables and capacities are taken ``BLOCK`` at a time and checked as one
    stack; only compatible or disagreeing rows are visited one by one.  The
    verdict kernels run only on the candidate rows of ``_verdicts``, pruned
    once the lower pass ``_agrees`` finds arity n - 1 in agreement.
    """
    n = check_arity(n)
    plan = _plan(check_type(L, Lattice), n)
    _check_filter(filter)
    prune = n >= 2 and _agrees(L, n - 1)
    monotone = compatible = compatible_aggregation = 0
    equivalence_violations, collisions, integral_violations = [], [], []
    seen_restrictions = {}
    tables = enumerate_monotone_tables(L, n, filter=filter)
    while block := [f.values for f in islice(tables, BLOCK)]:
        monotone += len(block)
        # One flat pass over the values; np.array on the tuples is slower.
        stack = np.fromiter(chain.from_iterable(block), plan.dtype)
        stack = stack.reshape(len(block), -1)
        comp, med, rebuilt = _verdicts(plan, stack, prune)
        agree = (comp == med) & (med == rebuilt)
        # The integral of a table's capacity is the rebuild of its boolean
        # restriction, so a compatible aggregation table is the integral of
        # its own capacity exactly when it is rebuilt.
        aggregation = (stack[:, plan.vertices[0]] == L.bottom) \
            & (stack[:, plan.vertices[-1]] == L.top)
        for r in np.flatnonzero(comp | ~agree).tolist():
            values = block[r]
            if not agree[r]:
                equivalence_violations.append(
                    f"table {values}: compatible={bool(comp[r])} "
                    f"median={bool(med[r])} reconstructed={bool(rebuilt[r])}")
                continue
            compatible += 1
            key = tuple(stack[r, plan.vertices].tolist())
            clash = seen_restrictions.get(key)
            if clash is not None:
                collisions.append(
                    f"tables {clash} and {values} share boolean "
                    f"restriction {key}")
            seen_restrictions[key] = values
            compatible_aggregation += bool(aggregation[r])
    capacity_count = 0
    capacities = enumerate_capacities(L, n)
    while block := [m.coefficients for m in islice(capacities, BLOCK)]:
        capacity_count += len(block)
        coefficients = np.array(block, dtype=plan.dtype)
        integrals = _rebuild_rows(plan, coefficients)
        comp = _compatible_rows(plan, integrals)
        back = (integrals[:, plan.vertices] == coefficients).all(axis=1)
        for r in np.flatnonzero(~comp | ~back).tolist():
            if not comp[r]:
                integral_violations.append(
                    f"integral of capacity {block[r]} is not compatible")
            if not back[r]:
                integral_violations.append(
                    f"capacity {block[r]} does not round-trip through its integral")
    return EquivalenceReport(
        L.name or f"size-{L.size}", n, filter, monotone, compatible,
        capacity_count, compatible_aggregation, tuple(equivalence_violations),
        tuple(collisions), tuple(integral_violations))
