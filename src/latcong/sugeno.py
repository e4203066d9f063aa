"""Lattice-valued capacities and the discrete Sugeno integral.

A capacity assigns a lattice value to every subset of the n criteria,
monotonically, with the empty set at bottom and the full set at top.  The
integral comes in three formulations: the subset expansion (join over
subsets of capacity ^ meet of the selected inputs), the level-set form
(join over thresholds t of t ^ capacity of the inputs above t), and the
pointwise form (join over criteria of input ^ capacity of the inputs at
least as large).  On chains all three agree; on general lattices only the
subset expansion is taken as the definition and the other two are compared
against it empirically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import ArityMismatch, NotAChain, NotAggregation, ValidationError
from .lattice import Lattice
from .polynomials import BLOCK, NormalForm, _monotone_blocks, _submask_order, \
    boolean_restriction, eval_normal_form, is_monotone
from .tables import FunctionTable, check_arity, check_elements, check_input, \
    check_table


@dataclass(frozen=True, init=False, slots=True)
class Capacity(NormalForm):
    """Monotone set function on subsets of the n criteria, with boundaries.

    A capacity is the coefficient table of a normal form whose empty-set
    coefficient is pinned to bottom and full-set coefficient to top.
    ``coefficients[mask]`` is the capacity of the subset whose 1-based
    criteria are the set bits of ``mask`` (bit i-1 for criterion i).
    Validation is eager; downstream code assumes a valid capacity.
    """

    lattice: Lattice = field(repr=False, hash=False)

    def __init__(self, lattice: Lattice, values):
        values = tuple(map(int, values))
        arity = len(values).bit_length() - 1
        if len(values) != 1 << arity or not values:
            raise ValidationError(
                f"capacity needs 2^n entries, got {len(values)}")
        check_elements(lattice.size, values, "capacity value")
        if values[0] != lattice.bottom:
            raise ValidationError(
                f"capacity of the empty set must be bottom, got {values[0]}")
        if values[-1] != lattice.top:
            raise ValidationError(
                f"capacity of the full set must be top, got {values[-1]}")
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "coefficients", values)
        object.__setattr__(self, "lattice", lattice)
        if not self.is_monotone_in_masks(lattice):
            raise ValidationError(
                "capacity not monotone along subset inclusion")


def enumerate_capacities(L: Lattice, n: int):
    """Every capacity on n criteria over L, in deterministic order.

    For n = 0 the empty set is also the full set, so only a one-element
    lattice has a capacity.
    """
    check_arity(n)
    elements = np.arange(L.size)
    allowed = np.ones((1 << n, L.size), dtype=bool)
    allowed[0] &= elements == L.bottom
    allowed[-1] &= elements == L.top
    for block in _monotone_blocks(L.leq_table, *_submask_order(n), allowed):
        for values in block.tolist():
            yield Capacity(L, values)


# The subset expansion is the normal form with the capacity as coefficients.
sugeno_eval = eval_normal_form


def sugeno_eval_levels(L: Lattice, m: Capacity, u) -> int:
    """Level-set form with the threshold ranging over all lattice elements."""
    u = check_input(L.size, m.arity, u)
    acc = L.bottom
    for t in range(L.size):
        mask = sum(1 << i for i in range(m.arity) if L.leq_table[t, u[i]])
        acc = L.join_table[acc, L.meet_table[t, m.coefficients[mask]]]
    return int(acc)


def sugeno_eval_pointwise(L: Lattice, m: Capacity, u) -> int:
    """Pointwise form: join over i of u_i ^ m({j : u_j >= u_i})."""
    u = check_input(L.size, m.arity, u)
    acc = L.bottom
    for i in range(m.arity):
        mask = sum(1 << j for j in range(m.arity) if L.leq_table[u[i], u[j]])
        acc = L.join_table[acc, L.meet_table[u[i], m.coefficients[mask]]]
    return int(acc)


def sugeno_table(L: Lattice, m: Capacity) -> FunctionTable:
    """Lower the integral to an explicit function table."""
    from .compat import normal_form_table  # compat imports this module
    return normal_form_table(L, m)


def capacity_from_function(L: Lattice, A: FunctionTable) -> Capacity:
    """Extract the capacity of an aggregation table: m(I) = A at the vertex of I.

    Raises NotAggregation unless A is monotone with bottom/top boundaries.
    """
    check_table(L, A)
    if A.value_at((L.bottom,) * A.arity) != L.bottom \
            or A.value_at((L.top,) * A.arity) != L.top:
        raise NotAggregation("boundary conditions fail at the constant vertices")
    if not is_monotone(L, A):
        raise NotAggregation("table is not nondecreasing in every coordinate")
    return Capacity(L, boolean_restriction(L, A).coefficients)


# --- axiomatic property checks (exhaustive at desk scale) ------------------
#
# Each law is a gather on the table of a capacity's integral, or of any table
# of L passed instead.


def _values(L: Lattice, m: Capacity | FunctionTable):
    """The table's values as an array, and the plan of L at its arity."""
    from .compat import _plan  # compat imports this module
    f = m if isinstance(m, FunctionTable) else sugeno_table(L, m)
    check_table(L, f)
    return np.array(f.values), _plan(L, f.arity, "principal-only")


def check_idempotent(L: Lattice, m: Capacity | FunctionTable) -> bool:
    """Integral of a constant vector is that constant."""
    values, plan = _values(L, m)
    c = np.arange(L.size)
    return bool((values[c * plan.strides.sum()] == c).all())


def check_min_homogeneous(L: Lattice, m: Capacity | FunctionTable) -> bool:
    """Integral of c ^ u equals c ^ integral of u, for every c and u."""
    values, plan = _values(L, m)
    lowered = L.meet_table[:, plan.grid] @ plan.strides
    return bool((values[lowered] == L.meet_table[:, values]).all())


def check_comonotone_maxitive(L: Lattice, m: Capacity | FunctionTable) -> bool:
    """Integral of u v v splits as a join, for comonotone u, v (chains only)."""
    if not L.is_chain:
        raise NotAChain("comonotonicity is only defined on chain lattices here")
    values, plan = _values(L, m)
    u, v, merged = plan.comonotone
    return bool((values[merged] == L.join_table[values[u], values[v]]).all())


def check_horizontally_maxitive(L: Lattice, m: Capacity | FunctionTable) -> bool:
    """Integral splits at every level c into the capped and the excess part.

    The excess part zeroes out coordinates at or below c and keeps the rest;
    chains only.
    """
    if not L.is_chain:
        raise NotAChain("horizontal splitting is only checked on chains here")
    values, plan = _values(L, m)
    capped = L.meet_table[:, plan.grid] @ plan.strides
    excess = np.where(L.leq_table[plan.grid].transpose(2, 0, 1), L.bottom,
                      plan.grid) @ plan.strides
    return bool((L.join_table[values[capped], values[excess]] == values).all())


# --- formulation comparison -------------------------------------------------


@dataclass(frozen=True)
class Disagreement:
    capacity_values: tuple[int, ...]
    input: tuple[int, ...]
    levels: int
    pointwise: int
    subsets: int


@dataclass(frozen=True)
class FormulationReport:
    """Exhaustive comparison of the three integral formulations."""

    lattice_name: str
    arity: int
    capacities: int
    inputs: int
    disagreements: tuple[Disagreement, ...] = field(default_factory=tuple)

    @property
    def agree(self) -> bool:
        return not self.disagreements

    def render(self) -> str:
        lines = [
            f"formulations on {self.lattice_name}, arity {self.arity}: "
            f"{self.capacities} capacities x {self.inputs} inputs, "
            f"{len(self.disagreements)} disagreements"
        ]
        for d in self.disagreements:
            lines.append(
                f"  m={d.capacity_values} u={d.input} "
                f"levels={d.levels} pointwise={d.pointwise} subsets={d.subsets}")
        return "\n".join(lines)


def compare_formulations(L: Lattice, n: int) -> FormulationReport:
    """Evaluate all three formulations over every capacity and input.

    Capacities are evaluated as stacks of ``BLOCK``; only the (capacity,
    input) cells where the forms disagree are visited one by one.
    """
    from .compat import _level_rows, _plan, _pointwise_rows, _rebuild_rows
    if n < 0:
        raise ArityMismatch(f"arity must be non-negative, got {n}")
    plan = _plan(L, n, "principal-only")
    found = []
    count = 0
    capacities = enumerate_capacities(L, n)
    while block := [m.coefficients for m in islice(capacities, BLOCK)]:
        count += len(block)
        coefficients = np.array(block, dtype=plan.dtype)
        forms = [rows(plan, coefficients)
                 for rows in (_level_rows, _pointwise_rows, _rebuild_rows)]
        apart = (forms[0] != forms[1]) | (forms[1] != forms[2])
        found.extend(Disagreement(block[r], tuple(plan.grid[x].tolist()),
                                  *(int(form[r, x]) for form in forms))
                     for r, x in zip(*np.nonzero(apart)))
    return FormulationReport(L.name or f"size-{L.size}", n, count,
                             len(plan.grid), tuple(found))
