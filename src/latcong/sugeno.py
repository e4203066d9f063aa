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

import numpy as np

from .errors import ForeignElement, NotAChain, NotAggregation, ValidationError
from .lattice import Lattice, check_elements, check_type
from .polynomials import _CHAIN2, NormalForm, _at_point, _coefficient_rows, \
    _rebuild_rows, boolean_restriction, eval_normal_form, is_monotone, \
    normal_form_table
from .tables import FunctionTable, _apply, _join_rows, _map_blocks, _plan, \
    check_arity, check_table


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
        values = check_elements(check_type(lattice, Lattice).size, values,
                                "capacity value")
        arity = len(values).bit_length() - 1
        if len(values) != 1 << arity or not values:
            raise ValidationError(
                f"capacity needs 2^n entries, got {len(values)}")
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

    @classmethod
    def _unchecked(cls, lattice: Lattice, arity: int, values: tuple) -> "Capacity":
        """A capacity from a tuple of ints already known to be one; no
        validation."""
        capacity = cls.__new__(cls)
        object.__setattr__(capacity, "arity", arity)
        object.__setattr__(capacity, "coefficients", values)
        object.__setattr__(capacity, "lattice", lattice)
        return capacity

    def _check_lattice(self, L: Lattice) -> None:
        """ForeignElement unless L is the capacity's lattice, or one of the
        same size and order."""
        if self.lattice is not L and self.lattice != L:
            raise ForeignElement(f"capacity over {self.lattice!r} used with {L!r}")


def _capacity_blocks(L: Lattice, n: int):
    """Every capacity on n criteria over L, as blocks of coefficient rows in
    the row dtype of L, in deterministic order."""
    return _map_blocks(_CHAIN2, n, L, pinned=True)


def enumerate_capacities(L: Lattice, n: int):
    """Every capacity on n criteria over L, in deterministic order.

    For n = 0 the empty set is also the full set, so only a one-element
    lattice has a capacity.  The blocks hold only monotone pinned rows, so
    each block is range-checked once and the capacities skip validation.
    """
    for block in _capacity_blocks(L, n):
        check_elements(L.size, (block.min(), block.max()), "capacity value")
        for values in map(tuple, block.tolist()):
            yield Capacity._unchecked(L, n, values)


# The subset expansion is the normal form with the capacity as coefficients.
sugeno_eval = eval_normal_form


def sugeno_eval_levels(L: Lattice, m: Capacity, u) -> int:
    """Level-set form with the threshold ranging over all lattice elements."""
    return _at_point(_level_rows, L, m, u)


def sugeno_eval_pointwise(L: Lattice, m: Capacity, u) -> int:
    """Pointwise form: join over i of u_i ^ m({j : u_j >= u_i})."""
    return _at_point(_pointwise_rows, L, m, u)


def sugeno_table(L: Lattice, m: Capacity) -> FunctionTable:
    """Lower the integral to an explicit function table."""
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
# Each law is a row kernel: a gather over a stack of tables of L on the
# full grid.  A capacity's table is the rebuild of its coefficients; the
# single checks run the kernel on a stack of one, the integral of a
# capacity or any table of L passed instead.


def _capped(plan):
    """(size, size**n): per level c and input x, the index of the input c ^ x."""
    return plan.lattice.meet_table[:, plan.grid] @ plan.strides


def _idempotent_rows(plan, stack) -> np.ndarray:
    """Per row: the integral of a constant vector is that constant."""
    c = np.arange(plan.lattice.size)
    return (stack[:, c * plan.strides.sum()] == c).all(axis=1)


def _min_homogeneous_rows(plan, stack) -> np.ndarray:
    """Per row: the integral of c ^ u is c ^ the integral of u, for every c and u."""
    c = np.arange(plan.lattice.size)[:, None]
    return (stack[:, _capped(plan)] == plan.meet[c, stack[:, None]]).all(axis=(1, 2))


def _comonotone_maxitive_rows(plan, stack) -> np.ndarray:
    """Per row: the integral of u v v is the join of the integrals of u and
    v, for comonotone u, v (chains only)."""
    if not plan.lattice.is_chain:
        raise NotAChain("comonotonicity is only defined on chain lattices here")
    u, v, merged = plan.comonotone
    return (stack[:, merged] == _apply(plan.join, stack[:, u], stack[:, v])).all(axis=1)


def _horizontally_maxitive_rows(plan, stack) -> np.ndarray:
    """Per row: the integral splits at every level c into the capped and the
    excess part.

    The excess part zeroes out coordinates at or below c and keeps the rest;
    chains only.
    """
    L = plan.lattice
    if not L.is_chain:
        raise NotAChain("horizontal splitting is only checked on chains here")
    excess = np.where(L.leq_table[plan.grid].transpose(2, 0, 1), L.bottom,
                      plan.grid) @ plan.strides
    split = _apply(plan.join, stack[:, _capped(plan)], stack[:, excess])
    return (split == stack[:, None]).all(axis=(1, 2))


def _law(rows, L: Lattice, m: Capacity | FunctionTable) -> bool:
    """A law's row kernel run on the table of m's integral, or on the table
    m, as a stack of one."""
    if isinstance(m, Capacity):
        coefficients = _coefficient_rows(L, m)
        plan = _plan(L, m.arity)
        stack = _rebuild_rows(plan, coefficients)
    else:
        check_table(L, m)
        plan = _plan(L, m.arity)
        stack = np.array([m.values], dtype=plan.dtype)
    return bool(rows(plan, stack)[0])


def check_idempotent(L: Lattice, m: Capacity | FunctionTable) -> bool:
    """Integral of a constant vector is that constant."""
    return _law(_idempotent_rows, L, m)


def check_min_homogeneous(L: Lattice, m: Capacity | FunctionTable) -> bool:
    """Integral of c ^ u equals c ^ integral of u, for every c and u."""
    return _law(_min_homogeneous_rows, L, m)


def check_comonotone_maxitive(L: Lattice, m: Capacity | FunctionTable) -> bool:
    """Integral of u v v splits as a join, for comonotone u, v (chains only)."""
    return _law(_comonotone_maxitive_rows, L, m)


def check_horizontally_maxitive(L: Lattice, m: Capacity | FunctionTable) -> bool:
    """Integral splits at every level c into the capped and the excess part
    (chains only)."""
    return _law(_horizontally_maxitive_rows, L, m)


# --- formulation comparison -------------------------------------------------


def _level_rows(plan, coefficients) -> np.ndarray:
    """The level-set form of coefficient rows: join over t of t ^ c[x >= t]."""
    terms = (plan.meet[t].take(coefficients[:, masks])
             for t, masks in enumerate(plan.level_masks))
    return _join_rows(plan, len(coefficients), terms)


def _pointwise_rows(plan, coefficients) -> np.ndarray:
    """The pointwise form of coefficient rows: join over i of x_i ^ c[x >= x_i]."""
    terms = (_apply(plan.meet, coefficients[:, masks], x)
             for x, masks in zip(plan.grid.T, plan.pointwise_masks))
    return _join_rows(plan, len(coefficients), terms)


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

    Capacities are evaluated a block of coefficient rows at a time; only
    the (capacity, input) cells where the forms disagree are visited one by
    one.
    """
    n = check_arity(n)
    plan = _plan(check_type(L, Lattice), n)
    found = []
    count = 0
    for block in _capacity_blocks(L, n):
        count += len(block)
        forms = [rows(plan, block)
                 for rows in (_level_rows, _pointwise_rows, _rebuild_rows)]
        apart = (forms[0] != forms[1]) | (forms[1] != forms[2])
        found.extend(Disagreement(tuple(block[r].tolist()),
                                  tuple(plan.grid[x].tolist()),
                                  *(int(form[r, x]) for form in forms))
                     for r, x in zip(*np.nonzero(apart)))
    return FormulationReport(L.name or f"size-{L.size}", n, count,
                             len(plan.grid), tuple(found))
