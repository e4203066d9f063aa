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
from functools import cached_property, lru_cache
from itertools import islice

import numpy as np

from .congruences import all_congruences, principal_congruences
from .errors import BudgetExceeded, NotMonotone
from .lattice import Lattice
from .polynomials import BLOCK, NormalForm, _monotone_blocks, \
    boolean_restriction, is_monotone, row_dtype
from .sugeno import enumerate_capacities
from .tables import FunctionTable, check_arity, check_elements, \
    check_entries, check_table, encode, fits, input_grid

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

_CONGRUENCE_SETS = {"principal-only": principal_congruences, "all": all_congruences}


# --- table stacks -------------------------------------------------------------
#
# A stack is a (T, size**n) array of tables, one table per row, in the
# smallest unsigned dtype of the carrier.  The kernels below evaluate a
# characterization for every row at once by gathers through the meet and
# join tables; single-table calls run them on a stack of one.


class _Plan:
    """Index arrays of the kernels for one lattice, arity and congruence set.

    Each part is built on first use, so a plan used only to rebuild normal
    forms never computes congruences.
    """

    def __init__(self, L: Lattice, n: int, mode: str):
        if mode not in _CONGRUENCE_SETS:
            raise ValueError(
                f"unknown mode {mode!r}; use 'principal-only' or 'all'")
        self.lattice, self.arity, self.mode = L, n, mode
        self.dtype = row_dtype(L.size)
        self.meet = L.meet_table.astype(self.dtype)
        self.join = L.join_table.astype(self.dtype)
        self.grid = input_grid(L.size, n)
        self.strides = L.size ** np.arange(n - 1, -1, -1)

    @cached_property
    def pairs(self):
        """Input pairs that one nontrivial congruence relates in one coordinate.

        Per congruence and coordinate k, each input x is paired with x where
        x_k moves to the least-numbered member of its class; congruent
        outputs are transitive, so that covers every related pair.  Returns
        the congruence index, the two input indices of each pair and the
        class-equality table of each congruence.
        """
        L, grid = self.lattice, self.grid
        classes = np.array([c.class_of for c in _CONGRUENCE_SETS[self.mode](L)
                            if c.num_classes < L.size],
                           dtype=np.intp).reshape(-1, L.size)
        same = classes[:, :, None] == classes[:, None, :]
        first = same.argmax(axis=2)
        which, left, k = np.nonzero(first[:, grid] != grid)
        x = grid[left, k]
        right = left + (first[which, x] - x) * self.strides[k]
        return which, left, right, same

    @cached_property
    def slices(self):
        """(n, size**n) arrays: per coordinate k and input x, the index of x
        with x_k at bottom, the index of x with x_k at top, and x_k."""
        L, grid = self.lattice, self.grid
        own = grid.T * self.strides[:, None]
        base = np.arange(len(grid)) - own
        return (base + L.bottom * self.strides[:, None],
                base + L.top * self.strides[:, None], grid.T)

    @cached_property
    def vertices(self):
        """Input index of the boolean vertex of each subset mask."""
        L = self.lattice
        bits = (np.arange(1 << self.arity)[:, None] >> np.arange(self.arity)) & 1
        return np.where(bits, L.top, L.bottom) @ self.strides

    @cached_property
    def guarded_terms(self):
        """(size, 2**n, size**n): c ^ (meet of the coordinates of x that
        the mask selects), for every coefficient c, mask and input x.

        The empty meet is top, so the empty mask gives c itself.
        """
        selected = np.empty((1 << self.arity, len(self.grid)), dtype=self.dtype)
        selected[0] = self.lattice.top
        for mask in range(1, 1 << self.arity):
            low = (mask & -mask).bit_length() - 1
            selected[mask] = self.meet[selected[mask & ~(1 << low)],
                                       self.grid[:, low]]
        return self.meet[:, selected]

    @cached_property
    def level_masks(self):
        """(size, size**n): the mask {i : t <= x_i} per threshold t and input x."""
        return self.lattice.leq_table[:, self.grid] @ (1 << np.arange(self.arity))

    @cached_property
    def pointwise_masks(self):
        """(n, size**n): the mask {j : x_i <= x_j} per coordinate i and input x."""
        g, leq = self.grid, self.lattice.leq_table
        return (leq[g[:, :, None], g[:, None, :]] @ (1 << np.arange(self.arity))).T

    @cached_property
    def monotone_pairs(self):
        """Input index pairs (x, x with one coordinate moved up a cover)."""
        low, high = np.array(self.lattice.covers, dtype=np.intp).reshape(-1, 2).T
        x, k, c = np.nonzero(self.grid[:, :, None] == low)
        return x, x + (high[c] - low[c]) * self.strides[k]

    @cached_property
    def comonotone(self):
        """Index pairs of comonotone inputs x, y (never x_i < x_j while
        y_j < y_i), and the index of x v y for each pair."""
        L, g = self.lattice, self.grid
        up = (L.leq_table & ~np.eye(L.size, dtype=bool))[g[:, :, None], g[:, None, :]]
        x, y = np.nonzero(~(up[:, None] & up.transpose(0, 2, 1)[None]).any(axis=(2, 3)))
        return x, y, L.join_table[g[x], g[y]] @ self.strides


@lru_cache(maxsize=64)
def _plan(L: Lattice, n: int, mode: str) -> _Plan:
    return _Plan(L, n, mode)


def _apply(table, a, b):
    """``table[a, b]`` elementwise, as one flat gather (faster than
    two-array fancy indexing); b must broadcast to the shape of a."""
    index = np.multiply(a, table.shape[1], dtype=np.intp)
    index += b
    return table.ravel().take(index)


def _compatible_rows(plan: _Plan, stack) -> np.ndarray:
    """Per row: congruent inputs, one coordinate apart, give congruent outputs."""
    which, left, right, same = plan.pairs
    return same[which, stack[:, left], stack[:, right]].all(axis=1)


def _median_rows(plan: _Plan, stack) -> np.ndarray:
    """Per row: every slice is f(x) = med(f at x_k=bottom, x_k, f at x_k=top)."""
    meet, join = plan.meet, plan.join
    holds = np.ones(len(stack), dtype=bool)
    for lows, highs, x in zip(*plan.slices):
        f0, f1 = stack[:, lows], stack[:, highs]
        med = _apply(meet, _apply(meet, _apply(join, f0, x), _apply(join, f1, x)),
                     _apply(join, f1, f0))
        holds &= (med == stack).all(axis=1)
    return holds


def _rebuild_rows(plan: _Plan, coefficients) -> np.ndarray:
    """The tables of a stack of normal-form coefficient rows.

    Join over masks of coefficient ^ (meet of the selected coordinates).
    """
    coefficients = np.asarray(coefficients)
    if coefficients.size:
        check_elements(plan.lattice.size,
                       (coefficients.min(), coefficients.max()), "coefficient")
    terms = plan.guarded_terms
    out = np.full((len(coefficients), len(plan.grid)), plan.lattice.bottom,
                  dtype=plan.dtype)
    for mask in range(terms.shape[1]):
        out = _apply(plan.join, out, terms[coefficients[:, mask], mask])
    return out


def _level_rows(plan: _Plan, coefficients) -> np.ndarray:
    """The level-set form of coefficient rows: join over t of t ^ c[x >= t]."""
    out = np.full((len(coefficients), len(plan.grid)), plan.lattice.bottom,
                  dtype=plan.dtype)
    for t, masks in enumerate(plan.level_masks):
        out = _apply(plan.join, out, plan.meet[t].take(coefficients[:, masks]))
    return out


def _pointwise_rows(plan: _Plan, coefficients) -> np.ndarray:
    """The pointwise form of coefficient rows: join over i of x_i ^ c[x >= x_i]."""
    out = np.full((len(coefficients), len(plan.grid)), plan.lattice.bottom,
                  dtype=plan.dtype)
    for x, masks in zip(plan.grid.T, plan.pointwise_masks):
        out = _apply(plan.join, out, _apply(plan.meet, coefficients[:, masks], x))
    return out


# --- the four characterizations, one table at a time ----------------------------


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
    plan = _plan(L, f.arity, mode)
    return bool(_compatible_rows(plan, np.array([f.values], dtype=plan.dtype))[0])


def median_decomposition_check(L: Lattice, f: FunctionTable) -> bool:
    """Whether every coordinate slice satisfies f(x) = med(f0, x_k, f1).

    f0 and f1 are f with coordinate k forced to bottom resp. top.
    """
    check_table(L, f)
    plan = _plan(L, f.arity, "principal-only")
    return bool(_median_rows(plan, np.array([f.values], dtype=plan.dtype))[0])


def normal_form_table(L: Lattice, nf: NormalForm) -> FunctionTable:
    """The table of the join-of-meets normal form of ``nf``."""
    plan = _plan(L, nf.arity, "principal-only")
    return FunctionTable(nf.arity, L.size,
                         _rebuild_rows(plan, [nf.coefficients])[0].tolist())


def synthesize(L: Lattice, f: FunctionTable) -> tuple[NormalForm, bool]:
    """Normal form from the boolean vertices, plus whether it rebuilds f.

    The reconstruction succeeds exactly when f is compatible; a monotone
    but incompatible table differs from its normal form somewhere.
    """
    if not is_monotone(L, f):
        raise NotMonotone("synthesis is defined for nondecreasing tables")
    nf = boolean_restriction(L, f)
    return nf, normal_form_table(L, nf) == f


def _pointwise_order(order, rows):
    """The order of index rows into a poset, coordinate by coordinate."""
    out = np.ones((len(rows), len(rows)), dtype=bool)
    for column in rows.T:
        out &= order[np.ix_(column, column)]
    return out


def _earlier_neighbours(order):
    """Per position t, in index order: the maximal positions before t that
    lie strictly under it, and the minimal ones strictly over it.

    The values at earlier positions already keep order among themselves,
    for any numbering, so only these need checking.
    """
    strictly = order & ~np.eye(len(order), dtype=bool)
    below, above = [], []
    for t in range(len(order)):
        lows = np.flatnonzero(strictly[:t, t])
        below.append(lows[~strictly[np.ix_(lows, lows)].any(axis=1)].tolist())
        highs = np.flatnonzero(strictly[t, :t])
        above.append(highs[~strictly[np.ix_(highs, highs)].any(axis=0)].tolist())
    return below, above


def _next_level(order, neighbours):
    """Index rows of the monotone maps from L into the poset ``order``, or
    None once their own order matrix would exceed ``tables.MAX_ENTRIES``."""
    blocks, count = [], 0
    allowed = np.ones((len(neighbours[0]), len(order)), dtype=bool)
    for block in _monotone_blocks(order, *neighbours, allowed):
        count += len(block)
        if not fits(count ** 2):
            return None
        blocks.append(block)
    return np.concatenate(blocks)


def _table_blocks(L: Lattice, n: int, filter: str):
    """The monotone tables L^n -> L as blocks of value rows, in value-tuple
    order; see ``enumerate_monotone_tables``.

    Curried in coordinate 0, a monotone table is a monotone map from L into
    the poset M_{n-1} of monotone (n-1)-ary tables under the pointwise
    order, and M_0 is L.  The levels M_1, M_2, ... are built whole as index
    rows into the level before; the rows come out lexicographically
    sorted, so every level lists its tables in value-tuple order.  A level
    whose order matrix would exceed ``tables.MAX_ENTRIES`` is not built:
    the tables are then maps from L^j into the last level built, M_{n-j},
    with the inputs of L^j as positions.  This last step is streamed, and a
    block of index rows becomes a block of tables by one gather of the
    value rows of M_{n-j}.
    """
    check_arity(n)
    if filter not in ("all", "aggregation"):
        raise ValueError(f"unknown filter {filter!r}")
    size = L.size
    values, order = np.arange(size, dtype=row_dtype(size))[:, None], L.leq_table
    neighbours = _earlier_neighbours(L.leq_table)
    curried = 0
    while curried < n - 1 and (rows := _next_level(order, neighbours)) is not None:
        values = values.take(rows, axis=0).reshape(len(rows), -1)
        order = _pointwise_order(order, rows)
        curried += 1

    # The last step maps the inputs of L^j into M_{n-j}.
    j = n - curried
    grid = input_grid(size, j)
    check_entries(len(grid) ** 2, f"the order of the inputs of arity {j}")
    positions = _earlier_neighbours(_pointwise_order(L.leq_table, grid))
    allowed = np.ones((len(grid), len(values)), dtype=bool)
    if filter == "aggregation":
        for end in (L.bottom, L.top):
            allowed[encode((end,) * j, size)] &= \
                values[:, encode((end,) * curried, size)] == end
    for rows in _monotone_blocks(order, *positions, allowed):
        yield values.take(rows, axis=0).reshape(len(rows), -1)


def enumerate_monotone_tables(L: Lattice, n: int, filter: str = "all",
                              budget: int = 10 ** 6):
    """Yield every nondecreasing table L^n -> L, in value-tuple order.

    filter='aggregation' additionally pins the all-bottom input to bottom
    and the all-top input to top.  Raises BudgetExceeded once ``budget``
    tables have been yielded and another would follow.  Each block of
    tables is range-checked once, so the tables themselves skip validation.
    """
    emitted = 0
    for block in _table_blocks(L, n, filter):
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


def verify_equivalence_suite(L: Lattice, n: int, filter: str = "all",
                             budget: int = 10 ** 6) -> EquivalenceReport:
    """Exhaustively check the equivalence chain over all monotone tables.

    For every enumerated table: congruence preservation, the median
    decomposition, and normal-form reconstruction must agree.  Compatible
    tables must have pairwise distinct boolean restrictions.  Compatible
    aggregation tables must be exactly the Sugeno integrals of capacities,
    in bijection via boolean restriction.

    Tables and capacities are taken ``BLOCK`` at a time and checked as one
    stack; only compatible or disagreeing rows are visited one by one.
    """
    check_arity(n)
    plan = _plan(L, n, "principal-only")
    vertices = plan.vertices
    monotone = 0
    compatible = 0
    compatible_aggregation = 0
    equivalence_violations = []
    collisions = []
    integral_violations = []
    seen_restrictions = {}
    tables = enumerate_monotone_tables(L, n, filter=filter, budget=budget)
    while block := [f.values for f in islice(tables, BLOCK)]:
        monotone += len(block)
        stack = np.array(block, dtype=plan.dtype)
        comp = _compatible_rows(plan, stack)
        med = _median_rows(plan, stack)
        restrictions = stack[:, vertices]
        rebuilt = (_rebuild_rows(plan, restrictions) == stack).all(axis=1)
        agree = (comp == med) & (med == rebuilt)
        # The integral of a table's capacity is the rebuild of its boolean
        # restriction, so a compatible aggregation table is the integral of
        # its own capacity exactly when it is rebuilt.
        aggregation = (stack[:, vertices[0]] == L.bottom) \
            & (stack[:, vertices[-1]] == L.top)
        for r in np.flatnonzero(comp | ~agree).tolist():
            values = block[r]
            if not agree[r]:
                equivalence_violations.append(
                    f"table {values}: compatible={bool(comp[r])} "
                    f"median={bool(med[r])} reconstructed={bool(rebuilt[r])}")
                continue
            compatible += 1
            key = tuple(restrictions[r].tolist())
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
        back = (integrals[:, vertices] == coefficients).all(axis=1)
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
