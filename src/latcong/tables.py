"""Explicit n-ary function tables over a finite carrier.

A FunctionTable stores a total map ``{0..size-1}^n -> {0..size-1}`` as a
flat tuple indexed by the mixed-radix encoding of the input (coordinate 0
is the most significant digit, matching ``itertools.product`` order).
Tables are the common currency between the polynomial, Sugeno, and
compatibility modules: everything is lowered to a table before it is
cross-checked.  The table-stack layer under those modules lives here too:
the plan of index arrays per lattice and input stack, and ``_map_blocks``, the
one enumerator of tables, normal forms and capacities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import ArityMismatch, ForeignElement, TooLarge
from .lattice import Lattice, _integer, _size, check_elements, check_type, row_dtype

# The most entries an input grid or an enumerator's order matrix may have.
MAX_ENTRIES = 1 << 24


def encode(x, size: int) -> int:
    idx = 0
    for v in x:
        idx = idx * size + v
    return idx


def all_inputs(size: int, arity: int):
    """Every input tuple, in encoding order."""
    return itertools.product(range(_size(size)), repeat=check_arity(arity))


def input_grid(size: int, arity: int):
    """Every input as a row of a ``(size**arity, arity)`` array, in encoding order.

    Raises TooLarge, before allocating, for a grid above ``MAX_ENTRIES``.
    """
    inputs = check_power(size, arity, f"the input grid of arity {arity}", arity)
    return np.indices((size,) * arity).reshape(arity, inputs).T


@dataclass(unsafe_hash=True, slots=True)
class FunctionTable:
    """Total function L^n -> L stored as a flat value tuple."""

    arity: int
    size: int
    values: tuple[int, ...] = field(repr=False)

    def __post_init__(self):
        self.arity = check_arity(self.arity)
        self.size = _size(self.size)
        self.values = check_elements(self.size, self.values, "output")
        entries = check_power(self.size, self.arity, f"a table of arity {self.arity}")
        if len(self.values) != entries:
            raise ArityMismatch(f"expected {entries} entries for "
                                f"arity {self.arity}, got {len(self.values)}")

    @classmethod
    def _unchecked(cls, arity: int, size: int, values: tuple) -> "FunctionTable":
        """A table from a tuple of ints already known to fit; no validation."""
        table = cls.__new__(cls)
        table.arity, table.size, table.values = arity, size, values
        return table

    @classmethod
    def from_callable(cls, size: int, arity: int, fn) -> "FunctionTable":
        return cls(arity, size, [fn(x) for x in all_inputs(size, arity)])

    def value_at(self, x) -> int:
        return self.values[encode(check_input(self.size, self.arity, x), self.size)]


def check_arity(n) -> int:
    """``n`` as an int: InvalidArgument unless it is one, ArityMismatch if negative."""
    n = _integer(n, "arity")
    if n < 0:
        raise ArityMismatch(f"arity must be non-negative, got {n}")
    return n


def check_entries(entries: int, what: str) -> None:
    """Raise TooLarge unless an array of ``entries`` entries fits."""
    if entries > MAX_ENTRIES:
        raise TooLarge(f"{what} would have {entries} entries; "
                       f"the limit is {MAX_ENTRIES}")


def check_power(base: int, exponent: int, what: str, width: int = 1) -> int:
    """``base ** exponent``, after raising TooLarge unless ``width`` entries
    for each of that many fit.  From base 2 on, an exponent that alone puts
    the power above ``MAX_ENTRIES`` is refused before the power is formed."""
    if base >= 2 and exponent >= MAX_ENTRIES.bit_length():
        raise TooLarge(f"{what} would have more than {MAX_ENTRIES} entries, the limit")
    power = base ** exponent
    check_entries(power * width, what)
    return power


def check_input(size: int, arity: int, x) -> tuple[int, ...]:
    """The input as a tuple of ints, after checking its elements and length."""
    x = check_elements(size, x, "input")
    if len(x) != arity:
        raise ArityMismatch(f"expected {arity} inputs, got {len(x)}")
    return x


def check_table(L, f: FunctionTable) -> None:
    """Raise InvalidArgument unless L is a Lattice and f a table,
    ForeignElement unless f is over L."""
    if check_type(f, FunctionTable).size != check_type(L, Lattice).size:
        raise ForeignElement(
            f"table over carrier {f.size} used with lattice of size {L.size}")


def _vertex_rows(L, arity: int):
    """The ``(2**arity, arity)`` stack of boolean vertices, one per subset mask."""
    check_power(2, arity, f"the boolean vertices of arity {arity}", arity)
    bits = (np.arange(1 << arity)[:, None] >> np.arange(arity)) & 1
    return np.where(bits, L.top, L.bottom)


# --- table stacks -------------------------------------------------------------
#
# A stack is a (T, k) array of tables, one per row, in the smallest unsigned
# dtype of the carrier, valued at the k inputs of a plan (all of L^n, or
# one point).  The kernels evaluate a characterization for every row at once
# by gathers through the lattice's meet and join tables, which are in the
# same dtype; single calls run them on a stack of one.

# Rows per block of the monotone enumerators; it bounds their memory.
BLOCK = 1024


class _Plan:
    """Index arrays of the kernels for one lattice over a ``(k, n)`` stack of
    inputs (the full grid, or a single point); each part beyond the inputs
    is built on first use."""

    def __init__(self, L: Lattice, grid):
        self.lattice, self.grid = L, np.asarray(grid, dtype=np.intp)
        self.arity = self.grid.shape[1]
        self.tables = L.tables
        self.dtype = self.tables.dtype
        self.meet, self.join = self.tables

    @cached_property
    def strides(self):
        """The mixed-radix place value of each coordinate (full grid only)."""
        return self.lattice.size ** np.arange(self.arity - 1, -1, -1)

    @cached_property
    def slices(self):
        """(n, size**n) arrays: per coordinate k and input x, the index of x
        with x_k at bottom, the index of x with x_k at top, and x_k; they
        index a whole table, so only the full-grid plan has them."""
        L, grid = self.lattice, self.grid
        own = grid.T * self.strides[:, None]
        base = np.arange(len(grid)) - own
        return (base + L.bottom * self.strides[:, None],
                base + L.top * self.strides[:, None], grid.T)

    @cached_property
    def vertices(self):
        """Input index of the boolean vertex of each subset mask (full grid only)."""
        return _vertex_rows(self.lattice, self.arity) @ self.strides

    @cached_property
    def selected(self):
        """(2**n, k): per subset mask and input x, the meet of the
        coordinates of x that the mask selects; the empty meet is top.  The
        masks with bit i set are the masks below ``1 << i`` met with x_i."""
        check_power(2, self.arity, f"the selected meets of arity {self.arity}",
                    len(self.grid))
        out = np.empty((1 << self.arity, len(self.grid)), dtype=self.dtype)
        out[0] = self.lattice.top
        for i, column in enumerate(self.grid.T):
            out[1 << i:2 << i] = _apply(self.meet, out[:1 << i], column)
        return out

    @cached_property
    def level_masks(self):
        """(size, k): the mask {i : t <= x_i} per threshold t and input x."""
        return self.lattice.leq_table[:, self.grid] @ (1 << np.arange(self.arity))

    @cached_property
    def pointwise_masks(self):
        """(n, k): the mask {j : x_i <= x_j} per coordinate i and input x."""
        g, leq = self.grid, self.lattice.leq_table
        return (leq[g[:, :, None], g[:, None, :]] @ (1 << np.arange(self.arity))).T

    @cached_property
    def monotone_pairs(self):
        """Input index pairs (x, x with one coordinate moved up a cover);
        full grid only."""
        low, high = np.array(self.lattice.covers, dtype=np.intp).reshape(-1, 2).T
        x, k, c = np.nonzero(self.grid[:, :, None] == low)
        return x, x + (high[c] - low[c]) * self.strides[k]

    @cached_property
    def comonotone(self):
        """Index pairs of comonotone inputs x, y (never x_i < x_j while
        y_j < y_i), and the index of x v y for each pair; full grid only."""
        L, g = self.lattice, self.grid
        check_entries((len(g) * self.arity) ** 2,
                      f"the comonotone pairs of arity {self.arity}")
        up = (L.leq_table & ~np.eye(L.size, dtype=bool))[g[:, :, None], g[:, None, :]]
        x, y = np.nonzero(~(up[:, None] & up.transpose(0, 2, 1)[None]).any(axis=(2, 3)))
        return x, y, L.join_table[g[x], g[y]] @ self.strides


@lru_cache(maxsize=64)
def _plan(L: Lattice, n: int) -> _Plan:
    """The plan over the full input grid of arity n; InvalidArgument unless
    L is a Lattice."""
    return _Plan(L, input_grid(check_type(L, Lattice).size, n))


def _apply(table, a, b):
    """``table[a, b]`` elementwise, as one flat gather (faster than
    two-array fancy indexing); b must broadcast to the shape of a."""
    index = np.multiply(a, table.shape[1], dtype=np.intp)
    index += b
    return table.ravel().take(index)


def _join_rows(plan: _Plan, count: int, terms):
    """Per input, the join of a (count, k) stack of terms; bottom if none."""
    out = np.full((count, len(plan.grid)), plan.lattice.bottom, dtype=plan.dtype)
    for term in terms:
        out = _apply(plan.join, out, term)
    return out


# --- the monotone enumerator ----------------------------------------------------


def _monotone_blocks(order, below, above, allowed):
    """Every assignment of codomain elements to positions 0, 1, ... that keeps order.

    ``order[a, b]`` says a <= b in the codomain.  The value at position t
    must be allowed by the row ``allowed[t]``, dominate the values at the
    earlier positions ``below[t]`` and lie under those at ``above[t]``.
    Yields ``(rows, len(below))`` arrays of codomain indices, at most
    ``BLOCK`` rows each; the rows come out lexicographically sorted.

    Partial rows are extended one position at a time, a block at a time,
    depth first: a ``(rows, codomain)`` mask of allowed values is gathered
    from ``order``, and each row is repeated once per allowed value, in
    index order.
    """
    total, geq = len(below), order.T
    stack = [(0, np.zeros((1, total), dtype=row_dtype(len(order))))]
    while stack:
        t, rows = stack.pop()
        if t == total:
            yield rows
            continue
        ok = np.repeat(allowed[t:t + 1], len(rows), axis=0)
        for s in below[t]:
            ok &= order[rows[:, s]]
        for s in above[t]:
            ok &= geq[rows[:, s]]
        parent, value = np.nonzero(ok)
        grown = rows[parent]
        grown[:, t] = value
        # Pushed last block first, so the first block is extended first.
        stack.extend((t + 1, grown[i:i + BLOCK])
                     for i in reversed(range(0, len(grown), BLOCK)))


def _pointwise_order(order, rows):
    """The order of index rows into a poset, coordinate by coordinate."""
    out = np.ones((len(rows), len(rows)), dtype=bool)
    for column in rows.T:
        out &= order[np.ix_(column, column)]
    return out


@lru_cache(maxsize=64)
def _earlier_neighbours(P: Lattice, j: int):
    """Per input t of P^j, in encoding order: the maximal earlier inputs
    that lie strictly under it, and the minimal ones strictly over it, as
    tuples.  The caller checks the entry limit, so a cached entry never
    bypasses a lower one.

    The values at earlier positions already keep order among themselves,
    for any numbering, so only these need checking.
    """
    order = _pointwise_order(P.leq_table, input_grid(P.size, j))
    strictly = order & ~np.eye(len(order), dtype=bool)
    below, above = [], []
    for t in range(len(order)):
        lows = np.flatnonzero(strictly[:t, t])
        below.append(tuple(lows[~strictly[np.ix_(lows, lows)].any(axis=1)].tolist()))
        highs = np.flatnonzero(strictly[t, :t])
        above.append(tuple(highs[~strictly[np.ix_(highs, highs)].any(axis=0)].tolist()))
    return tuple(below), tuple(above)


def _next_level(order, neighbours):
    """Index rows of the monotone maps from P into the poset ``order``, or
    None once their own order matrix would exceed ``MAX_ENTRIES``."""
    blocks, count = [], 0
    allowed = np.ones((len(neighbours[0]), len(order)), dtype=bool)
    for block in _monotone_blocks(order, *neighbours, allowed):
        count += len(block)
        if count ** 2 > MAX_ENTRIES:
            return None
        blocks.append(block)
    return np.concatenate(blocks)


def _map_blocks(P: Lattice, n: int, L: Lattice, pinned: bool = False):
    """The monotone maps P^n -> L as blocks of value rows, in value-tuple order.

    A row lists the values at the inputs of P^n in encoding order.  With
    ``pinned``, the all-bottom input goes to L.bottom and the all-top input
    to L.top.

    Curried in coordinate 0, a monotone map is a monotone map from P into
    the poset M_{n-1} of monotone maps P^{n-1} -> L under the pointwise
    order, and M_0 is L.  The levels M_1, M_2, ... are built whole as index
    rows into the level before; the rows come out lexicographically
    sorted, so every level lists its maps in value-tuple order.  A level
    whose order matrix would exceed ``MAX_ENTRIES`` is not built: the maps
    are then maps from P^j into the last level built, M_{n-j}, with the
    inputs of P^j as positions.  This last step is streamed, and a block of
    index rows becomes a block of maps by one gather of the value rows of
    M_{n-j}.
    """
    n = check_arity(n)
    check_type(L, Lattice)
    values, order = np.arange(L.size, dtype=row_dtype(L.size))[:, None], L.leq_table
    neighbours = _earlier_neighbours(P, 1)
    curried = 0
    while curried < n - 1 and (rows := _next_level(order, neighbours)) is not None:
        values = values.take(rows, axis=0).reshape(len(rows), -1)
        order = _pointwise_order(order, rows)
        curried += 1

    # The last step maps the inputs of P^j into M_{n-j}.
    j = n - curried
    try:
        grid = input_grid(P.size, j)
        check_entries(len(grid) ** 2, f"the order of the inputs of arity {j}")
    except TooLarge as exc:
        raise TooLarge(f"the monotone maps of arity {n}: {exc}") from None
    positions = _earlier_neighbours(P, j)
    allowed = np.ones((len(grid), len(values)), dtype=bool)
    if pinned:
        for end, image in ((P.bottom, L.bottom), (P.top, L.top)):
            allowed[encode((end,) * j, P.size)] &= \
                values[:, encode((end,) * curried, P.size)] == image
    for rows in _monotone_blocks(order, *positions, allowed):
        yield values.take(rows, axis=0).reshape(len(rows), -1)
