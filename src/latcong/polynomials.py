"""Weighted lattice polynomials and their boolean-vertex normal form.

A weighted polynomial is a finite term built from projections, constants,
meet, and join.  Every monotone term is pinned down by its values at the
boolean vertices (inputs whose coordinates are all bottom or top), which
gives the normal form: a coefficient per subset mask, evaluated as a join
of coefficient-guarded meets.  The empty meet is top.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArityMismatch
from .lattice import Lattice
from .tables import FunctionTable, check_arity, check_elements, \
    check_input, check_table, encode, vertex_input


@dataclass(frozen=True)
class Projection:
    index: int


@dataclass(frozen=True)
class Constant:
    value: int


@dataclass(frozen=True)
class Meet:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Join:
    left: "Node"
    right: "Node"


Node = Projection | Constant | Meet | Join


def _max_projection(node) -> int:
    """Largest projection index in the term, -1 if it has none.

    A negative index fits no arity, so it raises ArityMismatch here.
    """
    if isinstance(node, Projection):
        if node.index < 0:
            raise ArityMismatch(f"negative projection index {node.index}")
        return node.index
    if isinstance(node, Constant):
        return -1
    return max(_max_projection(node.left), _max_projection(node.right))


@dataclass(frozen=True)
class WeightedPolynomial:
    """Expression tree plus its declared arity."""

    arity: int
    root: Node

    def __post_init__(self):
        top_index = _max_projection(self.root)
        if top_index >= self.arity:
            raise ArityMismatch(
                f"projection {top_index} exceeds declared arity {self.arity}")


def evaluate(L: Lattice, p: WeightedPolynomial, x) -> int:
    """Evaluate the term at an input vector via the lattice tables."""
    return _eval_node(L, p.root, check_input(L.size, p.arity, x))


def _eval_node(L, node, x):
    if isinstance(node, Projection):
        return x[node.index]
    if isinstance(node, Constant):
        check_elements(L.size, (node.value,), "constant")
        return node.value
    if isinstance(node, Meet):
        return L.meet(_eval_node(L, node.left, x), _eval_node(L, node.right, x))
    return L.join(_eval_node(L, node.left, x), _eval_node(L, node.right, x))


def to_table(L: Lattice, p: WeightedPolynomial) -> FunctionTable:
    """Lower a polynomial to its table: one gather per node over all inputs."""
    from .compat import _apply, _plan  # compat imports this module
    plan = _plan(L, p.arity, "principal-only")

    def lower(node):
        if isinstance(node, Projection):
            return plan.grid[:, node.index]
        if isinstance(node, Constant):
            check_elements(L.size, (node.value,), "constant")
            return node.value
        table = plan.meet if isinstance(node, Meet) else plan.join
        return _apply(table, lower(node.left), lower(node.right))

    # A term without projections lowers to one value; fill the table with it.
    return FunctionTable(p.arity, L.size,
                         np.full(len(plan.grid), lower(p.root)).tolist())


@dataclass(frozen=True, slots=True)
class NormalForm:
    """One coefficient per subset mask (bit i = coordinate i)."""

    arity: int
    coefficients: tuple[int, ...]

    def __post_init__(self):
        if len(self.coefficients) != 1 << self.arity:
            raise ArityMismatch(
                f"expected {1 << self.arity} coefficients for arity {self.arity}, "
                f"got {len(self.coefficients)}")

    def is_monotone_in_masks(self, L: Lattice) -> bool:
        """Coefficient table nondecreasing along subset inclusion."""
        g, leq = self.coefficients, L.leq_table
        return all(leq[g[mask & ~(1 << i)], g[mask]] for mask in range(1 << self.arity)
                   for i in range(self.arity) if mask >> i & 1)


def to_normal_form(L: Lattice, p: WeightedPolynomial) -> NormalForm:
    """Read the coefficients off the boolean vertices."""
    coeffs = [evaluate(L, p, vertex_input(L, p.arity, mask))
              for mask in range(1 << p.arity)]
    return NormalForm(p.arity, tuple(coeffs))


def eval_normal_form(L: Lattice, nf: NormalForm, x) -> int:
    """Join over masks of coefficient ^ (meet of the selected coordinates).

    The empty meet is top, so the empty mask contributes its coefficient
    unguarded.
    """
    x = check_input(L.size, nf.arity, x)
    check_elements(L.size, nf.coefficients, "coefficient")
    meet, join = L.meet_table, L.join_table
    acc = L.bottom
    for mask, term in enumerate(nf.coefficients):
        for i in range(nf.arity):
            if mask >> i & 1:
                term = meet[term, x[i]]
        acc = join[acc, term]
    return int(acc)


def normal_form_to_polynomial(nf: NormalForm) -> WeightedPolynomial:
    """Syntactic join-of-meets realization of a coefficient table."""
    terms = []
    for mask in range(1 << nf.arity):
        term: Node = Constant(nf.coefficients[mask])
        for i in range(nf.arity):
            if mask >> i & 1:
                term = Meet(term, Projection(i))
        terms.append(term)
    root = terms[0]
    for term in terms[1:]:
        root = Join(root, term)
    return WeightedPolynomial(nf.arity, root)


def is_monotone(L: Lattice, f: FunctionTable) -> bool:
    """Nondecreasing in each coordinate, checked over cover-adjacent inputs."""
    from .compat import _plan  # compat imports this module
    check_table(L, f)
    low, high = _plan(L, f.arity, "principal-only").monotone_pairs
    values = np.array(f.values)
    return bool(L.leq_table[values[low], values[high]].all())


def boolean_restriction(L: Lattice, f: FunctionTable) -> NormalForm:
    """Coefficient table read off the boolean vertices of f."""
    check_table(L, f)
    coeffs = [f.values[encode(vertex_input(L, f.arity, mask), L.size)]
              for mask in range(1 << f.arity)]
    return NormalForm(f.arity, tuple(coeffs))


# Rows per block of the monotone enumerators; it bounds their memory.
BLOCK = 1024


def row_dtype(size: int):
    """Smallest unsigned dtype that holds every index below ``size``."""
    return np.min_scalar_type(size - 1)


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


def _submask_order(arity: int):
    """below/above lists for masks in numeric order.

    Numeric order fills every submask before its supermasks, so each mask
    only has to dominate the masks one element smaller.
    """
    below = [tuple(mask & ~(1 << i) for i in range(arity) if mask >> i & 1)
             for mask in range(1 << arity)]
    return below, [()] * len(below)


def enumerate_monotone_normal_forms(L: Lattice, arity: int):
    """All coefficient tables nondecreasing along subset inclusion."""
    check_arity(arity)
    everything = np.ones((1 << arity, L.size), dtype=bool)
    for block in _monotone_blocks(L.leq_table, *_submask_order(arity), everything):
        for coeffs in block.tolist():
            yield NormalForm(arity, tuple(coeffs))


def random_polynomial(rng, arity: int, lattice_size: int,
                      max_depth: int = 4) -> WeightedPolynomial:
    """Sample a random term; leaves more likely as depth runs out."""

    def node(depth):
        if depth <= 0:
            kind = rng.choice(("var", "const"))
        else:
            kind = rng.choice(("var", "const", "meet", "meet", "join", "join"))
        if kind == "var":
            return Projection(rng.randrange(arity))
        if kind == "const":
            return Constant(rng.randrange(lattice_size))
        left = node(depth - 1)
        right = node(depth - 1)
        return Meet(left, right) if kind == "meet" else Join(left, right)

    return WeightedPolynomial(arity, node(max_depth))
