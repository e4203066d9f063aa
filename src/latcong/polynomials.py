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
from .lattice import Lattice, check_elements
from .tables import FunctionTable, _Plan, _apply, _join_rows, _map_blocks, \
    _plan, _vertex_rows, check_input, check_table

# The two-element chain: input k of its n-th power, in encoding order, lies
# under input k' exactly when the subset mask k lies in the mask k'.
_CHAIN2 = Lattice(2, [(0, 1)])


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
    plan = _Plan(L, [check_input(L.size, p.arity, x)])
    return int(_term_rows(plan, p)[0])


def _term_rows(plan, p: WeightedPolynomial) -> np.ndarray:
    """The term's value at each input of the plan: one gather per node."""

    def lower(node):
        if isinstance(node, Projection):
            return plan.grid[:, node.index]
        if isinstance(node, Constant):
            check_elements(plan.lattice.size, (node.value,), "constant")
            return node.value
        table = plan.meet if isinstance(node, Meet) else plan.join
        return _apply(table, lower(node.left), lower(node.right))

    # A term without projections lowers to one value; fill the rows with it.
    return np.full(len(plan.grid), lower(p.root))


def to_table(L: Lattice, p: WeightedPolynomial) -> FunctionTable:
    """Lower a polynomial to its table over all inputs."""
    return FunctionTable(p.arity, L.size, _term_rows(_plan(L, p.arity), p).tolist())


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
    plan = _Plan(L, _vertex_rows(L, p.arity))
    return NormalForm(p.arity, tuple(_term_rows(plan, p).tolist()))


def _at_point(rows, L: Lattice, nf: NormalForm, x) -> int:
    """A kernel over coefficient rows, run on nf and a plan of the one input x."""
    plan = _Plan(L, [check_input(L.size, nf.arity, x)])
    check_elements(L.size, nf.coefficients, "coefficient")
    return int(rows(plan, np.array([nf.coefficients]))[0, 0])


def eval_normal_form(L: Lattice, nf: NormalForm, x) -> int:
    """Join over masks of coefficient ^ (meet of the selected coordinates).

    The empty meet is top, so the empty mask contributes its coefficient
    unguarded.
    """
    return _at_point(_rebuild_rows, L, nf, x)


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
    check_table(L, f)
    low, high = _plan(L, f.arity).monotone_pairs
    values = np.array(f.values)
    return bool(L.leq_table[values[low], values[high]].all())


def boolean_restriction(L: Lattice, f: FunctionTable) -> NormalForm:
    """Coefficient table read off the boolean vertices of f."""
    check_table(L, f)
    coeffs = [f.values[x] for x in _plan(L, f.arity).vertices.tolist()]
    return NormalForm(f.arity, tuple(coeffs))


def _rebuild_rows(plan, coefficients) -> np.ndarray:
    """The normal forms of coefficient rows (values in L) at the plan's
    inputs: join over masks of coefficient ^ (meet of the selected
    coordinates)."""
    terms = (plan.meet[:, selected].take(coefficients[:, mask], axis=0)
             for mask, selected in enumerate(plan.selected))
    return _join_rows(plan, len(coefficients), terms)


def normal_form_table(L: Lattice, nf: NormalForm) -> FunctionTable:
    """The table of the join-of-meets normal form of ``nf``."""
    plan = _plan(L, nf.arity)
    check_elements(L.size, nf.coefficients, "coefficient")
    rows = _rebuild_rows(plan, np.array([nf.coefficients]))
    return FunctionTable(nf.arity, L.size, rows[0].tolist())


def enumerate_monotone_normal_forms(L: Lattice, arity: int):
    """All coefficient tables nondecreasing along subset inclusion."""
    for block in _map_blocks(_CHAIN2, arity, L):
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
