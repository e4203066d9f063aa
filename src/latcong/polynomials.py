"""Weighted lattice polynomials and their boolean-vertex normal form.

A weighted polynomial is a finite term built from projections, constants,
meet, and join.  Every monotone term is pinned down by its values at the
boolean vertices (inputs whose coordinates are all bottom or top), which
gives the normal form: a coefficient per subset mask, evaluated as a join
of coefficient-guarded meets.  The empty meet is top.

Inside this module a term of arity n also has a flat code: its nodes in
preorder as ints, a leaf as its node-buffer row (projection i as i, constant
c as n + c), a meet as -1 and a join as -2.  ``_code`` is the one walk over
a term tree, with a stack of its own: it checks a term on construction and
flattens it for ``_term_rows``, which hands the codes of term objects to
``_code_rows``, the one lowering, for ``to_table``, ``evaluate`` and
``to_normal_form``.  ``_random_code`` draws codes, which AC11 lowers as
they are and ``random_polynomial`` decodes into a term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArityMismatch, InvalidArgument
from .lattice import Lattice, _integer, check_elements, check_type
from .tables import FunctionTable, _Plan, _join_rows, _map_blocks, \
    _plan, _vertex_rows, check_arity, check_input, check_power, check_table

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


@dataclass(frozen=True)
class WeightedPolynomial:
    """Expression tree plus its declared arity."""

    arity: int
    root: Node

    def __post_init__(self):
        _code(self.root, check_arity(self.arity), [])


def _arity(p) -> int:
    """The arity of a WeightedPolynomial; InvalidArgument for anything else."""
    return check_type(p, WeightedPolynomial).arity


def evaluate(L: Lattice, p: WeightedPolynomial, x) -> int:
    """Evaluate the term at an input vector via the lattice tables."""
    plan = _Plan(L, [check_input(check_type(L, Lattice).size, _arity(p), x)])
    return int(_term_rows(plan, [p])[0, 0])


# Most entries in the node buffer of ``_code_rows``; a plan with more inputs
# than fit is lowered a slice of inputs at a time.
_NODE_ENTRIES = 1 << 20

# The items of a term code that stand for a meet and a join; each is
# followed by the codes of its left and right operands.
_MEET, _JOIN = -1, -2


def _code(root, n: int, constants: list) -> list:
    """The code of a term of arity n; its constants are appended to
    ``constants`` so the caller can range-check them before any gather.
    InvalidArgument for a foreign node or a leaf that is not an int (bools
    are not), ArityMismatch for the first projection in preorder outside
    0..n-1."""
    code, rights = [], []
    append, node = code.append, root
    while True:
        kind = type(node)
        if kind is Meet or kind is Join:  # down the left operands first
            append(_MEET if kind is Meet else _JOIN)
            rights.append(node.right)
            node = node.left
            continue
        if kind is Projection:
            index = node.index
            if type(index) is not int:
                index = _integer(index, "projection index")
            if not 0 <= index < n:
                raise ArityMismatch(f"negative projection index {index}" if index < 0
                                    else f"projection {index} exceeds declared arity {n}")
            append(index)
        elif kind is Constant:
            value = node.value
            if type(value) is not int:
                value = _integer(value, "constant")
            constants.append(value)
            append(n + value)
        else:
            raise InvalidArgument(f"not a term node: {node!r}")
        if not rights:
            return code
        node = rights.pop()


def _term(n: int, code) -> WeightedPolynomial:
    """The term of arity n that ``code`` stands for."""
    operands = []
    for item in reversed(code):
        if item >= n:
            operands.append(Constant(item - n))
        elif item >= 0:
            operands.append(Projection(item))
        else:
            left = operands.pop()
            operands.append((Meet if item == _MEET else Join)(left, operands.pop()))
    return WeightedPolynomial(n, operands.pop())


def _term_rows(plan, terms) -> np.ndarray:
    """The ``(len(terms), k)`` stack of the terms' values at the plan's k
    inputs of arity n, through their codes.

    Constants are range-checked before any gather, since a foreign one
    would read another row or the wrong half of the stacked tables.
    ArityMismatch unless every term has arity n.
    """
    n = plan.arity
    # A projection past the plan's arity would read a constant's row.
    if any(p.arity != n for p in terms):
        raise ArityMismatch(f"every term of the stack must have arity {n}")
    constants = []
    codes = [_code(p.root, n, constants) for p in terms]
    check_elements(plan.lattice.size, constants, "constant")
    return _code_rows(plan, codes)


def _code_rows(plan, codes) -> np.ndarray:
    """The ``(len(codes), k)`` stack of the values of n-ary term codes at
    the plan's k inputs.

    Each code is read once, last item first, and its inner nodes numbered
    as rows of one buffer after the n + size leaf rows.  The leaf rows are
    filled at once, then the inner nodes are evaluated from the leaves up,
    one flat gather through the stacked ``[meet, join]`` tables per height.
    InvalidArgument, before any gather, for a leaf past the constants or a
    code that is not one term, such as an operator short of operands.
    """
    n, size = plan.arity, plan.lattice.size
    count = n + size
    heights = [0] * count
    levels = []  # per height above the leaves: row, table offset, left, right
    halves = (size * size, 0)  # table offsets of a join and a meet
    roots = []
    for code in codes:
        operands = []
        if code and max(code) < n + size and min(code) >= _JOIN:
            push, pop = operands.append, operands.pop
            try:
                for item in reversed(code):
                    if item < 0:
                        left = pop()
                        right = pop()
                        height = heights[left]
                        if heights[right] > height:
                            height = heights[right]
                        if height == len(levels):
                            levels.append([])
                        levels[height] += (count, halves[item], left, right)
                        heights.append(height + 1)
                        item = count
                        count += 1
                    push(item)
            except IndexError:  # an operator short of operands
                operands = []
        if len(operands) != 1:
            raise InvalidArgument(f"not a term code of arity {n} on {size} elements: "
                                  f"{code!r}")
        roots.append(operands[0])
    levels = [np.array(level, dtype=np.intp).reshape(-1, 4).T for level in levels]
    tables = plan.tables.ravel()
    out = np.empty((len(codes), len(plan.grid)), dtype=plan.dtype)
    width = max(1, _NODE_ENTRIES // count)
    for start in range(0, len(plan.grid), width):
        inputs = plan.grid[start:start + width]
        rows = np.empty((count, len(inputs)), dtype=plan.dtype)
        rows[:n] = inputs.T
        rows[n:n + size] = np.arange(size)[:, None]
        for at, offsets, lefts, rights in levels:
            index = np.multiply(rows[lefts], size, dtype=np.intp)
            index += rows[rights]
            index += offsets[:, None]
            rows[at] = tables.take(index)
        out[:, start:start + width] = rows[roots]
    return out


def to_table(L: Lattice, p: WeightedPolynomial) -> FunctionTable:
    """Lower a polynomial to its table over all inputs."""
    rows = _term_rows(_plan(check_type(L, Lattice), _arity(p)), [p])
    return FunctionTable(p.arity, L.size, rows[0].tolist())


@dataclass(frozen=True, slots=True)
class NormalForm:
    """One coefficient per subset mask (bit i = coordinate i)."""

    arity: int
    coefficients: tuple[int, ...]

    def __post_init__(self):
        arity = check_arity(self.arity)
        try:
            coefficients = tuple(self.coefficients)
        except TypeError:
            raise InvalidArgument(
                f"coefficients must be a sequence, not {self.coefficients!r}") from None
        count = check_power(2, arity, f"the coefficients of arity {arity}")
        if len(coefficients) != count:
            raise ArityMismatch(f"expected {count} coefficients for arity {arity}, "
                                f"got {len(coefficients)}")
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "coefficients", coefficients)

    def _check_lattice(self, L: Lattice) -> None:
        """Nothing to check: a bare normal form may be evaluated on any
        lattice that holds its coefficients."""

    def is_monotone_in_masks(self, L: Lattice) -> bool:
        """Coefficient table nondecreasing along subset inclusion.

        Per coordinate i, one gather of the order compares the masks with
        bit i set to the same masks without it.  Checked as
        ``_coefficient_rows`` checks.
        """
        g = _coefficient_rows(L, self)[0]
        return all(L.leq_table[pairs[:, 0], pairs[:, 1]].all()
                   for pairs in (g.reshape(-1, 2, 1 << i) for i in range(self.arity)))


def to_normal_form(L: Lattice, p: WeightedPolynomial) -> NormalForm:
    """Read the coefficients off the boolean vertices."""
    plan = _Plan(L, _vertex_rows(check_type(L, Lattice), _arity(p)))
    return NormalForm(p.arity, tuple(_term_rows(plan, [p])[0].tolist()))


def _coefficient_rows(L: Lattice, nf: NormalForm) -> np.ndarray:
    """nf's coefficients as a stack of one row.  InvalidArgument unless L is
    a Lattice and nf a NormalForm; ForeignElement for a coefficient outside
    L, or for a normal form bound to another lattice (a capacity)."""
    check_type(L, Lattice)
    rows = np.array([check_elements(L.size, check_type(nf, NormalForm).coefficients,
                                    "coefficient")])
    nf._check_lattice(L)
    return rows


def _at_point(rows, L: Lattice, nf: NormalForm, x) -> int:
    """A kernel over coefficient rows, run on nf and a plan of the one input x."""
    coefficients = _coefficient_rows(L, nf)
    plan = _Plan(L, [check_input(L.size, nf.arity, x)])
    return int(rows(plan, coefficients)[0, 0])


def eval_normal_form(L: Lattice, nf: NormalForm, x) -> int:
    """Join over masks of coefficient ^ (meet of the selected coordinates).

    The empty meet is top, so the empty mask contributes its coefficient
    unguarded.
    """
    return _at_point(_rebuild_rows, L, nf, x)


def normal_form_to_polynomial(nf: NormalForm) -> WeightedPolynomial:
    """Syntactic join-of-meets realization of a coefficient table.

    The 2**n meets are joined in pairs, level by level, so the term is at
    most 2n + 1 deep.  InvalidArgument unless nf is a NormalForm.
    """
    n = check_type(nf, NormalForm).arity
    terms = []
    for mask in range(1 << n):
        term: Node = Constant(nf.coefficients[mask])
        for i in range(n):
            if mask >> i & 1:
                term = Meet(term, Projection(i))
        terms.append(term)
    while len(terms) > 1:
        terms = [Join(a, b) for a, b in zip(terms[::2], terms[1::2])]
    return WeightedPolynomial(n, terms[0])


def _monotone_rows(plan, stack) -> np.ndarray:
    """Per row: nondecreasing in each coordinate, checked over cover-adjacent
    inputs (full-grid plans only).  A one-dimensional stack is one table,
    and gives one verdict."""
    low, high = plan.monotone_pairs
    columns = stack.T
    return plan.lattice.leq_table[columns[low], columns[high]].all(axis=0)


def is_monotone(L: Lattice, f: FunctionTable) -> bool:
    """Nondecreasing in each coordinate, checked over cover-adjacent inputs."""
    check_table(L, f)
    # One row, not a stack of one: indexing a 2-D stack costs more per call.
    return bool(_monotone_rows(_plan(L, f.arity), np.array(f.values)))


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
    coefficients = _coefficient_rows(L, nf)
    rows = _rebuild_rows(_plan(L, nf.arity), coefficients)
    return FunctionTable(nf.arity, L.size, rows[0].tolist())


def enumerate_monotone_normal_forms(L: Lattice, arity: int):
    """All coefficient tables nondecreasing along subset inclusion."""
    for block in _map_blocks(_CHAIN2, arity, L):
        for coeffs in block.tolist():
            yield NormalForm(arity, tuple(coeffs))


# The kinds ``_random_code`` draws a node's kind from, each entry equally
# likely: a projection (0), a constant (1), a meet or a join; once depth
# runs out, only the first two.
_KINDS = (0, 1, _MEET, _MEET, _JOIN, _JOIN)


def _random_code(rng, arity: int, lattice_size: int, max_depth: int = 4) -> list:
    """The code of a random term; leaves more likely as depth runs out.

    Per node, in preorder: its kind, then for a leaf its index or value.
    Each is drawn below a count c as ``Random.choice`` and
    ``Random.randrange`` draw it, by rejection on ``rng.getrandbits(k)``
    with k the bit length of c: the same stream, one getrandbits per draw.
    The arity and the lattice size must be ints of at least 1.
    """
    code, depths = [], [max_depth]
    append, pop, getrandbits = code.append, depths.pop, rng.getrandbits
    # Per leaf kind: the count, its bit length and the code of leaf 0.
    leaves = ((arity, arity.bit_length(), 0),
              (lattice_size, lattice_size.bit_length(), arity))
    while depths:
        depth = pop()
        kinds, bits = (6, 3) if depth > 0 else (2, 2)
        kind = getrandbits(bits)
        while kind >= kinds:
            kind = getrandbits(bits)
        if kind > 1:
            append(_KINDS[kind])
            depths += (depth - 1, depth - 1)
            continue
        count, bits, first = leaves[kind]
        leaf = getrandbits(bits)
        while leaf >= count:
            leaf = getrandbits(bits)
        append(first + leaf)
    return code


def random_polynomial(rng, arity: int, lattice_size: int,
                      max_depth: int = 4) -> WeightedPolynomial:
    """Sample a random term; leaves more likely as depth runs out.

    Raises InvalidArgument, before drawing, unless the arity and the
    lattice size are ints of at least 1 and the depth is an int.
    """
    n, size = _integer(arity, "arity"), _integer(lattice_size, "lattice size")
    if n < 1 or size < 1:
        raise InvalidArgument(
            f"random terms need arity and lattice size at least 1, "
            f"got {n} and {size}")
    return _term(n, _random_code(rng, n, size, _integer(max_depth, "max depth")))
