"""Finite bounded lattices with fully materialized order and operation tables.

A lattice is built once from its cover relation (Hasse diagram), validated
eagerly, and never mutated afterwards: the order must be a partial order,
every pair of elements must have a unique greatest lower bound and least
upper bound, and a global bottom and top must exist.  Elements are the
integers ``0 .. size-1``; labels are display-only decoration.  The order
and the true covers come from one pass over the cover pairs in a
topological order, with each down-set kept as an int bitset; the meet and
join tables come from matrix products over that order.
"""

from __future__ import annotations

import itertools
import re
from functools import cached_property

import numpy as np

from .errors import CyclicCovers, ForeignElement, InvalidArgument, NotALattice, \
    NotBounded, TooLarge, UnknownName

Element = int

# Largest carrier a Lattice accepts (boolean(9)): beyond it the n x n tables
# outgrow a few seconds and 100 MB, and the least weight of
# ``_meet_join_tables``, 4**-(size - 1), leaves the normal float64 range.
MAX_SIZE = 512
# Rows of the meet and join tables built per pair of matrix products.
BAND = 32


def check_elements(size: int, values, what: str) -> None:
    """Raise ForeignElement unless every value lies in ``0..size-1``.

    The message names the smallest value if it is negative, else the
    largest; a stack is checked by passing its minimum and maximum.
    """
    if len(values):
        low, high = min(values), max(values)
        if low < 0 or high >= size:
            raise ForeignElement(f"{what} {low if low < 0 else high} "
                                 f"outside carrier of size {size}")


class Lattice:
    """Immutable finite bounded lattice.

    Attributes:
        size: number of elements.
        leq_table: read-only boolean matrix, ``leq_table[a, b]`` iff a <= b.
        meet_table / join_table: read-only integer matrices of glb / lub.
        bottom / top: the global minimum / maximum element.
        covers: tuple of pairs ``(a, b)`` with b covering a.
        name: optional display name.
        labels: optional dict element -> display label.
    """

    def __init__(self, size: int, covers, *, name=None, labels=None):
        """Build and validate a lattice from cover pairs ``(i, j)``, i below j.

        Redundant and repeated pairs are allowed; ``covers`` keeps only the
        true covers.  One pass over the elements in a topological order of
        the pairs gives each element's down-set as an int bitset (its own
        bit and the down-sets of its input predecessors) and keeps a pair
        ``(a, b)`` as a cover iff a lies in the strict down-set of no other
        predecessor of b; ``leq_table`` is unpacked from the bitsets once.
        Raises InvalidArgument for a size, cover entry or label key that is
        not an int, a cover that is not a pair or labels that are not a
        mapping, CyclicCovers, NotBounded, or NotALattice when the input
        does not describe a finite bounded lattice, TooLarge above
        ``MAX_SIZE`` elements, and ForeignElement for a label of an element
        outside ``0..size-1``.
        """
        size = _integer(size, "size")
        if size <= 0:
            raise NotBounded("a bounded lattice needs at least one element")
        if size > MAX_SIZE:
            raise TooLarge(f"{size} elements exceed the limit of {MAX_SIZE}")
        leq, self.covers = _order_and_covers(_predecessors(size, covers))
        self.size = size
        self.leq_table = leq
        self.bottom = _unique_bottom(leq)
        self.top = _unique_top(leq)
        self.meet_table, self.join_table = _meet_join_tables(leq)
        self.name = name
        try:
            self.labels = dict(labels) if labels else {}
        except (TypeError, ValueError):
            raise InvalidArgument(f"labels must map elements to text, not {labels!r}") \
                from None
        for a in self.labels:
            if not 0 <= _integer(a, "label key") < size:
                raise ForeignElement(f"label for {a} outside carrier of size {size}")
        for arr in (self.leq_table, self.meet_table, self.join_table):
            arr.flags.writeable = False
        # Every plan and cache lookup hashes the lattice; the order is fixed.
        self._hash = hash((size, leq.tobytes()))

    # --- basic queries ---------------------------------------------------

    def leq(self, a: Element, b: Element) -> bool:
        return bool(self.leq_table[a, b])

    def meet(self, a: Element, b: Element) -> Element:
        return int(self.meet_table[a, b])

    def join(self, a: Element, b: Element) -> Element:
        return int(self.join_table[a, b])

    def med(self, x: Element, y: Element, z: Element) -> Element:
        """Median term (x v y) ^ (y v z) ^ (z v x)."""
        j = self.join_table
        m = self.meet_table
        return int(m[m[j[x, y], j[y, z]], j[z, x]])

    @cached_property
    def join_irreducible_covers(self) -> tuple[tuple[Element, Element], ...]:
        """(j_*, j) for each join-irreducible j and its one lower cover j_*."""
        lower_covers = np.bincount([j for _, j in self.covers], minlength=self.size)
        return tuple((a, j) for a, j in self.covers if lower_covers[j] == 1)

    @cached_property
    def is_distributive(self) -> bool:
        """Whether a ^ (b v c) = (a ^ b) v (a ^ c) for all triples: iff every
        join-irreducible j is join-prime, not below the join of all x with
        j not <= x.  ``bounds[k, u]`` says u is above every such x for the
        k-th j, so j is not join-prime iff j <= every u it marks."""
        leq = self.leq_table
        above_j = leq[[j for _, j in self.join_irreducible_covers]]
        bounds = (~above_j).astype(np.float32) @ (~leq).astype(np.float32) == 0
        return not (~bounds | above_j).all(axis=1).any()

    @cached_property
    def is_chain(self) -> bool:
        return bool((self.leq_table | self.leq_table.T).all())

    def label_of(self, a: Element) -> str:
        return self.labels.get(a, str(a))

    # --- dunder ----------------------------------------------------------

    def __eq__(self, other):
        """Structural equality: same carrier size and same order."""
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.size == other.size and np.array_equal(
            self.leq_table, other.leq_table
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        tag = self.name or f"{self.size} elements"
        return f"Lattice({tag})"


# --- construction ---------------------------------------------------------


def build_from_covers(size: int, covers, *, name=None, labels=None) -> Lattice:
    """The lattice with the given cover pairs; see ``Lattice``."""
    return Lattice(size, covers, name=name, labels=labels)


def _integer(value, what):
    """``value`` as an int: an int or numpy integer, but not a bool."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise InvalidArgument(f"{what} must be an int, not {value!r}")


def _predecessors(size, covers):
    """The distinct input predecessors of each element; the pairs are
    checked in input order, so an error names the first bad one."""
    try:
        covers = iter(covers)
    except TypeError:
        raise InvalidArgument(f"covers must be an iterable of pairs, not {covers!r}") \
            from None
    preds = [set() for _ in range(size)]
    for pair in covers:
        try:
            i, j = pair
        except (TypeError, ValueError):
            raise InvalidArgument(f"cover {pair!r} is not a pair of elements") from None
        if type(i) is not int or type(j) is not int:
            i, j = _integer(i, "cover entry"), _integer(j, "cover entry")
        if not (0 <= i < size and 0 <= j < size):
            raise NotALattice(f"cover ({i}, {j}) out of range for size {size}")
        if i == j:
            raise CyclicCovers(f"self-cover at element {i}")
        preds[j].add(i)
    return preds


def _order_and_covers(preds):
    """The order table and the sorted true covers, by one Kahn pass.

    ``down[b]`` is b's down-set as an int bitset: b's own bit or'ed with the
    down-sets of its predecessors, all popped before b.  Anything strictly
    between a predecessor a and b lies below another predecessor, so a is a
    cover of b iff a is outside ``inner``, the union of the predecessors'
    strict down-sets.  An element never popped lies on a cycle.
    """
    n = len(preds)
    bit = [1 << a for a in range(n)]
    succs = [[] for _ in range(n)]
    for b, below in enumerate(preds):
        for a in below:
            succs[a].append(b)
    waiting = [len(below) for below in preds]
    ready = [b for b in range(n) if not waiting[b]]
    down = [0] * n
    covers = []
    for b in ready:  # grows as the elements above b become ready
        union = inner = 0
        for a in preds[b]:
            union |= down[a]
            inner |= down[a] ^ bit[a]
        down[b] = union | bit[b]
        covers.extend((a, b) for a in preds[b] if not inner & bit[a])
        for c in succs[b]:
            waiting[c] -= 1
            if not waiting[c]:
                ready.append(c)
    if len(ready) < n:
        raise CyclicCovers("cover relation contains a cycle")
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(d.to_bytes(width, "little") for d in down),
                           dtype=np.uint8).reshape(n, width)
    # Row b of the unpacked bits is b's down-set, so its transpose is leq.
    below = np.unpackbits(packed, axis=1, count=n, bitorder="little")
    return np.ascontiguousarray(below.T, dtype=bool), tuple(sorted(covers))


def _unique_bottom(leq):
    rows = np.flatnonzero(leq.all(axis=1))
    if len(rows) != 1:
        raise NotBounded("no unique bottom element")
    return int(rows[0])


def _unique_top(leq):
    cols = np.flatnonzero(leq.all(axis=0))
    if len(cols) != 1:
        raise NotBounded("no unique top element")
    return int(cols[0])


def _meet_join_tables(leq):
    """Meet and join tables from matrix products, a band of rows at a time.

    For the join, rank the elements in a linear extension (ascending
    down-set size) and weight the element of rank r by 4**-r.  The up-set
    rows of i and j, one of them weighted, multiply to the sum of the
    weights of their common upper bounds; that sum lies in
    [4**-r, (4/3) * 4**-r) for the least rank r among them, so its binary
    exponent gives r exactly, whatever order the products sum in.  The
    element of rank r is the only candidate for the join, and it is the
    join exactly when its up-set is as large as the count of common upper
    bounds, a second product.  The meet is the same on the reversed order.
    The tables are symmetric, so a band computes only its columns from its
    first row on, where the first failing pair in row-major order lies,
    copies the rest from the bands above, and is written, as int64, over
    the rows of the float operand that no later band reads.
    """
    n = len(leq)
    tables = []
    for order_rel, what in ((leq.T, "meet"), (leq, "join")):
        order = np.argsort(order_rel.sum(axis=0), kind="stable")
        up_size = order_rel.sum(axis=1)
        weight = np.ldexp(1.0, -2 * np.argsort(order))
        up = order_rel.astype(np.float64, order="C")
        out = up.view(np.int64)
        for lo in range(0, n, BAND):
            band = up[lo:lo + BAND]
            joins = order[(1 - np.frexp((band * weight) @ up[lo:].T)[1]) // 2]
            bad = np.argwhere(up_size[joins] != band @ up[lo:].T)
            if len(bad):
                i, j = bad[0] + lo
                raise NotALattice(f"elements {i} and {j} have no unique {what}")
            out[lo:lo + BAND, lo:] = joins
            out[lo:lo + BAND, :lo] = out[:lo, lo:lo + BAND].T
        tables.append(out)
    return tables


# --- derived checks -------------------------------------------------------


def med_dual_check(L: Lattice) -> bool:
    """Whether the join-of-meets median agrees with ``L.med`` on all triples."""
    meet, join = L.meet_table, L.join_table
    for x in range(L.size):
        primal = meet[meet[join[x][:, None], join], join[:, x][None, :]]
        dual = join[join[meet[x][:, None], meet], meet[:, x][None, :]]
        if not np.array_equal(primal, dual):
            return False
    return True


def is_isomorphic(a: Lattice, b: Lattice) -> bool:
    """Brute-force order-isomorphism test; intended for small test lattices."""
    if a.size != b.size:
        return False
    n = a.size
    # Degree profiles prune most permutations before the full scan.
    profile_a = sorted((int(a.leq_table[i].sum()), int(a.leq_table[:, i].sum()))
                       for i in range(n))
    profile_b = sorted((int(b.leq_table[i].sum()), int(b.leq_table[:, i].sum()))
                       for i in range(n))
    if profile_a != profile_b:
        return False
    for perm in itertools.permutations(range(n)):
        if all(a.leq_table[i, j] == b.leq_table[perm[i], perm[j]]
               for i in range(n) for j in range(n)):
            return True
    return False


# --- catalogue ------------------------------------------------------------

_CHAIN_RE = re.compile(r"^chain\((\d+)\)$")
_BOOLEAN_RE = re.compile(r"^boolean\((\d+)\)$")


def catalogue(name: str) -> Lattice:
    """Named test lattices: chain(k), boolean(k), M3, N5."""
    m = _CHAIN_RE.match(name)
    if m:
        k = int(m.group(1))
        if not 1 <= k <= MAX_SIZE:
            raise UnknownName(f"chain size must be in 1..{MAX_SIZE}: {name}")
        return build_from_covers(k, [(i, i + 1) for i in range(k - 1)], name=name)
    m = _BOOLEAN_RE.match(name)
    if m:
        k = int(m.group(1))
        if k >= MAX_SIZE.bit_length():
            raise UnknownName(f"{name} has more than {MAX_SIZE} elements")
        size = 1 << k
        covers = [(s, s | (1 << b)) for s in range(size) for b in range(k)
                  if not s & (1 << b)]
        return build_from_covers(size, covers, name=name)
    if name == "M3":
        return build_from_covers(
            5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)], name="M3",
            labels={0: "bot", 1: "a", 2: "b", 3: "c", 4: "top"})
    if name == "N5":
        return build_from_covers(
            5, [(0, 1), (1, 3), (0, 2), (3, 4), (2, 4)], name="N5",
            labels={0: "bot", 1: "a", 2: "b", 3: "c", 4: "top"})
    raise UnknownName(f"no catalogue lattice named {name!r}")
