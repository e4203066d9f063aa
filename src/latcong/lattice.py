"""Finite bounded lattices with fully materialized order and operation tables.

A lattice is built once from its cover relation (Hasse diagram), validated
eagerly, and never mutated afterwards: the order must be a partial order,
every pair of elements must have a unique greatest lower bound and least
upper bound, and a global bottom and top must exist.  Elements are the
integers ``0 .. size-1``; labels are display-only decoration.  The order,
the true covers and each element's height come from one pass over the
cover pairs in a topological order, with each down-set kept as an int
bitset.  The meet and join tables come by induction over the covers, one
level of height at a time, and one count product checks the meets.
"""

from __future__ import annotations

import itertools
import re
from functools import cached_property

import numpy as np

from .errors import CyclicCovers, ForeignElement, InvalidArgument, NotALattice, \
    NotBounded, TooLarge, UnknownName

Element = int

# Largest carrier a Lattice accepts (boolean(9)), for memory: the meet and
# join tables take 8 * size**2 bytes each, 2 MB at 512 elements, and every
# congruence, table stack and plan built on a lattice grows with its size.
MAX_SIZE = 512
# Rows of a meet or join table gathered at a time.
ROWS = 64


def check_elements(size: int, values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of elements of ``0..size-1``.

    InvalidArgument unless they are ints (numpy integers are, bools are
    not); ForeignElement names the least value if negative, else the largest.
    """
    try:
        values = values if type(values) is tuple else tuple(values)
    except TypeError:
        raise InvalidArgument(f"{what} must be ints, not {values!r}") from None
    for v in values:
        if type(v) is not int or not 0 <= v < size:
            break
    else:
        return values
    values = tuple(_integer(v, what) for v in values)
    low, high = min(values), max(values)
    if low < 0 or high >= size:
        raise ForeignElement(f"{what} {low if low < 0 else high} "
                             f"outside carrier of size {size}")
    return values


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
        not an int, a cover that is not a pair, a name that is neither None
        nor a str or labels that are not a mapping, CyclicCovers,
        NotBounded, or NotALattice when the input does not describe a
        finite bounded lattice, TooLarge above
        ``MAX_SIZE`` elements, and ForeignElement for a label of an element
        outside ``0..size-1``.
        """
        size = _integer(size, "size")
        if name is not None and not isinstance(name, str):
            raise InvalidArgument(f"a lattice name is a str or None, not {name!r}")
        if size <= 0:
            raise NotBounded("a bounded lattice needs at least one element")
        if size > MAX_SIZE:
            raise TooLarge(f"{size} elements exceed the limit of {MAX_SIZE}")
        leq, self.covers, lower, height = _order_and_covers(_predecessors(size, covers))
        self.size = size
        self.leq_table = leq
        self.bottom = _unique_bottom(leq)
        self.top = _unique_top(leq)
        self.meet_table, self.join_table = _meet_join_tables(leq, lower, height)
        self.name = name
        try:
            self.labels = dict(labels) if labels else {}
        except (TypeError, ValueError):
            raise InvalidArgument(f"labels must map elements to text, not {labels!r}") \
                from None
        check_elements(size, [_integer(a, "label key") for a in self.labels], "label for")
        for arr in (self.leq_table, self.meet_table, self.join_table):
            arr.flags.writeable = False
        # Every plan and cache lookup hashes the lattice; the order is fixed.
        self._hash = hash((size, leq.tobytes()))

    # --- basic queries ---------------------------------------------------
    # Each raises ForeignElement for an element outside the carrier, which
    # numpy would otherwise read from the end of a row.

    def leq(self, a: Element, b: Element) -> bool:
        return self.leq_table.item(check_elements(self.size, (a, b), "element"))

    def meet(self, a: Element, b: Element) -> Element:
        return self.meet_table.item(check_elements(self.size, (a, b), "element"))

    def join(self, a: Element, b: Element) -> Element:
        return self.join_table.item(check_elements(self.size, (a, b), "element"))

    def med(self, x: Element, y: Element, z: Element) -> Element:
        """Median term (x v y) ^ (y v z) ^ (z v x)."""
        x, y, z = check_elements(self.size, (x, y, z), "element")
        j, m = self.join_table.item, self.meet_table.item
        return m(m(j(x, y), j(y, z)), j(z, x))

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
    """``value`` as an int: an exact int or a numpy integer, so not a bool."""
    if type(value) is int or isinstance(value, np.integer):
        return int(value)
    raise InvalidArgument(f"{what} must be an int, not {value!r}")


def _size(value):
    """``value`` as an int; InvalidArgument unless it is one and not negative."""
    if (value := _integer(value, "size")) < 0:
        raise InvalidArgument(f"size must not be negative, got {value}")
    return value


def check_type(value, kind: type):
    """``value``; InvalidArgument unless it is an instance of ``kind``."""
    if not isinstance(value, kind):
        raise InvalidArgument(f"expected a {kind.__name__}, got {type(value).__name__}")
    return value


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
    """The order table, the sorted true covers, each element's lower covers
    and its height, by one Kahn pass.

    ``down[b]`` is b's down-set as an int bitset: b's own bit or'ed with the
    down-sets of its predecessors, all popped before b.  Anything strictly
    between a predecessor a and b lies below another predecessor, so a is a
    cover of b iff a is outside ``inner``, the union of the predecessors'
    strict down-sets.  ``height[b]`` is one more than the greatest height of
    b's predecessors, so every element is higher than all those it covers.
    An element never popped lies on a cycle.
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
    height = [0] * n
    lower = [None] * n
    for b in ready:  # grows as the elements above b become ready
        union = inner = 0
        for a in preds[b]:
            union |= down[a]
            inner |= down[a] ^ bit[a]
            if height[a] >= height[b]:
                height[b] = height[a] + 1
        down[b] = union | bit[b]
        lower[b] = [a for a in preds[b] if not inner & bit[a]]
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
    covers = tuple(sorted((a, b) for b in range(n) for a in lower[b]))
    return np.ascontiguousarray(below.T, dtype=bool), covers, lower, height


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


def _meet_join_tables(leq, lower, height):
    """Meet and join tables by induction over the covers, a level at a time.

    If x <= y then x ^ y = x.  Otherwise x is not the bottom, and x ^ y is
    the greatest of the x' ^ y over the lower covers x' of x.  The elements
    of one height form a level whose lower covers all lie in lower levels,
    so a level is a gather of their rows and a maximum.  The join is the
    same on the dual order: upper covers and levels from the top down.

    In any bounded poset each computed x ^ y is a common lower bound of x
    and y, and it is their meet m when they have one: m lies below some
    lower cover x' of x, so m is the meet of x' and y too, computed there by
    induction, and every other candidate lies below m.  So a pair has a
    meet iff the down-set of its computed meet is as large as the count
    product (leq.T @ leq)[x, y] = |down(x) & down(y)|, and the error names
    the first pair in row-major order that fails.  A poset with a top in
    which every pair has a meet is a lattice, so the joins need no check.
    Until the joins are written, their table holds the float32 operands
    and results of the check.
    """
    n = len(leq)
    upper, levels = [[] for _ in range(n)], [[] for _ in range(max(height) + 1)]
    for b, below in enumerate(lower):
        levels[height[b]].append(b)
        for a in below:
            upper[a].append(b)
    meet, join = np.empty((n, n), np.int64), np.empty((n, n), np.int64)
    _induction(leq, levels, lower, meet)
    scratch = join.reshape(-1).view(np.float32)
    floats, counts = scratch[:n * n].reshape(n, n), scratch[n * n:].reshape(n, n)
    np.copyto(floats, leq)
    np.matmul(floats.T, floats, out=counts)
    # mode "clip" writes straight into floats; "raise" would buffer it.
    np.take(leq.sum(axis=0, dtype=np.float32), meet, out=floats, mode="clip")
    bad = floats != counts
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise NotALattice(f"elements {i} and {j} have no unique meet")
    _induction(leq.T, levels[::-1], upper, join)
    return meet, join


def _induction(le, levels, lower, out):
    """Write into ``out`` the meet table of the order ``le`` whose lower
    covers are ``lower``, one of the ``levels`` at a time.

    Each level holds the elements of one height, the first the bottom
    alone, so level by level the elements run through a linear extension;
    an entry of ``out`` holds its element's rank in it times 2**16 plus the
    element, so the greatest of a set of meets is their largest entry.
    ``out`` starts as x's entry where x <= y and 0 elsewhere, below every
    entry but the bottom's, so row x is the maximum of its own start row
    and the rows of x's lower covers.  A level is one index array of rows
    (x, covers of x...), each padded with x to the widest, as x's own row
    again changes no maximum; it is gathered and maxed about ``ROWS`` rows
    at a time to bound the temporaries.
    """
    order = np.array([x for level in levels for x in level])
    entry = np.empty(len(order), np.int64)
    entry[order] = np.arange(len(order)) << 16 | order
    np.multiply(le, entry[:, None], out=out)
    for level in levels[1:]:  # levels[0] is the bottom, whose start row is its row
        width = 1 + max(len(lower[x]) for x in level)
        index = np.array([([x, *lower[x]] + [x] * width)[:width] for x in level])
        step = max(1, ROWS // width)
        for i in range(0, len(level), step):
            block = index[i:i + step]
            out[block[:, 0]] = np.maximum.reduce(out.take(block, axis=0), axis=1)
    np.bitwise_and(out, 0xFFFF, out=out)


# --- derived checks -------------------------------------------------------


def med_dual_check(L: Lattice) -> bool:
    """Whether the join-of-meets median agrees with ``L.med`` on all triples."""
    meet, join = check_type(L, Lattice).meet_table, L.join_table
    for x in range(L.size):
        primal = meet[meet[join[x][:, None], join], join[:, x][None, :]]
        dual = join[join[meet[x][:, None], meet], meet[:, x][None, :]]
        if not np.array_equal(primal, dual):
            return False
    return True


def is_isomorphic(a: Lattice, b: Lattice) -> bool:
    """Brute-force order-isomorphism test; intended for small test lattices."""
    if check_type(a, Lattice).size != check_type(b, Lattice).size:
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
    if not isinstance(name, str):
        raise InvalidArgument(f"a catalogue name is a str, not {name!r}")
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
