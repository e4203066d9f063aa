"""Congruences of finite lattices represented as normalized partitions.

A congruence is an equivalence relation that respects meet and join.  Two
routes compute the least congruence collapsing a pair: the closed-form
characterization on distributive lattices (x ~ y iff b v x = b v y and
a ^ x = a ^ y for a <= b), and an iterative closure that works on any
lattice and serves as the independent oracle for the first.  The whole
congruence lattice is generated by the closures of the covering pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import BudgetExceeded, NotDistributive, SizeMismatch
from .lattice import Lattice


def _normalize(class_of):
    """Renumber classes in order of first appearance."""
    remap = {}
    out = []
    for c in class_of:
        if c not in remap:
            remap[c] = len(remap)
        out.append(remap[c])
    return tuple(out)


@dataclass(frozen=True)
class Congruence:
    """Partition of ``0 .. size-1``; class indices ordered by smallest member."""

    class_of: tuple[int, ...]

    @property
    def lattice_size(self) -> int:
        return len(self.class_of)

    @property
    def num_classes(self) -> int:
        return max(self.class_of) + 1 if self.class_of else 0

    def relates(self, x: int, y: int) -> bool:
        return self.class_of[x] == self.class_of[y]

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        out = [[] for _ in range(self.num_classes)]
        for e, c in enumerate(self.class_of):
            out[c].append(e)
        return tuple(tuple(b) for b in out)

    def __str__(self):
        return "".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks())

    @classmethod
    def from_class_of(cls, class_of) -> "Congruence":
        return cls(_normalize(tuple(class_of)))

    @classmethod
    def from_blocks(cls, blocks, size: int) -> "Congruence":
        class_of = [None] * size
        for tag, block in enumerate(blocks):
            for e in block:
                if not 0 <= e < size:
                    raise SizeMismatch(f"element {e} out of range for size {size}")
                if class_of[e] is not None:
                    raise SizeMismatch(f"element {e} appears in two blocks")
                class_of[e] = tag
        if any(c is None for c in class_of):
            missing = [e for e, c in enumerate(class_of) if c is None]
            raise SizeMismatch(f"elements {missing} not covered by any block")
        return cls.from_class_of(class_of)

    @classmethod
    def identity(cls, size: int) -> "Congruence":
        return cls(tuple(range(size)))

    @classmethod
    def total(cls, size: int) -> "Congruence":
        return cls((0,) * size)


def _as_congruence(L, partition):
    if isinstance(partition, Congruence):
        cong = partition
    else:
        cong = Congruence.from_blocks(partition, L.size)
    if cong.lattice_size != L.size:
        raise SizeMismatch(
            f"partition of {cong.lattice_size} elements on lattice of size {L.size}")
    return cong


def is_congruence(L: Lattice, partition) -> bool:
    """Whether the partition respects meet and join.

    Checks substitution in a single variable (x ~ y forces x v c ~ y v c and
    x ^ c ~ y ^ c); with transitivity this is equivalent to the two-variable
    definition.  Pairs are taken against a class representative only.
    """
    cong = _as_congruence(L, partition)
    cls = cong.class_of
    meet, join = L.meet_table, L.join_table
    rep = {}
    for x in range(L.size):
        r = rep.setdefault(cls[x], x)
        if r == x:
            continue
        for c in range(L.size):
            if cls[join[r, c]] != cls[join[x, c]]:
                return False
            if cls[meet[r, c]] != cls[meet[x, c]]:
                return False
    return True


def formula_relation(L: Lattice, a: int, b: int) -> Congruence:
    """Partition relating x, y iff b v x = b v y and a ^ x = a ^ y (a <= b).

    On a distributive lattice this is exactly the least congruence collapsing
    a and b; elsewhere it is just an equivalence whose behaviour is reported,
    not assumed.
    """
    if not L.leq(a, b):
        raise ValueError(f"expected a <= b, got ({a}, {b})")
    keys = {}
    class_of = []
    for x in range(L.size):
        key = (L.join(b, x), L.meet(a, x))
        class_of.append(keys.setdefault(key, len(keys)))
    return Congruence.from_class_of(class_of)


def formula_relation_is_congruence(L: Lattice, a: int, b: int) -> bool:
    return is_congruence(L, formula_relation(L, a, b))


def principal_congruence(L: Lattice, a: int, b: int) -> Congruence:
    """Least congruence collapsing a and b, by the closed-form characterization.

    Only valid on distributive lattices.  An arbitrary pair is first replaced
    by (a ^ b, a v b): any congruence collapsing one collapses the other.
    """
    if not L.is_distributive:
        raise NotDistributive(
            "closed-form principal congruences need distributivity; "
            "use principal_congruence_oracle")
    return formula_relation(L, L.meet(a, b), L.join(a, b))


def _find(parent, x):
    """Root of x in the union-find forest ``parent``, halving paths."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent, x, y) -> bool:
    """Merge the classes of x and y; False if they were already one."""
    rx, ry = _find(parent, x), _find(parent, y)
    if rx == ry:
        return False
    parent[ry] = rx
    return True


def principal_congruence_oracle(L: Lattice, a: int, b: int) -> Congruence:
    """Least congruence collapsing a and b, by iterative closure.

    Works on any lattice: merge the pair, then keep merging the images of
    merged pairs under one-sided meets and joins until a fixpoint.
    """
    n = L.size
    parent = list(range(n))
    meet, join = L.meet_table, L.join_table
    queue = []
    if _union(parent, a, b):
        queue.append((a, b))
    while queue:
        x, y = queue.pop()
        for c in range(n):
            for p, q in ((join[x, c], join[y, c]), (meet[x, c], meet[y, c])):
                if _union(parent, p, q):
                    queue.append((p, q))
    return Congruence.from_class_of([_find(parent, x) for x in range(n)])


def congruence_join(L: Lattice, theta: Congruence, psi: Congruence) -> Congruence:
    """Least congruence containing both: transitive closure of the union.

    On a lattice the transitive closure of two congruences is again a
    congruence, so no substitution check is needed here.
    """
    if theta.lattice_size != psi.lattice_size or theta.lattice_size != L.size:
        raise SizeMismatch("congruence join needs partitions of the same lattice")
    n = L.size
    parent = list(range(n))
    for cong in (theta, psi):
        first = {}
        for e, c in enumerate(cong.class_of):
            if c in first:
                _union(parent, first[c], e)
            else:
                first[c] = e
    return Congruence.from_class_of([_find(parent, x) for x in range(n)])


@lru_cache(maxsize=64)
def principal_congruences(L: Lattice) -> tuple[Congruence, ...]:
    """Distinct principal congruences con(a, b) of the covering pairs a < b.

    Every congruence of a finite lattice is the join of the cover principals
    it contains, so these generate Con L.  The identity is not among them.
    """
    found = {principal_congruence_oracle(L, a, b) for a, b in L.covers}
    return tuple(sorted(found, key=lambda c: c.class_of))


def all_congruences(L: Lattice) -> tuple[Congruence, ...]:
    """Con L: the identity closed under joins with the cover principals.

    Joining one generator at a time reaches every join of generators, which
    is every congruence; that takes |Con L| x |generators| joins.  Output is
    sorted for determinism.
    """
    generators = principal_congruences(L)
    found = {Congruence.identity(L.size)}
    frontier = list(found)
    while frontier:
        fresh = []
        for theta in frontier:
            for gen in generators:
                joined = congruence_join(L, theta, gen)
                if joined not in found:
                    found.add(joined)
                    fresh.append(joined)
        frontier = fresh
    return tuple(sorted(found, key=lambda c: c.class_of))


def all_congruences_bruteforce(L: Lattice, max_size: int = 8) -> tuple[Congruence, ...]:
    """Filter every set partition through is_congruence.

    Bell numbers explode quickly, so this oracle refuses lattices larger than
    ``max_size``.
    """
    if L.size > max_size:
        raise BudgetExceeded(
            f"partition enumeration gated to size <= {max_size}, got {L.size}")
    out = [Congruence(p) for p in _partitions(L.size) if is_congruence(L, Congruence(p))]
    return tuple(sorted(out, key=lambda c: c.class_of))


def _partitions(n):
    """All partitions of range(n) as restricted-growth strings."""
    if n == 0:
        yield ()
        return
    a = [0] * n

    def rec(i, width):
        if i == n:
            yield tuple(a)
            return
        for v in range(width + 1):
            a[i] = v
            yield from rec(i + 1, width + (v == width))

    yield from rec(1, 1)
