"""Congruences of finite lattices represented as normalized partitions.

A congruence is an equivalence relation that respects meet and join.  Three
routes compute the least congruence collapsing a pair: the closed-form
characterization on distributive lattices (x ~ y iff b v x = b v y and
a ^ x = a ^ y for a <= b), a numpy fixpoint over the meet and join tables
that works on any lattice, and a pair-by-pair Python closure kept as the
independent reference for both.  The whole congruence lattice is generated
by con(j_*, j) for the join-irreducible elements j and their unique lower
covers j_*: these are the join-irreducible congruences, and every cover
principal con(a, b) equals one of them, so they are the distinct cover
principals.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetExceeded, ForeignElement, NotDistributive, \
    SizeMismatch
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


def _check_pair(L: Lattice, a: int, b: int) -> None:
    """Raise ForeignElement unless a and b lie in ``0..size-1``."""
    for e in (a, b):
        if not 0 <= e < L.size:
            raise ForeignElement(f"element {e} outside carrier of size {L.size}")


def formula_relation(L: Lattice, a: int, b: int) -> Congruence:
    """Partition relating x, y iff b v x = b v y and a ^ x = a ^ y (a <= b).

    On a distributive lattice this is exactly the least congruence collapsing
    a and b; elsewhere it is just an equivalence whose behaviour is reported,
    not assumed.  Raises ForeignElement for an element outside the carrier
    and ValueError unless a <= b.
    """
    _check_pair(L, a, b)
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
    _check_pair(L, a, b)
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
    _check_pair(L, a, b)
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


def principal_congruence_fixpoint(L: Lattice, a: int, b: int) -> Congruence:
    """Least congruence collapsing a and b, by one numpy fixpoint.

    Works on any lattice.  ``label[x]`` is the smallest member of x's class.
    Each round takes every translation pair (x v c, rep(x) v c) and
    (x ^ c, rep(x) ^ c) at once and merges the classes the crossing ones
    join, until no pair crosses a class.
    """
    _check_pair(L, a, b)
    n = L.size
    meet, join = L.meet_table, L.join_table
    label = np.arange(n)
    label[max(a, b)] = min(a, b)
    while True:
        moved = np.flatnonzero(label != np.arange(n))
        reps = label[moved]
        p = label[np.stack([join[moved], meet[moved]])].ravel()
        q = label[np.stack([join[reps], meet[reps]])].ravel()
        crossing = p != q
        if not crossing.any():
            return Congruence.from_class_of(label.tolist())
        label = _merge(label, p[crossing], q[crossing])


def _merge(label, p, q):
    """Flat labels after joining the classes of each pair (p[i], q[i]):
    min-label propagation between class roots, then pointer jumping, until
    both ends of every pair point at one root."""
    while True:
        rp, rq = label[p], label[q]
        apart = rp != rq
        if not apart.any():
            return label
        low = np.minimum(rp[apart], rq[apart])
        np.minimum.at(label, rp[apart], low)
        np.minimum.at(label, rq[apart], low)
        while not np.array_equal(label[label], label):
            label = label[label]


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

    Only the join-irreducible cover principals con(j_*, j) are closed, one
    for each element j with exactly one lower cover j_*: they are the
    join-irreducible congruences, and every cover principal equals one of
    them (take j minimal with j <= b, j not <= a; then (j_*, j) is
    perspective to (a, b)).  So the set they form is the set of distinct
    cover principals, and it generates Con L.  The identity is not among them.
    """
    lower_covers = Counter(j for _, j in L.covers)
    found = {principal_congruence_fixpoint(L, a, j)
             for a, j in L.covers if lower_covers[j] == 1}
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
