"""Congruences of finite lattices.

A congruence is an equivalence relation that respects meet and join.  A
``Congruence`` numbers its classes by first appearance, whatever ids it is
given; inside the module it is also a label row, and one numpy routine,
``_merge``, joins classes: it closes a principal congruence over the meet
and join tables and joins two congruences.  Con L takes no closure: its
join-irreducibles are the generators con(j_*, j), one for each
join-irreducible j with lower cover j_*, and as Con L is distributive each
congruence is the join of exactly one down-set of them (Birkhoff).  The
closed form on distributive lattices (x ~ y iff b v x = b v y and
a ^ x = a ^ y for a <= b) is the other route to a principal congruence;
the independent reference, a union-find closure, lives in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetExceeded, InvalidArgument, NotDistributive, \
    SizeMismatch
from .lattice import Lattice, _integer, _size, check_elements, check_type

# The most labels, and the most cover flags, in one walk of ``all_congruences``.
MERGE_LABELS = 1 << 18


@dataclass(frozen=True)
class Congruence:
    """Partition of ``0 .. size-1``: any hashable class ids, renumbered
    0, 1, ... by first appearance, so ordered by smallest member; other
    ids raise InvalidArgument."""

    class_of: tuple[int, ...]

    def __post_init__(self):
        try:
            ids = dict(zip(dict.fromkeys(self.class_of), range(len(self.class_of))))
        except TypeError:
            raise InvalidArgument(f"class ids {self.class_of!r} are not a sequence of "
                                  "hashable ids; blocks go through from_blocks") from None
        object.__setattr__(self, "class_of", tuple(map(ids.__getitem__, self.class_of)))

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
        return cls(tuple(class_of))

    @classmethod
    def from_blocks(cls, blocks, size: int) -> "Congruence":
        """Raises InvalidArgument for a size that is not an int or is
        negative or a block that is not an iterable of ints (bools are not
        ints), SizeMismatch unless the blocks cover ``0 .. size-1`` once."""
        class_of = [None] * _size(size)
        for tag, block in enumerate(blocks):
            try:
                members = [_integer(e, "member") for e in block]
            except (TypeError, InvalidArgument):
                raise InvalidArgument(
                    f"block {block!r} is not an iterable of ints") from None
            for e in members:
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
        return cls(tuple(range(_size(size))))

    @classmethod
    def total(cls, size: int) -> "Congruence":
        return cls((0,) * _size(size))


def _as_congruence(L, partition):
    size = check_type(L, Lattice).size
    cong = partition if isinstance(partition, Congruence) \
        else Congruence.from_blocks(partition, size)
    if cong.lattice_size != size:
        raise SizeMismatch(
            f"partition of {cong.lattice_size} elements on lattice of size {size}")
    return cong


def _labels(class_of):
    """Smallest-member labels from class ids."""
    ids = np.asarray(class_of)
    return (ids[:, None] == ids[None, :]).argmax(axis=1)


def _translations(L, label):
    """Labels at both ends of the translation pairs (x v c, rep(x) v c) and
    (x ^ c, rep(x) ^ c), over every c and every x not its class's rep."""
    moved = np.flatnonzero(label != np.arange(L.size))
    reps = label[moved]
    meet, join = L.meet_table, L.join_table
    p = label[np.concatenate((join[moved], meet[moved]))].ravel()
    q = label[np.concatenate((join[reps], meet[reps]))].ravel()
    return p, q


def is_congruence(L: Lattice, partition) -> bool:
    """Whether the partition respects meet and join.

    Checks substitution in a single variable (x ~ y forces x v c ~ y v c and
    x ^ c ~ y ^ c); with transitivity this is equivalent to the two-variable
    definition.  Pairs are taken against a class representative only.
    """
    p, q = _translations(L, _labels(_as_congruence(L, partition).class_of))
    return bool(np.array_equal(p, q))


def formula_relation(L: Lattice, a: int, b: int) -> Congruence:
    """Partition relating x, y iff b v x = b v y and a ^ x = a ^ y (a <= b).

    On a distributive lattice this is exactly the least congruence collapsing
    a and b; elsewhere it is just an equivalence whose behaviour is reported,
    not assumed.  Raises ForeignElement for an element outside the carrier
    and InvalidArgument unless a <= b.
    """
    if not check_type(L, Lattice).leq(a, b):
        raise InvalidArgument(f"expected a <= b, got ({a}, {b})")
    return Congruence((L.join_table[b] * L.size + L.meet_table[a]).tolist())


def formula_relation_is_congruence(L: Lattice, a: int, b: int) -> bool:
    return is_congruence(L, formula_relation(L, a, b))


def principal_congruence(L: Lattice, a: int, b: int) -> Congruence:
    """Least congruence collapsing a and b, by the closed-form characterization.

    Only valid on distributive lattices.  An arbitrary pair is first replaced
    by (a ^ b, a v b): any congruence collapsing one collapses the other.
    """
    a, b = check_elements(check_type(L, Lattice).size, (a, b), "element")
    if not L.is_distributive:
        raise NotDistributive(
            "closed-form principal congruences need distributivity; "
            "use principal_congruence_fixpoint")
    return formula_relation(L, L.meet(a, b), L.join(a, b))


def principal_congruence_fixpoint(L: Lattice, a: int, b: int) -> Congruence:
    """Least congruence collapsing a and b, by one numpy fixpoint.

    Works on any lattice.  Each round takes every translation pair at once
    and merges the classes the crossing ones join, until no pair crosses a
    class.
    """
    a, b = check_elements(check_type(L, Lattice).size, (a, b), "element")
    label = np.arange(L.size)
    label[max(a, b)] = min(a, b)
    while True:
        p, q = _translations(L, label)
        crossing = p != q
        if not crossing.any():
            return Congruence(label.tolist())
        label = _merge(label, p[crossing], q[crossing])


# perfbench/spans.py still traces the closure under this old name; the
# benchmark change of ROADMAP item 1 drops the alias.
principal_congruence_oracle = principal_congruence_fixpoint


def _merge(label, p, q):
    """Labels after joining the classes of each pair (p[i], q[i]):
    min-label propagation between class roots, then pointer jumping, until
    both ends of every pair point at one root.  Writes into ``label``."""
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

    On a lattice that closure is again a congruence, so no substitution
    check is needed here.  Either argument may be given as blocks.
    """
    theta, psi = _as_congruence(L, theta), _as_congruence(L, psi)
    return Congruence(_merge(_labels(theta.class_of), np.arange(L.size),
                             _labels(psi.class_of)).tolist())


@lru_cache(maxsize=64)
def principal_congruences(L: Lattice) -> tuple[Congruence, ...]:
    """Distinct principal congruences con(a, b) of the covering pairs a < b.

    Only con(j_*, j) is closed for each join-irreducible j and its lower
    cover j_*: these are the join-irreducible congruences, and every cover
    principal equals one of them (take j minimal with j <= b, j not <= a;
    then (j_*, j) is perspective to (a, b)).  The identity is not among them.
    """
    found = {principal_congruence_fixpoint(L, a, j)
             for a, j in check_type(L, Lattice).join_irreducible_covers}
    return tuple(sorted(found, key=lambda c: c.class_of))


def all_congruences(L: Lattice) -> tuple[Congruence, ...]:
    """Con L: the join of each down-set of the generators, each once.

    The generators ``principal_congruences(L)``, ordered by the covers they
    collapse, are added in a linear extension, g to every down-set holding
    all generators strictly under g.  A down-set's join is the equivalence
    generated by the covers its members collapse: each element walks down
    collapsed covers, by pointer jumping, to the least of its class, at
    most ``MERGE_LABELS`` labels and cover flags at a time.  Output is
    sorted for determinism.
    """
    n = check_type(L, Lattice).size
    low, high = np.array(L.covers, dtype=np.intp).reshape(-1, 2).T
    gens = np.reshape([g.class_of for g in principal_congruences(L)], (-1, n))
    collapses = gens[:, low] == gens[:, high]
    # under[h, g]: h != g collapses no cover that g leaves apart
    under = ~(collapses @ ~collapses.T)
    np.fill_diagonal(under, False)
    downsets = np.zeros((1, len(gens)), dtype=bool)
    for g in np.argsort(collapses.sum(axis=1), kind="stable"):
        grown = downsets[downsets[:, under[:, g]].all(axis=1)]
        grown[:, g] = True
        downsets = np.concatenate((downsets, grown))
    per_walk = max(1, MERGE_LABELS // max(n, len(low)))
    rows = []
    for start in range(0, len(downsets), per_walk):
        chunk = downsets[start:start + per_walk]
        r, c = np.nonzero(chunk @ collapses)
        label = np.arange(len(chunk) * n)
        label[r * n + high[c]] = r * n + low[c]
        while not np.array_equal(label[label], label):
            label = label[label]
        rows += (label.reshape(-1, n) % n).tolist()
    return tuple(sorted(map(Congruence, rows), key=lambda c: c.class_of))


def all_congruences_bruteforce(L: Lattice, max_size: int = 8) -> tuple[Congruence, ...]:
    """Filter every set partition through is_congruence.

    Bell numbers explode quickly, so this oracle refuses lattices larger than
    ``max_size``.
    """
    if check_type(L, Lattice).size > _integer(max_size, "max_size"):
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
