"""Workload inputs and answer keys that do not come from latcong.

Every order matrix here is written down with numpy alone, and every
expected count follows from that matrix or from a published constant.
Nothing in this module imports latcong, so a wrong enumerator or a wrong
congruence routine cannot agree with its own answer key.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

# Monotone binary tables, from tests/test_compat.py: 24 696 on chain(4),
# and 168 ** 2 on boolean(2) (two independent monotone maps 2^4 -> 2).
MONOTONE_BINARY = {"chain(4)": 24696, "boolean(2)": 168 ** 2}

# |Con(A x B)| = |Con A| * |Con B| for lattices.  Con M3 = {0, 1} and Con N5
# has 5 elements; a k-chain has 2^(k-1) congruences.
NON_DISTRIBUTIVE_CON = {"M3*chain(5)": 2 * 16, "N5*chain(4)": 5 * 8}

_SMALL_COVERS = {
    "M3": (5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]),
    "N5": (5, [(0, 1), (1, 3), (0, 2), (3, 4), (2, 4)]),
}


def chain_leq(k: int) -> np.ndarray:
    return np.triu(np.ones((k, k), dtype=bool))


def boolean_leq(k: int) -> np.ndarray:
    """Subset inclusion on the bit masks 0 .. 2^k - 1."""
    s = np.arange(1 << k)
    return (s[:, None] & s[None, :]) == s[:, None]


def closure_leq(size: int, covers) -> np.ndarray:
    leq = np.eye(size, dtype=bool)
    for a, b in covers:
        leq[a, b] = True
    for k in range(size):
        leq |= leq[:, k:k + 1] & leq[k:k + 1, :]
    return leq


def named_leq(name: str) -> np.ndarray:
    """Order matrix of a catalogue name, numbered as latcong numbers it."""
    if name in _SMALL_COVERS:
        return closure_leq(*_SMALL_COVERS[name])
    kind, _, arg = name.partition("(")
    k = int(arg.rstrip(")"))
    if kind == "chain":
        return chain_leq(k)
    if kind == "boolean":
        return boolean_leq(k)
    raise ValueError(f"no answer key for {name!r}")


def product_leq(factors) -> np.ndarray:
    """Componentwise order, factor 0 most significant (itertools.product)."""
    leq = np.ones((1, 1), dtype=bool)
    for f in factors:
        leq = np.kron(leq, named_leq(f)).astype(bool)
    return leq


def permutation(seed: int, name: str, size: int) -> list[int]:
    """Seeded relabelling: old element ``a`` becomes ``perm[a]``."""
    perm = list(range(size))
    random.Random(f"{seed}/{name}").shuffle(perm)
    return perm


def relabel_leq(leq: np.ndarray, perm) -> np.ndarray:
    inv = np.argsort(np.asarray(perm))
    return leq[np.ix_(inv, inv)]


def join_irreducibles(leq: np.ndarray) -> int:
    """Elements with exactly one lower cover."""
    lt = (leq & ~np.eye(len(leq), dtype=bool)).astype(np.int64)
    covers = (lt > 0) & ~((lt @ lt) > 0)
    return int((covers.sum(axis=0) == 1).sum())


def distributive_con_count(leq: np.ndarray) -> int:
    """|Con L| = 2^|J(L)| for a finite distributive lattice L."""
    return 2 ** join_irreducibles(leq)


def bottom_top(leq: np.ndarray) -> tuple[int, int]:
    return int(np.flatnonzero(leq.all(axis=1))[0]), \
        int(np.flatnonzero(leq.all(axis=0))[0])


def binary_scan_key(leq: np.ndarray) -> dict:
    """Compatible-table and capacity counts for n = 2, by brute force.

    A compatible binary table is fixed by its values on the boolean
    vertices {0,1}^2, and every monotone assignment of those four values
    occurs.  So the compatible tables are counted over all size^4 value
    tuples, and the capacities are the ones with pinned ends.
    """
    size = len(leq)
    bottom, top = bottom_top(leq)
    compatible = capacities = 0
    for g in itertools.product(range(size), repeat=4):
        if all(leq[g[mask & ~(1 << i)], g[mask]]
               for mask in range(4) for i in range(2) if mask >> i & 1):
            compatible += 1
            capacities += g[0] == bottom and g[3] == top
    return {"compatible": compatible, "capacities": capacities}
