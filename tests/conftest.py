import itertools
import random
import sys
from pathlib import Path

import pytest

from latcong.congruences import all_congruences, congruence_join, is_congruence
from latcong.lattice import build_from_covers, catalogue

sys.path.insert(0, str(Path(__file__).parent))

import oracles  # noqa: E402  (needs the path above)


@pytest.fixture(scope="session")
def c2():
    return catalogue("chain(2)")


@pytest.fixture(scope="session")
def c3():
    return catalogue("chain(3)")


@pytest.fixture(scope="session")
def c4():
    return catalogue("chain(4)")


@pytest.fixture(scope="session")
def b2():
    return catalogue("boolean(2)")


@pytest.fixture(scope="session")
def b3():
    return catalogue("boolean(3)")


@pytest.fixture(scope="session")
def m3():
    return catalogue("M3")


@pytest.fixture(scope="session")
def n5():
    return catalogue("N5")


CATALOGUE_NAMES = ["chain(2)", "chain(3)", "chain(4)", "chain(5)",
                   "boolean(2)", "boolean(3)", "M3", "N5"]

DISTRIBUTIVE_NAMES = ["chain(2)", "chain(3)", "chain(4)", "chain(5)",
                      "chain(6)", "boolean(2)", "boolean(3)"]


def relabelling(size, seed):
    """The renumbering ``relabelled`` applies: element a becomes perm[a]."""
    perm = list(range(size))[::-1]
    if seed is not None:
        random.Random(seed).shuffle(perm)
    return perm


def relabelled(L, seed):
    """The same lattice with its elements renumbered by a seeded shuffle, or
    in reverse for ``seed=None`` so that every cover runs down."""
    perm = relabelling(L.size, seed)
    covers = sorted((perm[a], perm[b]) for a, b in L.covers)
    return build_from_covers(L.size, covers, name=L.name)


def assert_joins_are_members(L):
    """The join of two congruences is a congruence, and so already in Con L;
    it is the transitive closure of their union, found without union-find."""
    congs = all_congruences(L)
    for theta, psi in itertools.product(congs, repeat=2):
        joined = congruence_join(L, theta, psi)
        assert joined == oracles.join_of_partitions(theta, psi)
        assert is_congruence(L, joined)
        assert joined in congs
