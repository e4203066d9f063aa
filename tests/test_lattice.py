import itertools
import re

import pytest

import oracles
from conftest import CATALOGUE_NAMES, DISTRIBUTIVE_NAMES, relabelled
from latcong.errors import CyclicCovers, NotALattice, NotBounded, UnknownName
from latcong.lattice import MAX_SIZE, build_from_covers, catalogue, \
    is_isomorphic, med_dual_check


def test_chain_construction():
    L = build_from_covers(3, [(0, 1), (1, 2)])
    assert L.bottom == 0
    assert L.top == 2
    assert L.leq(0, 2)
    assert not L.leq(2, 0)
    assert L.meet(1, 2) == 1
    assert L.join(1, 2) == 2


def test_pentagon_construction_is_valid():
    # bottom < a < c < top, bottom < b < top, with a, b and c, b incomparable
    L = build_from_covers(5, [(0, 1), (1, 3), (0, 2), (3, 4), (2, 4)])
    for x, y in itertools.product(range(5), repeat=2):
        assert L.meet(x, y) == oracles.greatest_lower_bound(L, x, y)
        assert L.join(x, y) == oracles.least_upper_bound(L, x, y)
    assert not L.leq(1, 2)
    assert not L.leq(2, 1)


def test_vee_has_no_join():
    with pytest.raises((NotBounded, NotALattice)):
        build_from_covers(3, [(0, 1), (0, 2)])


def test_cyclic_covers_rejected():
    with pytest.raises(CyclicCovers):
        build_from_covers(2, [(0, 1), (1, 0)])
    with pytest.raises(CyclicCovers):
        build_from_covers(1, [(0, 0)])


def test_hexagon_without_unique_meet_rejected():
    # two maximal lower bounds for the two coatoms
    with pytest.raises((NotALattice, NotBounded)):
        build_from_covers(6, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4),
                              (3, 5), (4, 5)])


HEXAGON = [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 5), (4, 5)]


class _Order:
    """Reflexive-transitive closure of a cover list, for the bound oracles."""

    def __init__(self, size, covers):
        self.size = size
        self.pairs = {(a, a) for a in range(size)} | set(covers)
        while True:
            step = {(a, d) for a, b in self.pairs for c, d in self.pairs if b == c}
            if step <= self.pairs:
                break
            self.pairs |= step

    def leq(self, a, b):
        return (a, b) in self.pairs


@pytest.mark.parametrize("perm", [range(6), [4, 5, 3, 1, 2, 0]])
def test_hexagon_error_names_a_pair_without_bound(perm):
    covers = [(perm[a], perm[b]) for a, b in HEXAGON]
    with pytest.raises(NotALattice) as err:
        build_from_covers(6, covers)
    m = re.fullmatch(r"elements (\d+) and (\d+) have no unique (meet|join)",
                     str(err.value))
    assert m
    a, b = int(m[1]), int(m[2])
    bound = oracles.greatest_lower_bound if m[3] == "meet" else oracles.least_upper_bound
    assert bound(_Order(6, covers), a, b) is None


@pytest.mark.parametrize("seed", [None, 11])
@pytest.mark.parametrize("name", ["boolean(3)", "N5", "M3"])
def test_tables_on_relabelled_catalogue(name, seed):
    """Tables must not depend on covers running up in element order."""
    L = relabelled(catalogue(name), seed)
    assert any(a > b for a, b in L.covers)
    for a, b in itertools.product(range(L.size), repeat=2):
        assert L.meet(a, b) == oracles.greatest_lower_bound(L, a, b)
        assert L.join(a, b) == oracles.least_upper_bound(L, a, b)


def test_catalogue_size_guard():
    assert MAX_SIZE == 512
    assert catalogue("boolean(9)").size == 512
    for name in ("boolean(10)", "boolean(12)", "boolean(99999)", "chain(513)"):
        with pytest.raises(UnknownName):
            catalogue(name)


def test_out_of_range_cover_rejected():
    with pytest.raises(NotALattice):
        build_from_covers(2, [(0, 5)])


def test_catalogue_entries():
    assert catalogue("chain(2)").size == 2
    assert catalogue("boolean(2)").size == 4
    assert catalogue("M3").size == 5
    assert catalogue("N5").size == 5
    with pytest.raises(UnknownName):
        catalogue("pentagon")
    with pytest.raises(UnknownName):
        catalogue("chain(0)")


def test_single_element_lattice():
    L = catalogue("chain(1)")
    assert L.bottom == L.top == 0
    assert L.meet(0, 0) == 0


@pytest.mark.parametrize("name", CATALOGUE_NAMES)
def test_meet_join_against_bound_scan(name):
    """Tables must agree with the literal greatest/least bound search."""
    L = catalogue(name)
    for a, b in itertools.product(range(L.size), repeat=2):
        assert L.meet(a, b) == oracles.greatest_lower_bound(L, a, b)
        assert L.join(a, b) == oracles.least_upper_bound(L, a, b)


@pytest.mark.parametrize("name", CATALOGUE_NAMES)
def test_lattice_identities(name):
    L = catalogue(name)
    rng = range(L.size)
    for a, b in itertools.product(rng, repeat=2):
        assert L.meet(a, b) == L.meet(b, a)
        assert L.join(a, b) == L.join(b, a)
        assert L.meet(a, a) == a
        assert L.join(a, a) == a
        assert L.meet(a, L.join(a, b)) == a
        assert L.join(a, L.meet(a, b)) == a
    for a, b, c in itertools.product(rng, repeat=3):
        assert L.meet(a, L.meet(b, c)) == L.meet(L.meet(a, b), c)
        assert L.join(a, L.join(b, c)) == L.join(L.join(a, b), c)


@pytest.mark.parametrize("name", CATALOGUE_NAMES)
def test_bounds(name):
    L = catalogue(name)
    for x in range(L.size):
        assert L.leq(L.bottom, x)
        assert L.leq(x, L.top)


@pytest.mark.parametrize("name", DISTRIBUTIVE_NAMES)
def test_distributive_catalogue(name):
    assert catalogue(name).is_distributive


@pytest.mark.parametrize("name", ["M3", "N5"])
def test_non_distributive_catalogue(name):
    assert not catalogue(name).is_distributive


def test_distributivity_identity_by_hand(m3):
    # the identity fails at the atoms of the diamond
    a, b, c = 1, 2, 3
    assert m3.meet(a, m3.join(b, c)) == a
    assert m3.join(m3.meet(a, b), m3.meet(a, c)) == m3.bottom


def test_med_examples(c3, b2):
    assert c3.med(0, 2, 1) == 1
    assert b2.med(1, 2, 3) == 3  # two atoms and top


@pytest.mark.parametrize("name", CATALOGUE_NAMES)
def test_med_symmetric_and_absorbing(name):
    L = catalogue(name)
    for x, y, z in itertools.product(range(L.size), repeat=3):
        base = L.med(x, y, z)
        for p in itertools.permutations((x, y, z)):
            assert L.med(*p) == base
        assert L.med(x, y, x) == x


@pytest.mark.parametrize("name", DISTRIBUTIVE_NAMES)
def test_med_collapses_on_ordered_pair(name):
    """If x <= z the median is (x v y) ^ z."""
    L = catalogue(name)
    for x, y, z in itertools.product(range(L.size), repeat=3):
        if L.leq(x, z):
            assert L.med(x, y, z) == L.meet(L.join(x, y), z)


def test_med_dual_check(c4, m3, b3):
    assert med_dual_check(c4)
    assert not med_dual_check(m3)
    assert med_dual_check(b3)


def test_covers_are_minimal(c4, b2):
    assert c4.covers == ((0, 1), (1, 2), (2, 3))
    assert set(b2.covers) == {(0, 1), (0, 2), (1, 3), (2, 3)}


def test_chain_detection(c4, b2):
    assert c4.is_chain
    assert not b2.is_chain


def test_isomorphism_invariance():
    # same pentagon with permuted element numbers
    L1 = catalogue("N5")
    L2 = build_from_covers(5, [(2, 4), (4, 0), (2, 3), (0, 1), (3, 1)])
    assert is_isomorphic(L1, L2)
    assert not is_isomorphic(L1, catalogue("M3"))


def test_structural_equality(c3):
    again = build_from_covers(3, [(0, 1), (1, 2)], name="other")
    assert again == c3  # names do not matter for structure
    assert hash(again) == hash(c3)


def test_tables_are_read_only(c3):
    with pytest.raises(ValueError):
        c3.leq_table[0, 0] = False
