import hashlib
import itertools
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import CATALOGUE_NAMES, DISTRIBUTIVE_NAMES, relabelled, relabelling
from latcong import lattice
from latcong.constructions import ProductLattice, direct_product, \
    horizontal_sum
from latcong.errors import CyclicCovers, ForeignElement, InvalidArgument, \
    NotALattice, NotBounded, TooLarge, UnknownName
from latcong.lattice import MAX_SIZE, Lattice, build_from_covers, catalogue, \
    is_isomorphic, med_dual_check, row_dtype
from latcong.tables import _Plan, _plan, input_grid
from test_random_lattices import LATTICES as RANDOM_LATTICES


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
    assert bound(oracles.Order(6, covers), a, b) is None


@pytest.mark.parametrize("seed", [None, 11])
@pytest.mark.parametrize("name", ["boolean(3)", "N5", "M3"])
def test_tables_on_relabelled_catalogue(name, seed):
    """Tables must not depend on covers running up in element order."""
    L = relabelled(catalogue(name), seed)
    assert any(a > b for a, b in L.covers)
    for a, b in itertools.product(range(L.size), repeat=2):
        assert L.meet(a, b) == oracles.greatest_lower_bound(L, a, b)
        assert L.join(a, b) == oracles.least_upper_bound(L, a, b)


# --- full-size tables against closed forms ---------------------------------


@pytest.mark.parametrize("seed", ["plain", 7, 11])
def test_boolean9_tables_are_bitwise(seed):
    """In catalogue numbering element i is the subset with bit mask i."""
    L = catalogue("boolean(9)")
    perm = np.arange(L.size)
    if seed != "plain":
        L, perm = relabelled(L, seed), np.array(relabelling(L.size, seed))
    masks = np.arange(L.size)
    at = np.ix_(perm, perm)
    assert np.array_equal(L.meet_table[at], perm[np.bitwise_and.outer(masks, masks)])
    assert np.array_equal(L.join_table[at], perm[np.bitwise_or.outer(masks, masks)])


def test_chain512_tables_are_min_and_max():
    L = catalogue("chain(512)")
    ranks = np.arange(512)
    assert np.array_equal(L.meet_table, np.minimum.outer(ranks, ranks))
    assert np.array_equal(L.join_table, np.maximum.outer(ranks, ranks))
    assert L.is_chain and L.is_distributive


def test_cube_of_chains_tables_are_componentwise():
    L = ProductLattice([catalogue("chain(8)")] * 3)
    assert L.size == 512
    tuples = np.array(L.tuples)
    low = np.minimum(tuples[:, None], tuples[None, :])
    high = np.maximum(tuples[:, None], tuples[None, :])
    assert np.array_equal(tuples[L.meet_table], low)
    assert np.array_equal(tuples[L.join_table], high)


# --- full-size order and covers against closed forms -----------------------


@pytest.mark.parametrize("seed", ["plain", 7, 11])
def test_boolean9_order_is_inclusion_and_covers_are_one_bit_steps(seed):
    """Element perm[m] is the subset with bit mask m, so a <= b is mask
    inclusion and the covers add one bit."""
    perm = relabelling(512, seed) if seed != "plain" else list(range(512))
    covers = [(perm[m], perm[m | 1 << k]) for m in range(512) for k in range(9)
              if not m >> k & 1]
    random.Random(seed).shuffle(covers)
    L = build_from_covers(512, covers)
    masks = np.arange(512)
    inclusion = (masks[:, None] & ~masks[None, :]) == 0
    at = np.ix_(perm, perm)
    assert np.array_equal(L.leq_table[at], inclusion)
    assert L.covers == tuple(sorted(covers))


def test_chain512_from_every_comparable_pair():
    """Every pair i < j given as a cover, some twice, in shuffled order:
    the order is the upper triangle and only the steps i -> i + 1 are kept."""
    pairs = [(i, j) for i in range(512) for j in range(i + 1, 512)]
    pairs += pairs[::97] + [(i, i + 1) for i in range(0, 511, 3)]
    random.Random(5).shuffle(pairs)
    L = build_from_covers(512, pairs)
    assert np.array_equal(L.leq_table, np.triu(np.ones((512, 512), dtype=bool)))
    assert L.covers == tuple((i, i + 1) for i in range(511))


def test_long_cycle_rejected():
    with pytest.raises(CyclicCovers, match="cover relation contains a cycle"):
        build_from_covers(512, [(i, (i + 1) % 512) for i in range(512)])


@pytest.mark.parametrize("below", [0, 1, 254])
def test_back_edge_from_the_top_of_boolean8_rejected(below):
    covers = list(catalogue("boolean(8)").covers) + [(255, below)]
    with pytest.raises(CyclicCovers, match="cover relation contains a cycle"):
        build_from_covers(256, covers)


class MasksWithout:
    """The ``bits``-bit masks but one, ordered by inclusion and numbered by
    ``relabelling``.  Without the empty or the full mask the order has no
    bottom or top; without a mask of one bit or of all bits but one it is
    a lattice; without any other mask it is bounded and not a lattice, as
    the missing mask was the meet or join of some pairs of the others."""

    def __init__(self, missing, seed, bits=9):
        kept = [m for m in range(1 << bits) if m != missing]
        perm = relabelling(len(kept), seed) if seed != "plain" else range(len(kept))
        self.size = len(kept)
        self.mask = [0] * self.size
        for m, p in zip(kept, perm):
            self.mask[p] = m
        index = dict(zip(kept, perm))
        self.covers = [(index[m], index[m | 1 << b]) for m in kept for b in range(bits)
                       if not m >> b & 1 and m | 1 << b != missing]

    def leq(self, a, b):
        return not self.mask[a] & ~self.mask[b]


@pytest.mark.parametrize("seed", ["plain", 7])
@pytest.mark.parametrize("missing", [0b11, 0b111111100])
def test_large_non_lattice_error_names_a_pair_without_bound(missing, seed):
    order = MasksWithout(missing, seed)
    assert order.size >= 256
    with pytest.raises(NotALattice) as err:
        build_from_covers(order.size, order.covers)
    m = re.fullmatch(r"elements (\d+) and (\d+) have no unique (meet|join)",
                     str(err.value))
    assert m
    a, b = int(m[1]), int(m[2])
    bound = oracles.greatest_lower_bound if m[3] == "meet" else oracles.least_upper_bound
    assert bound(order, a, b) is None


@pytest.mark.parametrize("seed", ["plain", 7])
@pytest.mark.parametrize("missing", range(32))
def test_boolean5_without_one_mask_names_the_first_pair_without_meet(missing, seed):
    """The error names exactly the first pair in row-major order that the
    bound scan finds without a greatest lower bound; with no such pair the
    order is a lattice and its tables are the bound scans'."""
    order = MasksWithout(missing, seed, bits=5)
    if missing in (0, 31):
        with pytest.raises(NotBounded):
            build_from_covers(order.size, order.covers)
        return
    pairs = itertools.product(range(order.size), repeat=2)
    first = next(((a, b) for a, b in pairs
                  if oracles.greatest_lower_bound(order, a, b) is None), None)
    if first is None:
        L = build_from_covers(order.size, order.covers)
        meets = oracle_table(order, oracles.greatest_lower_bound)
        assert np.array_equal(L.meet_table, meets)
        assert np.array_equal(L.join_table, oracle_table(order, oracles.least_upper_bound))
        return
    with pytest.raises(NotALattice) as err:
        build_from_covers(order.size, order.covers)
    assert str(err.value) == "elements %d and %d have no unique meet" % first


def oracle_table(order, bound):
    return np.array([[bound(order, a, b) for b in range(order.size)]
                     for a in range(order.size)])


@pytest.mark.parametrize("seed", ["plain", None, 3])
@pytest.mark.parametrize("idx", range(len(RANDOM_LATTICES)))
def test_tables_are_the_bound_scans_on_the_random_population(idx, seed):
    """Whole tables, read-only in the row dtype, plain and renumbered."""
    L = RANDOM_LATTICES[idx]
    if seed != "plain":
        L = relabelled(L, seed)
    for table, bound in ((L.meet_table, oracles.greatest_lower_bound),
                         (L.join_table, oracles.least_upper_bound)):
        assert table.dtype == row_dtype(L.size) and not table.flags.writeable
        assert np.array_equal(table, oracle_table(L, bound))



# In N5*chain(2) and boolean(3)+chain(4), the elements of some height
# differ in their number of lower covers, and of some in their number of
# upper covers; in the others, the elements of one height do not.
CHUNKED = {L.name: L for L in [
    catalogue("N5"), catalogue("M3"), catalogue("boolean(3)"), catalogue("chain(5)"),
    direct_product([catalogue("N5"), catalogue("chain(2)")]),
    horizontal_sum([catalogue("M3"), catalogue("chain(3)"), catalogue("boolean(2)")]),
    horizontal_sum([catalogue("boolean(3)"), catalogue("chain(4)")])]}


@pytest.mark.parametrize("rows", [1, 2, 3, 5])
@pytest.mark.parametrize("name", CHUNKED)
def test_tables_do_not_depend_on_the_rows_per_gather(monkeypatch, name, rows):
    """With 1 to 3 rows a gather takes one element at a time; with 5, two
    at a time where no element of the level has more than one cover."""
    L = CHUNKED[name]
    monkeypatch.setattr(lattice, "ROWS", rows)
    again = Lattice(L.size, L.covers)
    assert np.array_equal(again.meet_table, L.meet_table)
    assert np.array_equal(again.join_table, L.join_table)
    assert np.array_equal(again.meet_table, oracle_table(L, oracles.greatest_lower_bound))
    assert np.array_equal(again.join_table, oracle_table(L, oracles.least_upper_bound))


@pytest.mark.parametrize("name, meet, join", [
    ("boolean(9)", "8dad109994d28f56e126dc9db7cd7267ba190e9190831d2d900fcc1fb6f621ca",
     "fd8401015b430dbeccb2375f8fbe426101054bb0a7fb3b137b0933b0456f9367"),
    ("chain(512)", "fb943b825947600ef63a1f07203bb69086bb2ac5746a3fe9851ae29eb75d061c",
     "46a702c5d0f37f17d72e63357d12b4eefa7dfec50192806c046e41785a8ae72a")])
def test_largest_tables_are_pinned(name, meet, join):
    """The sha256 of the table bytes widened to int64, at sizes the bound
    scans are too slow for."""
    L = catalogue(name)
    assert hashlib.sha256(L.meet_table.astype(np.int64).tobytes()).hexdigest() == meet
    assert hashlib.sha256(L.join_table.astype(np.int64).tobytes()).hexdigest() == join


@pytest.mark.parametrize("name", ["chain(7)", "N5", "boolean(9)"])
def test_one_read_only_table_stack_per_lattice(name):
    """The meet and join tables are the halves of one read-only stack, and
    every plan reads that stack rather than a copy of it.  ``_plan`` caches
    by equality, so its plan may belong to an equal lattice built earlier;
    a plan built here reads L's own stack."""
    L = catalogue(name)
    cached, fresh = _plan(L, 1), _Plan(L, input_grid(L.size, 1))
    for table in (L.tables, L.meet_table, L.join_table, cached.tables, fresh.tables):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0
    for plan in (cached, fresh):
        assert np.shares_memory(plan.tables, plan.lattice.meet_table)
        assert np.shares_memory(plan.tables, plan.lattice.join_table)
    assert fresh.lattice is L


@pytest.mark.parametrize("name", ["boolean(9)", "chain(512)"])
def test_largest_lattices_build_in_three_megabytes(name):
    """The traced allocation peak of a build at MAX_SIZE: the tables are one
    uint16 stack, 1 MB in all, the meets are checked before it is
    allocated, and ranks become elements ``ROWS`` rows at a time.  With
    int64 tables the peak is about 7 MB, with a whole-table gather about
    4.7 MB."""
    tracemalloc.start()
    try:
        L = catalogue(name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert L.meet_table.nbytes == 512 * 512 * 2
    assert peak <= 3_000_000


def test_max_size_fits_the_induction_entries():
    """The meet and join induction runs in rank space in the row dtype of
    the carrier, and the tables keep that dtype: a rank and an element are
    both below the size, so both fit.  At MAX_SIZE the dtype is uint16, the
    two bytes per entry that MAX_SIZE's memory note counts: raising MAX_SIZE
    past 2**16 fails here."""
    assert row_dtype(MAX_SIZE) == np.uint16


def test_catalogue_size_guard():
    assert MAX_SIZE == 512
    assert catalogue("boolean(9)").size == 512
    for name in ("boolean(10)", "boolean(12)", "boolean(99999)", "chain(513)"):
        with pytest.raises(UnknownName):
            catalogue(name)


def test_constructor_size_guard():
    """Every construction goes through Lattice, which rejects carriers above
    MAX_SIZE before building any table."""
    with pytest.raises(TooLarge, match="600 elements exceed the limit of 512"):
        build_from_covers(600, [(i, i + 1) for i in range(599)])
    with pytest.raises(TooLarge, match="600 elements"):
        ProductLattice([catalogue("chain(300)"), catalogue("chain(2)")])


def test_out_of_range_cover_rejected():
    with pytest.raises(NotALattice):
        build_from_covers(2, [(0, 5)])


@pytest.mark.parametrize("element", [2, 7, -1])
def test_label_outside_carrier_rejected(element):
    """A label names an element; one outside 0..size-1 used to be kept and
    serialized back out."""
    with pytest.raises(ForeignElement, match=f"label for {element} outside"):
        build_from_covers(2, [(0, 1)], labels={element: "ghost"})
    L = build_from_covers(2, [(0, 1)], labels={0: "low", 1: "high"})
    assert L.labels == {0: "low", 1: "high"}


# --- malformed constructor input ------------------------------------------


@pytest.mark.parametrize("size", [2.0, "2", None, True])
def test_size_that_is_not_an_int_rejected(size):
    with pytest.raises(InvalidArgument, match="size must be an int"):
        build_from_covers(size, [(0, 1)])


def test_covers_none_rejected():
    with pytest.raises(InvalidArgument, match="covers must be an iterable"):
        build_from_covers(2, None)


@pytest.mark.parametrize("pair", [(0, 1, 2), (0,), 1])
def test_cover_that_is_not_a_pair_rejected(pair):
    with pytest.raises(InvalidArgument, match="is not a pair of elements"):
        build_from_covers(3, [(0, 1), pair])


@pytest.mark.parametrize("pair", [(0, 1.0), ("0", 1), (False, True), (0, np.True_)])
def test_cover_entry_that_is_not_an_int_rejected(pair):
    """Bools are not elements: as an index, numpy reads (False, True) as a
    mask that selects nothing."""
    with pytest.raises(InvalidArgument, match="cover entry must be an int"):
        build_from_covers(2, [pair])


@pytest.mark.parametrize("key", ["0", 1.0, False])
def test_label_key_that_is_not_an_int_rejected(key):
    with pytest.raises(InvalidArgument, match="label key must be an int"):
        build_from_covers(2, [(0, 1)], labels={key: "x"})


@pytest.mark.parametrize("labels", [[1, 2], "ab", 5])
def test_labels_that_are_not_a_mapping_rejected(labels):
    with pytest.raises(InvalidArgument, match="labels must map elements to text"):
        build_from_covers(2, [(0, 1)], labels=labels)


def test_numpy_integers_are_elements():
    L = build_from_covers(np.int64(3), np.array([[0, 1], [1, 2]], dtype=np.int32),
                          labels={np.int64(2): "top"})
    assert type(L.size) is int and L.size == 3
    assert L.covers == ((0, 1), (1, 2))
    assert L.label_of(2) == "top"


@pytest.mark.parametrize("name", [3, None, b"M3"])
def test_catalogue_name_that_is_not_a_str_rejected(name):
    with pytest.raises(InvalidArgument, match="catalogue name"):
        catalogue(name)


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


def test_distributivity_at_full_size():
    """A product is distributive iff every factor is."""
    assert catalogue("boolean(9)").is_distributive
    assert ProductLattice([catalogue("chain(8)")] * 3).is_distributive
    assert not ProductLattice([catalogue("chain(100)"), catalogue("M3")]).is_distributive
    assert not ProductLattice([catalogue("N5"), catalogue("chain(102)")]).is_distributive


@pytest.mark.parametrize("seed", ["plain", None, 5])
@pytest.mark.parametrize("name", sorted({"chain(1)", *CATALOGUE_NAMES,
                                         *DISTRIBUTIVE_NAMES}))
def test_distributivity_matches_triple_law(name, seed):
    L = catalogue(name)
    if seed != "plain":
        L = relabelled(L, seed)
    assert L.is_distributive == oracles.is_distributive_triples(L)


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


@pytest.mark.parametrize("name", CATALOGUE_NAMES)
def test_hash_is_the_order_hash_kept_from_construction(name):
    """The hash is computed once, and it is still the hash of the size and
    the order bytes, so equal lattices hash alike under any name."""
    L = catalogue(name)
    for M in (L, relabelled(L, 5), build_from_covers(L.size, L.covers, name="x")):
        assert hash(M) == hash(M) == hash((M.size, M.leq_table.tobytes()))
    assert hash(build_from_covers(L.size, L.covers)) == hash(L)


def test_tables_are_read_only(c3):
    with pytest.raises(ValueError):
        c3.leq_table[0, 0] = False


@st.composite
def cover_lists(draw):
    """Cover lists of up to 7 elements, most of them close to a lattice.

    Edges run up a hidden ranking that a random numbering disguises; a
    bounded draw adds every edge from the lowest and to the highest rank,
    which makes many redundant.  Some edges are then reversed (cycles) and
    stray pairs added (self-covers and pairs out of range).
    """
    size = draw(st.integers(0, 7))
    ranks = [(r, s) for r in range(size) for s in range(r + 1, size)]
    edges = draw(st.lists(st.sampled_from(ranks), max_size=12)) if ranks else []
    if size and draw(st.booleans()):
        edges += [(0, r) for r in range(1, size)]
        edges += [(r, size - 1) for r in range(size - 1)]
    edges = [(s, r) if draw(st.integers(0, 19)) == 0 else (r, s) for r, s in edges]
    number = draw(st.permutations(range(size)))
    covers = [(number[r], number[s]) for r, s in edges]
    covers += draw(st.lists(st.tuples(st.integers(-1, size), st.integers(-1, size)),
                            max_size=1 if draw(st.integers(0, 9)) == 0 else 0))
    return size, draw(st.permutations(covers))


def expected_error(size, covers):
    """The error a cover list must raise, found without the library."""
    if size <= 0:
        return NotBounded
    for i, j in covers:
        if not (0 <= i < size and 0 <= j < size):
            return NotALattice
        if i == j:
            return CyclicCovers
    order = oracles.Order(size, covers)
    rng = range(size)
    if any(a != b and order.leq(a, b) and order.leq(b, a) for a in rng for b in rng):
        return CyclicCovers
    if not any(all(order.leq(a, x) for x in rng) for a in rng) \
            or not any(all(order.leq(x, a) for x in rng) for a in rng):
        return NotBounded
    for a, b in itertools.product(rng, repeat=2):
        if oracles.greatest_lower_bound(order, a, b) is None \
                or oracles.least_upper_bound(order, a, b) is None:
            return NotALattice
    return None


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(cover_lists())
@example((0, []))
@example((1, [(0, 0)]))
@example((3, [(0, 1), (1, 2), (2, 0)]))
@example((2, [(0, 2)]))
@example((3, [(0, 1), (0, 2)]))
@example((6, HEXAGON))
@example((4, [(3, 0), (3, 1), (1, 2), (0, 2), (3, 2), (3, 2)]))
def test_build_agrees_with_oracles(case):
    """A build succeeds exactly on lattices and then matches the brute-force
    order, bounds and covers; otherwise it raises the expected error."""
    size, covers = case
    want = expected_error(size, covers)
    if want is not None:
        with pytest.raises((CyclicCovers, NotBounded, NotALattice)) as err:
            build_from_covers(size, covers)
        assert type(err.value) is want
        return
    L = build_from_covers(size, covers)
    order = oracles.Order(size, covers)
    rng = range(size)
    for a, b in itertools.product(rng, repeat=2):
        assert L.leq(a, b) == order.leq(a, b)
        assert L.meet(a, b) == oracles.greatest_lower_bound(order, a, b)
        assert L.join(a, b) == oracles.least_upper_bound(order, a, b)
    strict = {(a, b) for a, b in order.pairs if a != b}
    assert L.covers == tuple(sorted(
        (a, b) for a, b in strict
        if not any((a, c) in strict and (c, b) in strict for c in rng)))
    assert all(order.leq(L.bottom, x) and order.leq(x, L.top) for x in rng)
