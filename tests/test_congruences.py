import itertools
import re

import pytest

import latcong
import oracles
from conftest import assert_joins_are_members, relabelled
from latcong.congruences import (
    Congruence,
    all_congruences,
    all_congruences_bruteforce,
    congruence_join,
    formula_relation,
    formula_relation_is_congruence,
    is_congruence,
    principal_congruence,
    principal_congruence_fixpoint,
    principal_congruences,
)
from latcong.constructions import direct_product, horizontal_sum
from latcong.errors import BudgetExceeded, ForeignElement, InvalidArgument, \
    LatcongError, NotDistributive, SizeMismatch
from latcong.lattice import catalogue


def test_partition_normalization():
    c = Congruence.from_class_of([5, 5, 9, 5])
    assert c.class_of == (0, 0, 1, 0)
    assert c.blocks() == ((0, 1, 3), (2,))
    assert str(c) == "{0,1,3}{2}"


def test_from_blocks_validates():
    with pytest.raises(SizeMismatch):
        Congruence.from_blocks([(0, 1)], 3)  # element 2 missing
    with pytest.raises(SizeMismatch):
        Congruence.from_blocks([(0, 1), (1, 2)], 3)  # overlap
    with pytest.raises(SizeMismatch):
        Congruence.from_blocks([(0, 3)], 3)  # out of range


@pytest.mark.parametrize("blocks", [[0, 1, 2], [(0, 1), 2], [(0, 1), (2.0,)],
                                    [(0, 1), "2"], [[0, True], [2]],
                                    [[False, 1], [2]]])
def test_from_blocks_rejects_a_block_that_is_not_ints(blocks):
    with pytest.raises(InvalidArgument, match="is not an iterable of ints"):
        Congruence.from_blocks(blocks, 3)


def test_is_congruence_rejects_class_ids_as_blocks(c3):
    """A class-id list is not a list of blocks."""
    with pytest.raises(InvalidArgument):
        is_congruence(c3, [0, 0, 1])


def test_is_congruence_examples(c3):
    assert is_congruence(c3, Congruence.identity(3))
    assert is_congruence(c3, Congruence.total(3))
    assert not is_congruence(c3, [(0, 2), (1,)])


@pytest.mark.parametrize("name", ["chain(3)", "chain(4)", "boolean(2)", "M3", "N5"])
def test_is_congruence_matches_two_pair_definition(name):
    """Single-variable substitution must match the literal definition."""
    L = catalogue(name)
    for blocks in oracles.partitions(L.size):
        mine = is_congruence(L, Congruence.from_blocks(blocks, L.size))
        assert mine == oracles.is_congruence_two_pair(L, blocks)


def test_principal_congruence_examples(c3, b2):
    assert str(principal_congruence(c3, 0, 1)) == "{0,1}{2}"
    assert str(principal_congruence(b2, 0, 1)) == "{0,1}{2,3}"
    for x in range(c3.size):
        assert principal_congruence(c3, x, x) == Congruence.identity(3)


def test_principal_congruence_arbitrary_pair_reduction(b2):
    # the two incomparable atoms reduce through (meet, join) = (bottom, top)
    assert principal_congruence(b2, 1, 2) == principal_congruence(b2, 0, 3)
    assert principal_congruence_fixpoint(b2, 1, 2) == \
        principal_congruence_fixpoint(b2, 0, 3) == oracles.union_find_closure(b2, 0, 3)


def test_principal_congruence_requires_distributivity(n5):
    with pytest.raises(NotDistributive):
        principal_congruence(n5, 0, 1)


def test_the_closure_named_off_distributive_lattices_is_public(n5):
    """The NotDistributive message names a closure that ``latcong`` exports
    and that works on N5."""
    with pytest.raises(NotDistributive) as info:
        principal_congruence(n5, 0, 1)
    closure = getattr(latcong, re.search(r"use (\w+)", str(info.value)).group(1))
    assert closure(n5, 0, 1) == oracles.union_find_closure(n5, 0, 1)


@pytest.mark.parametrize("name", ["chain(2)", "chain(3)", "chain(4)",
                                  "boolean(2)", "M3", "N5"])
def test_oracle_is_least_congruence(name):
    """Closure result equals the intersection of all qualifying congruences."""
    L = catalogue(name)
    for a, b in itertools.combinations(range(L.size), 2):
        assert oracles.union_find_closure(L, a, b) == \
            oracles.least_congruence_containing(L, a, b)


def test_oracle_is_least_congruence_on_product():
    P = direct_product([catalogue("chain(2)"), catalogue("chain(3)")])
    for a, b in itertools.combinations(range(P.size), 2):
        assert oracles.union_find_closure(P, a, b) == \
            oracles.least_congruence_containing(P, a, b)


def test_oracle_on_reflexive_pair(m3):
    for x in range(m3.size):
        assert oracles.union_find_closure(m3, x, x) == Congruence.identity(5)
        assert principal_congruence_fixpoint(m3, x, x) == Congruence.identity(5)


def test_diamond_is_simple(m3):
    for a, b in itertools.combinations(range(m3.size), 2):
        assert principal_congruence_fixpoint(m3, a, b) == Congruence.total(5)
        assert oracles.union_find_closure(m3, a, b) == Congruence.total(5)


@pytest.mark.parametrize("name", ["chain(2)", "chain(3)", "chain(4)",
                                  "chain(5)", "boolean(2)", "boolean(3)"])
def test_formula_matches_oracle_on_distributive(name):
    L = catalogue(name)
    for a in range(L.size):
        for b in range(L.size):
            if L.leq(a, b):
                assert formula_relation(L, a, b) == \
                    oracles.union_find_closure(L, a, b)


@pytest.mark.parametrize("name", ["chain(17)", "boolean(5)", "chain(100)",
                                  "boolean(8)", "boolean(9)"])
def test_formula_matches_oracle_on_narrow_tables(name):
    """The tables are uint8 up to 256 elements and uint16 up to 512, so the
    class code join[b] * size + meet[a] would wrap, or overflow on
    boolean(8), unless it is widened.  About a dozen covers spread over the
    lattice, and the bottom with the top."""
    L = catalogue(name)
    pairs = [*L.covers[::-(-len(L.covers) // 12)], (L.bottom, L.top)]
    for a, b in pairs:
        want = oracles.union_find_closure(L, a, b)
        assert formula_relation(L, a, b) == want
        assert principal_congruence(L, b, a) == want


@pytest.mark.parametrize("a,b", [(-1, 0), (0, -1), (3, 0), (0, 3), (-1, 3)])
@pytest.mark.parametrize("closure", [principal_congruence_fixpoint,
                                     principal_congruence, formula_relation])
def test_pair_outside_carrier_rejected(c3, closure, a, b):
    """A negative element must not wrap around; a large one must not reach
    the tables."""
    with pytest.raises(ForeignElement, match="outside carrier of size 3"):
        closure(c3, a, b)


def test_formula_relation_needs_comparable_pair(b2):
    with pytest.raises(ValueError):
        formula_relation(b2, 1, 2)


def test_formula_relation_order_error_is_a_latcong_error(b2):
    with pytest.raises(LatcongError, match=r"expected a <= b, got \(1, 2\)"):
        formula_relation(b2, 1, 2)


def test_formula_relation_on_chain_is_congruence(c4):
    for a in range(4):
        for b in range(a, 4):
            assert formula_relation_is_congruence(c4, a, b)


def test_formula_relation_breaks_on_pentagon(n5):
    # bottom and the lower interior element: the relation glues the other
    # coatom to top but separates elements their meets reach
    rel = formula_relation(n5, 0, 1)
    assert not is_congruence(n5, rel)
    assert not formula_relation_is_congruence(n5, 0, 1)


def test_formula_relation_breaks_on_diamond(m3):
    rel = formula_relation(m3, 0, 1)
    assert str(rel) == "{0,1}{2,3,4}"
    assert not is_congruence(m3, rel)


def test_formula_failure_modes_recorded(n5, m3):
    """Each non-distributive witness fails or lands strictly above the least."""
    for L in (n5, m3):
        failures = 0
        for a in range(L.size):
            for b in range(L.size):
                if not L.leq(a, b):
                    continue
                rel = formula_relation(L, a, b)
                if not is_congruence(L, rel):
                    failures += 1
                elif rel != oracles.union_find_closure(L, a, b):
                    failures += 1
        assert failures > 0


@pytest.mark.parametrize("name,count", [
    ("chain(2)", 2), ("chain(3)", 4), ("chain(4)", 8), ("chain(5)", 16),
    ("boolean(2)", 4),
])
def test_congruence_counts(name, count):
    assert len(all_congruences(catalogue(name))) == count


@pytest.mark.parametrize("name", ["chain(2)", "chain(3)", "chain(4)",
                                  "boolean(2)", "M3", "N5"])
def test_join_closure_matches_partition_filtering(name):
    L = catalogue(name)
    assert tuple(all_congruences(L)) == tuple(oracles.all_congruences_two_pair(L))
    assert tuple(all_congruences(L)) == all_congruences_bruteforce(L)


def test_bruteforce_is_gated():
    with pytest.raises(BudgetExceeded):
        all_congruences_bruteforce(catalogue("chain(9)"))


@pytest.mark.parametrize("name", ["chain(4)", "boolean(2)", "N5", "M3"])
def test_identity_and_total_always_present(name):
    L = catalogue(name)
    congs = all_congruences(L)
    assert Congruence.identity(L.size) in congs
    assert Congruence.total(L.size) in congs
    for c in congs:
        assert is_congruence(L, c)


@pytest.mark.parametrize("name", ["chain(4)", "chain(5)", "boolean(2)",
                                  "boolean(3)", "N5"])
def test_congruence_classes_are_convex(name):
    L = catalogue(name)
    for cong in all_congruences(L):
        for x, y in itertools.product(range(L.size), repeat=2):
            if not cong.relates(x, y):
                continue
            for z in range(L.size):
                if L.leq(x, z) and L.leq(z, y):
                    assert cong.relates(x, z)


def test_congruence_join_examples(c4):
    theta = oracles.union_find_closure(c4, 0, 1)
    psi = oracles.union_find_closure(c4, 2, 3)
    assert congruence_join(c4, theta, Congruence.identity(4)) == theta
    assert congruence_join(c4, theta, theta) == theta
    assert str(congruence_join(c4, theta, psi)) == "{0,1}{2,3}"


def test_unnormalized_congruence(c4):
    """A Congruence built directly may use any integers as class ids."""
    theta = Congruence((2, 2, 0, 5))
    assert is_congruence(c4, theta)
    assert not is_congruence(c4, Congruence((7, 3, 7, 9)))
    assert str(congruence_join(c4, theta, Congruence.identity(4))) == "{0,1}{2}{3}"
    assert str(congruence_join(c4, theta, Congruence((0, 1, 1, 2)))) == "{0,1,2}{3}"
    # the class ids are renumbered on construction
    assert str(theta) == "{0,1}{2}{3}"
    assert theta.num_classes == 3
    assert all(theta.blocks())
    assert theta == Congruence.from_class_of((2, 2, 0, 5))
    assert theta in all_congruences(c4)


def test_congruence_of_blocks_is_an_invalid_argument():
    with pytest.raises(InvalidArgument):
        Congruence([[0, 1], [2]])


def test_congruence_join_size_mismatch(c3, c4):
    with pytest.raises(SizeMismatch):
        congruence_join(c3, Congruence.identity(3), Congruence.identity(4))


def test_congruence_join_takes_blocks(c3):
    theta = Congruence.from_blocks([(0,), (1, 2)], 3)
    assert congruence_join(c3, theta, [(0, 1), (2,)]) == Congruence.total(3)
    assert congruence_join(c3, [(0, 1), (2,)], [(0, 1), (2,)]) == \
        Congruence((0, 0, 1))
    with pytest.raises(InvalidArgument):
        congruence_join(c3, theta, [0, 0, 1])
    with pytest.raises(SizeMismatch):
        congruence_join(c3, [(0, 1)], theta)


def test_all_congruences_deterministic(b3):
    assert all_congruences(b3) == all_congruences(b3)
    assert len(all_congruences(b3)) == 2 ** 3


@pytest.mark.parametrize("name", ["M3", "N5", "chain(4)", "boolean(3)"])
def test_joins_of_congruences_are_members(name):
    assert_joins_are_members(catalogue(name))


def _product(names):
    return direct_product([catalogue(n) for n in names])


# Catalogue lattices, relabelled products with a non-distributive factor and
# horizontal sums, one of them over a relabelled summand.
GATE_LATTICES = {
    "chain(1)": lambda: catalogue("chain(1)"),
    "chain(4)": lambda: catalogue("chain(4)"),
    "boolean(3)": lambda: catalogue("boolean(3)"),
    "N5": lambda: catalogue("N5"),
    "M3": lambda: catalogue("M3"),
    "N5*M3 relabelled": lambda: relabelled(_product(["N5", "M3"]), 5),
    "M3*chain(5) relabelled": lambda: relabelled(_product(["M3", "chain(5)"]), None),
    "chain(3)+boolean(2)+chain(2)": lambda: horizontal_sum(
        [catalogue("chain(3)"), catalogue("boolean(2)"), catalogue("chain(2)")]),
    "N5+M3 relabelled": lambda: horizontal_sum([catalogue("N5"),
                                                relabelled(catalogue("M3"), 3)]),
}


@pytest.mark.parametrize("name", sorted(GATE_LATTICES))
def test_fixpoint_matches_oracle_on_every_ordered_pair(name):
    """The numpy fixpoint and the union-find closure of ``oracles`` agree
    on every pair, including a == b and a above b."""
    L = GATE_LATTICES[name]()
    for a, b in itertools.product(range(L.size), repeat=2):
        assert principal_congruence_fixpoint(L, a, b) == \
            oracles.union_find_closure(L, a, b)


@pytest.mark.parametrize("name", ["chain(4)", "boolean(2)", "M3", "N5",
                                  "N5+M3 relabelled"])
def test_pair_closure_oracle_matches_partition_filter(name):
    """The two routes of ``oracles.least_congruence_containing`` agree."""
    L = GATE_LATTICES.get(name, lambda: catalogue(name))()
    for a, b in itertools.product(range(L.size), repeat=2):
        keepers = [c for c in oracles.all_congruences_two_pair(L) if c.relates(a, b)]
        least = oracles.two_pair_closure(L, a, b)
        assert least in keepers
        assert all(least.relates(x, y) <= c.relates(x, y) for c in keepers
                   for x, y in itertools.product(range(L.size), repeat=2))


@pytest.mark.parametrize("name", sorted(GATE_LATTICES))
def test_principal_congruences_are_the_cover_principals(name):
    L = GATE_LATTICES[name]()
    covers = {oracles.least_congruence_containing(L, a, b) for a, b in L.covers}
    assert principal_congruences(L) == tuple(sorted(covers, key=lambda c: c.class_of))
    assert Congruence.identity(L.size) not in principal_congruences(L)


def test_principal_cache_is_bounded():
    maxsize = principal_congruences.cache_parameters()["maxsize"]
    assert maxsize is not None
    for k in range(1, maxsize + 3):
        principal_congruences(catalogue(f"chain({k})"))
    assert principal_congruences.cache_info().currsize <= maxsize


DISTRIBUTIVE_EXTENTS = {
    "boolean(6)": lambda: catalogue("boolean(6)"),
    "chain(3)^3": lambda: _product(["chain(3)"] * 3),
    "chain(4)*boolean(2)": lambda: _product(["chain(4)", "boolean(2)"]),
}


@pytest.mark.parametrize("seed", [None, 5])
@pytest.mark.parametrize("name", sorted(DISTRIBUTIVE_EXTENTS))
def test_distributive_congruence_count(name, seed):
    """|Con L| = 2^|J(L)| on a finite distributive lattice."""
    L = DISTRIBUTIVE_EXTENTS[name]()
    if seed is not None:
        L = relabelled(L, seed)
    assert L.is_distributive
    assert len(all_congruences(L)) == 2 ** oracles.join_irreducible_count(L)


@pytest.mark.parametrize("seed", [None, 5])
def test_boolean8_congruence_count(seed):
    """Con(boolean(8)) has 2^8 members, from 8 generators."""
    L = catalogue("boolean(8)")
    if seed is not None:
        L = relabelled(L, seed)
    assert len(principal_congruences(L)) == 8
    assert len(all_congruences(L)) == 2 ** oracles.join_irreducible_count(L) == 256


@pytest.mark.parametrize("seed", [None, 5])
def test_boolean9_congruence_count(seed):
    L = catalogue("boolean(9)")
    if seed is not None:
        L = relabelled(L, seed)
    assert len(all_congruences(L)) == 2 ** oracles.join_irreducible_count(L) == 512


@pytest.mark.parametrize("seed", [None, 5])
@pytest.mark.parametrize("factors,count", [
    (("M3", "N5"), 10), (("N5", "N5"), 25), (("N5", "chain(4)"), 40)])
def test_product_congruence_count(factors, count, seed):
    """|Con(A x B)| = |Con A| * |Con B|, factor counts by partition filtering."""
    a, b = (len(all_congruences_bruteforce(catalogue(f))) for f in factors)
    assert a * b == count
    L = _product(factors)
    if seed is not None:
        L = relabelled(L, seed)
    assert len(all_congruences(L)) == count


# Lattices on which Con L is compared with the join closure of
# ``oracles.all_congruences_closure``, each plain and relabelled twice.
CLOSURE_GATE = {
    "boolean(3)": lambda: catalogue("boolean(3)"),
    "N5*M3": lambda: _product(["N5", "M3"]),
    "M3*chain(5)": lambda: _product(["M3", "chain(5)"]),
    "N5*chain(4)": lambda: _product(["N5", "chain(4)"]),
    "chain(3)+boolean(2)+chain(2)": lambda: horizontal_sum(
        [catalogue("chain(3)"), catalogue("boolean(2)"), catalogue("chain(2)")]),
    "N5+M3": lambda: horizontal_sum([catalogue("N5"), catalogue("M3")]),
}


@pytest.mark.parametrize("seed", [None, 7, 11])
@pytest.mark.parametrize("name", sorted(CLOSURE_GATE))
def test_all_congruences_match_the_join_closure(name, seed):
    """Every congruence once, with class ids in smallest-member order,
    where the lattice-least member of a class need not be its smallest."""
    L = CLOSURE_GATE[name]()
    if seed is not None:
        L = relabelled(L, seed)
    assert all_congruences(L) == tuple(oracles.all_congruences_closure(L))
