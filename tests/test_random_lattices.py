"""Seeded sweep over arbitrary small lattices, not just the catalogue.

Random cover relations mostly fail to be lattices; the survivors give a
varied population on which every core computation is cross-checked against
its literal brute-force counterpart.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import assert_joins_are_members, relabelled
from latcong.compat import enumerate_monotone_tables, is_compatible, \
    median_decomposition_check, synthesize
from latcong.congruences import (
    all_congruences,
    formula_relation,
    is_congruence,
    principal_congruence,
    principal_congruence_fixpoint,
)
from latcong.errors import LatcongError
from latcong.lattice import build_from_covers


def _random_lattices(seed=97, attempts=4000, max_size=7, want=24):
    rng = random.Random(seed)
    found = []
    seen = set()
    for _ in range(attempts):
        n = rng.randint(4, max_size)
        density = rng.uniform(0.2, 0.55)
        # acyclic by construction: edges only go upward in element order
        edges = set()
        for i in range(n - 1):
            for j in range(i + 1, n):
                if rng.random() < density:
                    edges.add((i, j))
        try:
            L = build_from_covers(n, sorted(edges))
        except LatcongError:
            continue
        if L not in seen:
            seen.add(L)
            found.append(L)
            if len(found) >= want:
                break
    return found


LATTICES = _random_lattices()


def test_population_is_interesting():
    assert len(LATTICES) >= 20
    assert any(not L.is_distributive for L in LATTICES)
    assert any(L.is_distributive and not L.is_chain for L in LATTICES)


@pytest.mark.parametrize("idx", range(len(LATTICES)))
def test_tables_match_bound_scans(idx):
    L = LATTICES[idx]
    for a, b in itertools.product(range(L.size), repeat=2):
        assert L.meet(a, b) == oracles.greatest_lower_bound(L, a, b)
        assert L.join(a, b) == oracles.least_upper_bound(L, a, b)


@pytest.mark.parametrize("seed", [None, 3])
@pytest.mark.parametrize("idx", range(len(LATTICES)))
def test_tables_match_bound_scans_relabelled(idx, seed):
    """Covers that run down in element order too, not only up."""
    L = relabelled(LATTICES[idx], seed)
    assert any(a > b for a, b in L.covers)
    for a, b in itertools.product(range(L.size), repeat=2):
        assert L.meet(a, b) == oracles.greatest_lower_bound(L, a, b)
        assert L.join(a, b) == oracles.least_upper_bound(L, a, b)


@pytest.mark.parametrize("seed", ["plain", None, 3])
@pytest.mark.parametrize("idx", range(len(LATTICES)))
def test_distributivity_matches_triple_law(idx, seed):
    """Plain, reversed and shuffled."""
    L = LATTICES[idx] if seed == "plain" else relabelled(LATTICES[idx], seed)
    assert L.is_distributive == oracles.is_distributive_triples(L)


@pytest.mark.parametrize("idx", range(len(LATTICES)))
def test_joins_of_congruences_are_members(idx):
    assert_joins_are_members(LATTICES[idx])


@pytest.mark.parametrize("idx", range(len(LATTICES)))
def test_principal_closure_is_least(idx):
    L = LATTICES[idx]
    for a, b in itertools.combinations(range(L.size), 2):
        assert oracles.union_find_closure(L, a, b) == \
            oracles.least_congruence_containing(L, a, b)


@pytest.mark.parametrize("seed", [None, 3])
@pytest.mark.parametrize("idx", range(len(LATTICES)))
def test_fixpoint_matches_oracle(idx, seed):
    L = relabelled(LATTICES[idx], seed)
    for a, b in itertools.product(range(L.size), repeat=2):
        assert principal_congruence_fixpoint(L, a, b) == \
            oracles.union_find_closure(L, a, b)


@st.composite
def closure_systems(draw):
    """The lattice of an intersection-closed family of subsets of a 4-point
    set, in a random numbering (every finite lattice arises this way on a
    large enough set)."""
    family = {0b1111, *draw(st.lists(st.integers(0, 0b1111), max_size=6))}
    while True:
        grown = family | {s & t for s in family for t in family}
        if grown == family:
            break
        family = grown
    sets = sorted(family)
    number = draw(st.permutations(range(len(sets))))
    covers = [(number[i], number[j])
              for i, s in enumerate(sets) for j, t in enumerate(sets)
              if s != t and s & t == s
              and not any(u not in (s, t) and s & u == s and u & t == u for u in sets)]
    return build_from_covers(len(sets), covers)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(closure_systems())
def test_fixpoint_matches_oracle_on_closure_systems(L):
    for a, b in itertools.product(range(L.size), repeat=2):
        assert principal_congruence_fixpoint(L, a, b) == \
            oracles.union_find_closure(L, a, b)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(closure_systems())
def test_distributivity_matches_triple_law_on_closure_systems(L):
    assert L.is_distributive == oracles.is_distributive_triples(L)


@pytest.mark.parametrize("idx", range(len(LATTICES)))
def test_formula_agrees_exactly_on_distributive(idx):
    """On distributive lattices the closed form must match the closure;
    elsewhere it must never be finer than it."""
    L = LATTICES[idx]
    for a in range(L.size):
        for b in range(L.size):
            if not L.leq(a, b):
                continue
            rel = formula_relation(L, a, b)
            least = oracles.union_find_closure(L, a, b)
            if L.is_distributive:
                assert principal_congruence(L, a, b) == least == rel
            elif is_congruence(L, rel):
                # a congruence that relates (a, b) can only sit above the least
                for x, y in itertools.combinations(range(L.size), 2):
                    if least.relates(x, y):
                        assert rel.relates(x, y)


@pytest.mark.parametrize("idx", range(len(LATTICES)))
def test_congruence_lattice_matches_partition_filter(idx):
    L = LATTICES[idx]
    assert tuple(all_congruences(L)) == \
        tuple(oracles.all_congruences_two_pair(L))
    for cong in all_congruences(L):
        assert is_congruence(L, cong)


@pytest.mark.parametrize("idx", range(len(LATTICES)))
def test_unary_compatibility_matches_oracle(idx):
    """On every lattice, distributive or not, for every monotone unary table."""
    L = LATTICES[idx]
    for f in enumerate_monotone_tables(L, 1):
        assert is_compatible(L, f) == oracles.is_compatible_all_tuples(L, f), f.values


@pytest.mark.parametrize("idx", range(0, len(LATTICES), 3))
def test_unary_equivalence_chain_on_distributive(idx):
    """Compatibility, median decomposition, and reconstruction agree for
    every monotone unary table; reconstruction only needs distributivity."""
    L = LATTICES[idx]
    if not L.is_distributive:
        pytest.skip("equivalence chain is only claimed on distributive lattices")
    for f in enumerate_monotone_tables(L, 1):
        comp = is_compatible(L, f)
        assert comp == oracles.is_compatible_all_tuples(L, f)
        assert comp == median_decomposition_check(L, f)
        _, rebuilt = synthesize(L, f)
        assert comp == rebuilt
