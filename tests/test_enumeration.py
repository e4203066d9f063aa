"""The three monotone enumerators against brute-force filtering."""

import itertools
from fractions import Fraction
from itertools import islice

import pytest

import oracles
from conftest import relabelled
from latcong import tables
from latcong.compat import enumerate_monotone_tables, verify_equivalence_suite
from latcong.errors import ArityMismatch, BudgetExceeded, InvalidArgument, TooLarge
from latcong.lattice import build_from_covers, catalogue
from latcong.polynomials import _CHAIN2, enumerate_monotone_normal_forms
from latcong.sugeno import enumerate_capacities

NAMES = ("chain(1)", "chain(3)", "boolean(2)", "N5", "M3")
LATTICES = {name: catalogue(name) for name in NAMES}
# boolean(2) numbered with bottom 2 and top 1: numeric element order is
# not a linear extension, so later inputs can lie below earlier ones.
LATTICES["boolean(2) renumbered"] = build_from_covers(
    4, [(2, 0), (2, 3), (0, 1), (3, 1)])
LATTICES.update({f"{name} relabelled": relabelled(catalogue(name), 5)
                 for name in NAMES})

# The oracle filters size ** points candidates; keep that below this bound.
# Arities stop at 3 so that chain(1), with a single candidate, ends too.
CANDIDATES = 10 ** 5
KINDS = ("tables", "aggregation tables", "normal forms", "capacities")


def _points(kind, size, n):
    return size ** n if kind.endswith("tables") else 1 << n


def _cases():
    for name, L in LATTICES.items():
        for kind in KINDS:
            n = 0
            while L.size ** _points(kind, L.size, n) <= CANDIDATES and n <= 3:
                yield name, kind, n
                n += 1


def _oracle(L, kind, n):
    if kind.endswith("tables"):
        points = list(itertools.product(range(L.size), repeat=n))
        precedes = lambda x, y: all(L.leq(a, b) for a, b in zip(x, y))
        ends = (points.index((L.bottom,) * n), points.index((L.top,) * n))
    else:
        points = list(range(1 << n))
        precedes = lambda a, b: a & b == a
        ends = (0, (1 << n) - 1)
    pinned = ()
    if kind in ("aggregation tables", "capacities"):
        pinned = ((ends[0], L.bottom), (ends[1], L.top))
    return oracles.monotone_maps(L, points, precedes, pinned)


def _enumerated(L, kind, n):
    if kind == "tables":
        return [f.values for f in enumerate_monotone_tables(L, n)]
    if kind == "aggregation tables":
        return [f.values for f in
                enumerate_monotone_tables(L, n, filter="aggregation")]
    if kind == "normal forms":
        return [nf.coefficients for nf in enumerate_monotone_normal_forms(L, n)]
    return [m.coefficients for m in enumerate_capacities(L, n)]


def _blocks(L, kind, n):
    """The blocks of value rows that the enumerator of ``kind`` consumes."""
    domain = L if kind.endswith("tables") else _CHAIN2
    pinned = kind in ("aggregation tables", "capacities")
    return tables._map_blocks(domain, n, L, pinned)


@pytest.mark.parametrize("name,kind,n", list(_cases()))
def test_enumerator_matches_oracle(name, kind, n):
    L = LATTICES[name]
    assert _enumerated(L, kind, n) == _oracle(L, kind, n)


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_nullary_capacity_only_on_one_element_lattice(name):
    """With no criteria the empty set is the full set: bottom must be top."""
    L = LATTICES[name]
    assert len(list(enumerate_capacities(L, 0))) == (L.size == 1)


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_nullary_tables(name):
    """With no inputs a table is one value; the all-bottom input is also
    the all-top one, so only a one-element lattice has an aggregation table."""
    L = LATTICES[name]
    assert [f.values for f in enumerate_monotone_tables(L, 0)] == \
        [(v,) for v in range(L.size)]
    aggregation = [f.values for f in
                   enumerate_monotone_tables(L, 0, filter="aggregation")]
    assert aggregation == ([(L.bottom,)] if L.size == 1 else [])


# (lattice, relabelling seed, arity, entry limit): under the limit the
# last level built is M_2 for chain(2) at n = 4 and M_0 = L for chain(3)
# at n = 2, so the tables are enumerated as maps from L^2 into M_{n-2}.
FALLBACKS = [("chain(2)", None, 4, 40), ("chain(3)", None, 2, 99),
             ("chain(3)", 5, 2, 99)]


@pytest.mark.parametrize("name,seed,n,limit", FALLBACKS)
@pytest.mark.parametrize("kind", ["tables", "aggregation tables"])
def test_enumerator_without_room_for_every_level(monkeypatch, name, seed, n,
                                                 limit, kind):
    L = catalogue(name) if seed is None else relabelled(catalogue(name), seed)
    monkeypatch.setattr(tables, "MAX_ENTRIES", limit)
    assert _enumerated(L, kind, n) == _oracle(L, kind, n)


# The same for the subset masks, the inputs of the 2-chain's n-th power:
# the last level built is M_1 for chain(3) at n = 3, and M_0 = L for
# chain(3) and boolean(2) at n = 2, where every mask is a position.
MASK_FALLBACKS = [("chain(3)", None, 3, 40), ("chain(3)", 5, 3, 40),
                  ("chain(3)", 5, 2, 30), ("boolean(2)", None, 2, 80)]


@pytest.mark.parametrize("name,seed,n,limit", MASK_FALLBACKS)
@pytest.mark.parametrize("kind", ["normal forms", "capacities"])
def test_mask_enumerator_without_room_for_every_level(monkeypatch, name, seed,
                                                      n, limit, kind):
    L = catalogue(name) if seed is None else relabelled(catalogue(name), seed)
    monkeypatch.setattr(tables, "MAX_ENTRIES", limit)
    assert _enumerated(L, kind, n) == _oracle(L, kind, n)


@pytest.mark.parametrize("kind", KINDS)
def test_small_blocks_keep_the_sequences(monkeypatch, kind):
    """With ``tables.BLOCK`` patched down, every enumerator works in several
    blocks of at most that many rows and still yields the oracle's maps."""
    L, n = catalogue("chain(3)"), 2
    monkeypatch.setattr(tables, "BLOCK", 2)
    blocks = list(_blocks(L, kind, n))
    assert len(blocks) > 1
    assert max(map(len, blocks)) <= 2
    assert _enumerated(L, kind, n) == _oracle(L, kind, n)


def test_enumerator_refuses_positions_over_the_limit(monkeypatch):
    monkeypatch.setattr(tables, "MAX_ENTRIES", 80)  # L^2 has 9 ** 2 pairs
    with pytest.raises(TooLarge):
        next(enumerate_monotone_tables(catalogue("chain(3)"), 2))


def test_enumerator_limit_holds_past_the_neighbour_cache(monkeypatch):
    """The earlier neighbours of the inputs of P^j are a part of P's plan
    of arity j; the entry limit is checked outside that part, so a lower
    limit still refuses after the lists were built under a higher one."""
    L = catalogue("chain(3)")
    everything = [f.values for f in enumerate_monotone_tables(L, 2)]
    monkeypatch.setattr(tables, "MAX_ENTRIES", 99)  # maps from L^2 into L
    assert [f.values for f in enumerate_monotone_tables(L, 2)] == everything
    assert "neighbours" in vars(tables._plan(L, 2))
    monkeypatch.setattr(tables, "MAX_ENTRIES", 80)
    with pytest.raises(TooLarge):
        next(enumerate_monotone_tables(L, 2))


@pytest.mark.parametrize("seed", [None, 3, 5])
@pytest.mark.parametrize("name,n", [("chain(3)", 2), ("boolean(2)", 1), ("N5", 1)])
def test_a_relabelled_lattice_past_the_neighbour_cache(name, n, seed):
    """Once a lattice has filled the cache, its relabelling, another order
    of the same size, still yields the oracle's maps."""
    L = catalogue(name)
    assert _enumerated(L, "tables", n) == _oracle(L, "tables", n)
    M = relabelled(L, seed)
    assert M != L
    for kind in ("tables", "aggregation tables"):
        assert _enumerated(M, kind, n) == _oracle(M, kind, n)


@pytest.mark.parametrize("budget", [0, 1, 1023, 1024, 1500, 24695])
def test_budget_yields_exactly_budget_tables(budget):
    L = catalogue("chain(4)")
    everything = [f.values for f in enumerate_monotone_tables(L, 2)]
    assert len(everything) == 24696
    stream = enumerate_monotone_tables(L, 2, budget=budget)
    assert [f.values for f in islice(stream, budget)] == everything[:budget]
    with pytest.raises(BudgetExceeded):
        next(stream)


def test_a_negative_budget_is_rejected_before_any_table():
    """``budget=-1`` used to yield 9 of the 10 tables, then BudgetExceeded."""
    yielded = []
    with pytest.raises(InvalidArgument, match="budget"):
        yielded.extend(enumerate_monotone_tables(catalogue("chain(3)"), 1, budget=-1))
    assert yielded == []


def test_budget_equal_to_the_count_is_not_exceeded():
    L = catalogue("chain(3)")
    assert sum(1 for _ in enumerate_monotone_tables(L, 2, budget=175)) == 175


def test_chain5_binary_count_is_macmahons_box_formula():
    """Monotone maps chain(5)^2 -> chain(5) are the plane partitions in a
    5 x 5 x 4 box, counted by MacMahon's product."""
    box = Fraction(1)
    for i, j, k in itertools.product(range(1, 6), range(1, 6), range(1, 5)):
        box *= Fraction(i + j + k - 1, i + j + k - 2)
    assert box == 16818516
    blocks = _blocks(catalogue("chain(5)"), "tables", 2)
    assert sum(len(block) for block in blocks) == box


@pytest.mark.parametrize("call", [
    lambda L, n: list(enumerate_monotone_tables(L, n)),
    lambda L, n: list(enumerate_monotone_tables(L, n, filter="aggregation")),
    lambda L, n: verify_equivalence_suite(L, n),
    lambda L, n: list(enumerate_capacities(L, n)),
    lambda L, n: list(enumerate_monotone_normal_forms(L, n)),
], ids=["tables", "aggregation tables", "scan", "capacities", "normal forms"])
def test_negative_arity_is_an_arity_mismatch(call):
    with pytest.raises(ArityMismatch, match="^arity must be non-negative, got -1$"):
        call(catalogue("chain(2)"), -1)
