"""The three monotone enumerators against brute-force filtering."""

import itertools

import pytest

import oracles
from latcong.compat import enumerate_monotone_tables
from latcong.lattice import build_from_covers, catalogue
from latcong.polynomials import enumerate_monotone_normal_forms
from latcong.sugeno import enumerate_capacities

LATTICES = {name: catalogue(name)
            for name in ("chain(1)", "chain(3)", "boolean(2)", "N5")}
# boolean(2) numbered with bottom 2 and top 1: numeric element order is
# not a linear extension, so later inputs can lie below earlier ones.
LATTICES["boolean(2) renumbered"] = build_from_covers(
    4, [(2, 0), (2, 3), (0, 1), (3, 1)])

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


@pytest.mark.parametrize("name,kind,n", list(_cases()))
def test_enumerator_matches_oracle(name, kind, n):
    L = LATTICES[name]
    assert _enumerated(L, kind, n) == _oracle(L, kind, n)


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_nullary_capacity_only_on_one_element_lattice(name):
    """With no criteria the empty set is the full set: bottom must be top."""
    L = LATTICES[name]
    assert len(list(enumerate_capacities(L, 0))) == (L.size == 1)
