"""AC07, AC09 and AC10 check whole blocks of capacities at once; a failing
row must still be reported as one line per capacity, in enumeration order,
with its coefficients as plain ints.

Each test breaks the stacks the check works on (the rebuilt integral
tables, or the factor and summand capacities) in some rows, and compares
the check's detail with the lines the oracles give for the same breakage.
"""

import numpy as np
import pytest

import oracles
from latcong import verify
from latcong.constructions import ProductLattice, direct_product, horizontal_sum
from latcong.lattice import catalogue
from latcong.polynomials import _rebuild_rows
from latcong.tables import FunctionTable


def _capacities(L, n):
    """The oracle's capacities on n criteria over L, in value-tuple order."""
    full = (1 << n) - 1
    return oracles.monotone_maps(L, list(range(1 << n)), lambda a, b: a & b == a,
                                 ((0, oracles.bottom_of(L)), (full, oracles.top_of(L))))


def _moved(L, r, values):
    """Row r of a stack of tables with one value moved: rows 1, 4, 7, ...
    take bottom at the last input, rows 2, 5, 8, ... take top at input 1."""
    values = list(values)
    if r % 3 == 1:
        values[-1] = oracles.bottom_of(L)
    elif r % 3 == 2:
        values[1] = oracles.top_of(L)
    return values


def _broken_rebuild(plan, block):
    table = _rebuild_rows(plan, block)
    return np.array([_moved(plan.lattice, r, row) for r, row in enumerate(table.tolist())],
                    dtype=table.dtype)


@pytest.fixture
def broken_tables(monkeypatch):
    """The checks' integral tables, moved as ``_moved`` says."""
    monkeypatch.setattr(verify, "_rebuild_rows", _broken_rebuild)


def _assert_reported(result, lines):
    assert lines and not result.passed
    assert result.detail == "; ".join(lines)
    assert "np." not in result.detail


def test_ac07_reports_each_capacity_that_fails_the_round_trip(broken_tables):
    L = catalogue("chain(3)")
    lines = []
    for n in (1, 2, 3):
        for r, m in enumerate(_capacities(L, n)):
            table = _moved(L, r, oracles.subset_expansion_table(L, m, n))
            if not oracles.round_trip_holds(L, FunctionTable(n, L.size, table), m):
                lines.append(f"capacity {m} (n={n}) fails round-trip")
    _assert_reported(verify.check_capacity_bijection(), lines)
    assert lines[0] == "capacity (0, 0, 1, 2) (n=2) fails round-trip"


LAW_LABELS = ("idempotent", "min-homogeneous", "comonotone-maxitive",
              "horizontally-maxitive")


def test_ac09_reports_each_law_each_capacity_fails(broken_tables):
    lines = []
    for name in ("chain(3)", "chain(4)"):
        L = catalogue(name)
        for r, m in enumerate(_capacities(L, 2)):
            table = _moved(L, r, oracles.subset_expansion_table(L, m, 2))
            laws = oracles.chain_laws(L, FunctionTable(2, L.size, table))
            lines += [f"{name} capacity {m} fails {label}"
                      for label, holds in zip(LAW_LABELS, laws) if not holds]
    _assert_reported(verify.check_chain_properties(), lines)
    assert lines[0] == "chain(3) capacity (0, 0, 1, 2) fails idempotent"


def _shift_last_part(parts_of):
    """``parts_of`` with the coefficient of mask 1 moved up one index, in
    the last factor or summand of every odd row."""
    def broken(L, rows):
        parts = [part.copy() for part in parts_of(L, rows)]
        size = (L.factors if isinstance(L, ProductLattice) else L.summands)[-1].size
        parts[-1][1::2, 1] = (parts[-1][1::2, 1] + 1) % size
        return parts
    return broken


def _shifted(parts):
    """The oracle's side of ``_shift_last_part``, for the part rows of row r."""
    return lambda r, size: [list(p) for p in parts[:-1]] + [
        [(v + 1) % size if r % 2 and i == 1 else v for i, v in enumerate(parts[-1])]]


def test_ac10_reports_each_capacity_that_fails_splitting(monkeypatch):
    monkeypatch.setattr(verify, "_part_rows", _shift_last_part(verify._part_rows))
    lines = []
    for names in (("chain(2)", "chain(2)"), ("chain(2)", "chain(3)")):
        P = direct_product([catalogue(name) for name in names])
        for r, m in enumerate(_capacities(P, 2)):
            parts = _shifted([oracles.projection(P, m, k) for k in range(2)])
            if not oracles.product_splits(P, m, parts(r, P.factors[-1].size)):
                lines.append(f"{P.name} capacity {m} fails splitting")
    H = horizontal_sum([catalogue("chain(3)"), catalogue("chain(3)")])
    for r, m in enumerate(_capacities(H, 2)):
        parts = _shifted([oracles.summand_share(H, m, k) for k in range(2)])
        if not oracles.sum_splits(H, m, parts(r, H.summands[-1].size)):
            lines.append(f"{H.name} capacity {m} fails splitting")
    _assert_reported(verify.check_decompositions(), lines)
    assert {line.split(" capacity")[0] for line in lines} \
        == {"chain(2)*chain(2)", "chain(2)*chain(3)", "chain(3)+chain(3)"}
