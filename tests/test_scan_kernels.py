"""The table-stack kernels and the blocked scan, row by row against the oracles.

Every expected verdict, table and report here comes from ``tests/oracles.py``
(bound scans, partition filtering, the literal subset expansion and
brute-force monotone maps), never from the production code under test.
"""

import itertools
import random

import numpy as np
import pytest

import oracles
from conftest import relabelled
from latcong import compat, polynomials, tables
from latcong.compat import EquivalenceReport, median_decomposition_check, \
    verify_equivalence_suite
from latcong.constructions import direct_product, horizontal_sum
from latcong.lattice import catalogue
from latcong.polynomials import random_polynomial
from latcong.tables import FunctionTable

C3, N5 = catalogue("chain(3)"), catalogue("N5")
LATTICES = {name: catalogue(name)
            for name in ("chain(1)", "chain(2)", "chain(3)", "boolean(2)", "N5", "M3")}
LATTICES.update({
    "chain(3) reversed": relabelled(C3, None),
    "chain(3) shuffled": relabelled(C3, 6),
    "N5 reversed": relabelled(N5, None),
    "N5 shuffled": relabelled(N5, 3),
})
# (lattice, arity): every monotone table of each is checked.
CASES = [("chain(1)", 0), ("chain(1)", 1), ("chain(1)", 2),
         ("chain(3)", 0), ("chain(3)", 1), ("chain(3)", 2),
         ("chain(3) reversed", 1), ("chain(3) reversed", 2),
         ("chain(3) shuffled", 1), ("chain(3) shuffled", 2),
         ("boolean(2)", 0), ("boolean(2)", 1),
         ("N5", 0), ("N5", 1), ("M3", 0), ("M3", 1),
         ("N5 reversed", 1), ("N5 shuffled", 1)]


def test_relabellings_move_the_bounds():
    """The renumbered chains and pentagons are not in numeric order."""
    for name in ("chain(3) reversed", "chain(3) shuffled",
                 "N5 reversed", "N5 shuffled"):
        L = LATTICES[name]
        assert (oracles.bottom_of(L), oracles.top_of(L)) != (0, L.size - 1)


def _points(L, n):
    return list(itertools.product(range(L.size), repeat=n))


def _monotone(L, n, pinned=()):
    return oracles.monotone_maps(
        L, _points(L, n), lambda x, y: all(L.leq(a, b) for a, b in zip(x, y)),
        pinned)


def _kernel_verdicts(L, n, rows):
    plan = tables._plan(L, n)
    stack = np.array(rows, dtype=plan.dtype).reshape(len(rows), L.size ** n)
    restrictions = stack[:, plan.vertices]
    return (compat._compatible_rows(plan, stack),
            compat._median_rows(plan, stack),
            restrictions, polynomials._rebuild_rows(plan, restrictions))


@pytest.mark.parametrize("name,n", CASES)
def test_kernels_match_oracles_on_monotone_tables(name, n):
    L = LATTICES[name]
    rows = _monotone(L, n)
    comp, med, restrictions, rebuilt = _kernel_verdicts(L, n, rows)
    for r, values in enumerate(rows):
        f = FunctionTable(n, L.size, values)
        compatible = oracles.is_compatible_all_tuples(L, f)
        assert comp[r] == compatible, values
        assert med[r] == oracles.median_decomposition_holds(L, f), values
        vertices = oracles.vertex_values(L, f)
        assert tuple(restrictions[r].tolist()) == vertices
        assert tuple(rebuilt[r].tolist()) == \
            oracles.subset_expansion_table(L, vertices, n)


@pytest.mark.parametrize("name", ["N5", "N5 shuffled", "M3"])
def test_kernels_on_a_stack_longer_than_a_block(name):
    """Every unary table, monotone or not: 5^5 = 3125 rows in one stack."""
    L = LATTICES[name]
    rows = list(itertools.product(range(L.size), repeat=L.size))
    assert len(rows) > tables.BLOCK
    comp, med, _, _ = _kernel_verdicts(L, 1, rows)
    for r, values in enumerate(rows):
        f = FunctionTable(1, L.size, values)
        assert comp[r] == oracles.is_compatible_all_tuples(L, f), values
        assert med[r] == oracles.median_decomposition_holds(L, f), values


# Non-distributive lattices for the median kernel: a product and a
# horizontal sum with N5 or M3 inside.
MEDIAN_LATTICES = {"N5": N5, "M3": catalogue("M3"),
                   "N5*chain(2)": direct_product([N5, catalogue("chain(2)")]),
                   "M3+N5": horizontal_sum([catalogue("M3"), N5])}


def _median_stack(L, n, seed):
    """Seeded n-ary tables on L: lowered random terms, one output changed in
    every other row, then uniform tables, which are seldom monotone."""
    rng = random.Random(seed)
    plan = tables._plan(L, n)
    terms = [random_polynomial(rng, n, L.size, max_depth=3) for _ in range(16)]
    stack = polynomials._term_rows(plan, terms)
    for row in stack[::2]:
        row[rng.randrange(len(row))] = rng.randrange(L.size)
    uniform = [[rng.randrange(L.size) for _ in range(L.size ** n)] for _ in range(8)]
    return np.concatenate([stack, np.array(uniform, dtype=plan.dtype)])


def _bounds_out_of_order(L, f):
    """Whether some slice has f at x_k = bottom not under f at x_k = top."""
    bottom, top = oracles.bottom_of(L), oracles.top_of(L)
    return any(not L.leq(f.value_at(x[:k] + (bottom,) + x[k + 1:]),
                         f.value_at(x[:k] + (top,) + x[k + 1:]))
               for x in _points(L, f.arity) for k in range(f.arity))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", MEDIAN_LATTICES)
def test_median_kernel_matches_oracle_off_monotone_tables(name, n):
    """The kernel checks f = (f0 v x_k) ^ f1; the oracle checks the median
    med(f0, x_k, f1) itself.  The stack holds both verdicts, and rows whose
    f0 is not under f1 somewhere."""
    L = MEDIAN_LATTICES[name]
    stack = _median_stack(L, n, f"{name} {n}")
    med = compat._median_rows(tables._plan(L, n), stack)
    verdicts, out_of_order = set(), 0
    for r, values in enumerate(stack.tolist()):
        f = FunctionTable(n, L.size, values)
        want = oracles.median_decomposition_holds(L, f)
        assert med[r] == want, values
        assert median_decomposition_check(L, f) == want, values
        verdicts.add(want)
        out_of_order += _bounds_out_of_order(L, f)
    assert verdicts == {True, False}
    assert out_of_order > 0


@pytest.mark.parametrize("name,n", [("chain(3)", 2), ("chain(3) shuffled", 2),
                                    ("N5 reversed", 1), ("boolean(2)", 2)])
def test_rebuild_of_arbitrary_coefficients(name, n):
    """The expansion of any coefficient table, monotone in the masks or not."""
    L = LATTICES[name]
    rows = list(itertools.product(range(L.size), repeat=1 << n))
    plan = tables._plan(L, n)
    rebuilt = polynomials._rebuild_rows(plan, np.array(rows))
    for r, coefficients in enumerate(rows):
        assert tuple(rebuilt[r].tolist()) == \
            oracles.subset_expansion_table(L, coefficients, n)


def oracle_report(L, n, filter="all"):
    """The EquivalenceReport of the scan, assembled from the oracles alone."""
    bottom, top = oracles.bottom_of(L), oracles.top_of(L)
    points = _points(L, n)
    ends = (points.index((bottom,) * n), points.index((top,) * n))
    pinned = ((ends[0], bottom), (ends[1], top)) if filter == "aggregation" else ()
    monotone = _monotone(L, n, pinned)
    violations, collisions, integral = [], [], []
    seen = {}
    compatible = aggregation = 0
    for values in monotone:
        f = FunctionTable(n, L.size, values)
        vertices = oracles.vertex_values(L, f)
        expansion = oracles.subset_expansion_table(L, vertices, n)
        comp = oracles.is_compatible_all_tuples(L, f)
        med = oracles.median_decomposition_holds(L, f)
        rebuilt = expansion == values
        if not comp == med == rebuilt:
            violations.append(f"table {values}: compatible={comp} median={med} "
                              f"reconstructed={rebuilt}")
            continue
        if comp:
            compatible += 1
            if vertices in seen:
                collisions.append(f"tables {seen[vertices]} and {values} share "
                                  f"boolean restriction {vertices}")
            seen[vertices] = values
            if values[ends[0]] == bottom and values[ends[1]] == top:
                aggregation += 1
                if expansion != values:
                    integral.append(f"aggregation table {values} is not the "
                                    f"integral of its own capacity {vertices}")
    full = (1 << n) - 1
    capacities = oracles.monotone_maps(L, list(range(1 << n)),
                                       lambda a, b: a & b == a,
                                       ((0, bottom), (full, top)))
    for capacity in capacities:
        table = FunctionTable(n, L.size,
                              oracles.subset_expansion_table(L, capacity, n))
        if not oracles.is_compatible_all_tuples(L, table):
            integral.append(f"integral of capacity {capacity} is not compatible")
        if oracles.vertex_values(L, table) != capacity:
            integral.append(f"capacity {capacity} does not round-trip "
                            "through its integral")
    return EquivalenceReport(L.name, n, filter, len(monotone), compatible,
                             len(capacities), aggregation, tuple(violations),
                             tuple(collisions), tuple(integral))


REPORT_CASES = [(name, n, "all") for name, n in CASES] + [
    ("chain(2)", 2, "aggregation"), ("chain(3)", 2, "aggregation"),
    ("chain(3) shuffled", 2, "aggregation"), ("N5", 1, "aggregation")]


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("name,n,filter", REPORT_CASES)
def test_scan_report_matches_oracles(monkeypatch, name, n, filter, block):
    """With ``block`` set, the enumerator and the scan work in blocks of 7
    rows, so consecutive tables fall into different blocks."""
    if block is not None:
        monkeypatch.setattr(tables, "BLOCK", block)
        monkeypatch.setattr(compat, "BLOCK", block)
    L = LATTICES[name]
    assert verify_equivalence_suite(L, n, filter=filter) == \
        oracle_report(L, n, filter)


@pytest.mark.parametrize("name", ["N5", "M3", "N5 shuffled"])
def test_reports_off_distributivity_carry_violations(name):
    """The string comparison above is not vacuous: off distributive lattices
    the three verdicts disagree on some tables."""
    report = oracle_report(LATTICES[name], 1)
    assert report.equivalence_violations
    assert not report.ok
