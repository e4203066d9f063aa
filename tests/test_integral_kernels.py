"""The stack kernels behind AC08, AC09 and AC11, against the literal oracles.

The three integral formulations, term lowering, the monotonicity gather and
the four chain laws are each compared with a per-point loop from
``tests/oracles.py``, never with the production code under test.
"""

import itertools
import random
from functools import lru_cache

import numpy as np
import pytest

import oracles
from conftest import relabelled
from latcong import polynomials, sugeno, tables
from latcong.constructions import direct_product
from latcong.errors import ForeignElement, NotAChain
from latcong.lattice import catalogue
from latcong.polynomials import Constant, Join, Meet, NormalForm, Projection, \
    WeightedPolynomial, eval_normal_form, evaluate, is_monotone, \
    random_polynomial, to_table
from latcong.sugeno import Disagreement, FormulationReport, \
    check_comonotone_maxitive, check_horizontally_maxitive, check_idempotent, \
    check_min_homogeneous, compare_formulations, enumerate_capacities, \
    sugeno_eval, sugeno_eval_levels, sugeno_eval_pointwise
from latcong.tables import FunctionTable

BASE = ("chain(3)", "chain(4)", "boolean(2)", "boolean(3)", "N5", "M3")
LATTICES = {name: catalogue(name) for name in BASE}
LATTICES.update({f"{name} relabelled": relabelled(catalogue(name), seed)
                 for seed, name in enumerate(BASE, start=2)})
LATTICES["chain(2)*chain(3)"] = direct_product(
    [catalogue("chain(2)"), catalogue("chain(3)")])
LATTICES["chain(4) reversed"] = relabelled(catalogue("chain(4)"), None)
# (lattice, arity) pairs the oracles finish on in about a second or less.
CASES = [(name, n) for name in LATTICES for n in (0, 1, 2)
         if name != "chain(4) reversed"]
CASES += [(name, 3) for name in ("chain(3)", "chain(4)", "boolean(2)",
                                 "chain(3) relabelled", "chain(4) relabelled")]


def _grid(L, n):
    return list(itertools.product(range(L.size), repeat=n))


@lru_cache(maxsize=None)
def _capacities(name, n):
    """Capacities as monotone maps on the subset masks with pinned ends."""
    L = LATTICES[name]
    full = (1 << n) - 1
    return oracles.monotone_maps(L, list(range(1 << n)), lambda a, b: a & b == a,
                                 ((0, oracles.bottom_of(L)),
                                  (full, oracles.top_of(L))))


@lru_cache(maxsize=None)
def _oracle_forms(name, n, rows):
    """(levels, pointwise, subsets) per coefficient row and input."""
    L = LATTICES[name]
    return [[(oracles.sugeno_by_levels(L, row, x),
              oracles.sugeno_by_pointwise(L, row, x),
              oracles.sugeno_by_subsets(L, row, x)) for x in _grid(L, n)]
            for row in rows]


def _kernel_forms(L, n, rows):
    plan = tables._plan(L, n)
    stack = np.array(rows, dtype=plan.dtype).reshape(len(rows), 1 << n)
    return [kernel(plan, stack).tolist() for kernel in
            (sugeno._level_rows, sugeno._pointwise_rows, polynomials._rebuild_rows)]


def _arbitrary_rows(L, n, count=40):
    """Coefficient rows not monotone in the masks, nor pinned."""
    rng = random.Random(L.size * 10 + n)
    return tuple(tuple(rng.randrange(L.size) for _ in range(1 << n))
                 for _ in range(count))


@pytest.mark.parametrize("name,n", CASES)
def test_formulation_kernels_match_oracles(name, n):
    L = LATTICES[name]
    for rows in (tuple(_capacities(name, n)), _arbitrary_rows(L, n)):
        if not rows:
            continue
        kernels = _kernel_forms(L, n, rows)
        for r, (row, cells) in enumerate(zip(rows, _oracle_forms(name, n, rows))):
            for x, want in enumerate(cells):
                assert tuple(form[r][x] for form in kernels) == want, (row, x)


def test_formulation_oracles_disagree_somewhere():
    """The comparison above is not vacuous: off chains the level and the
    pointwise form part somewhere."""
    cells = _oracle_forms("boolean(3)", 2, tuple(_capacities("boolean(3)", 2)))
    assert any(lv != pw for row in cells for lv, pw, _ in row)


def oracle_formulation_report(L, name, n):
    """The FormulationReport of ``compare_formulations``, from the oracles."""
    rows = _capacities(name, n)
    found = []
    for row, cells in zip(rows, _oracle_forms(name, n, tuple(rows))):
        for x, (lv, pw, sub) in zip(_grid(L, n), cells):
            if not lv == pw == sub:
                found.append(Disagreement(row, x, lv, pw, sub))
    return FormulationReport(L.name or f"size-{L.size}", n, len(rows),
                             L.size ** n, tuple(found))


REPORT_CASES = [("chain(3)", 0), ("chain(3)", 1), ("chain(3)", 2), ("chain(3)", 3),
                ("chain(4)", 2), ("chain(4)", 3), ("boolean(2)", 1),
                ("boolean(2)", 2), ("boolean(3)", 2), ("boolean(3) relabelled", 2),
                ("chain(2)*chain(3)", 2), ("N5", 2), ("M3", 2),
                ("chain(4) relabelled", 2)]


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("name,n", REPORT_CASES)
def test_formulation_report_matches_oracles(monkeypatch, name, n, block):
    """With ``block`` set, the enumerator hands the capacities over in
    blocks of at most 7 rows, and each block is one stack."""
    if block is not None:
        monkeypatch.setattr(tables, "BLOCK", block)
    L = LATTICES[name]
    assert compare_formulations(L, n) == oracle_formulation_report(L, name, n)


@pytest.mark.parametrize("name,n,count", [("boolean(3)", 2, 96),
                                          ("chain(2)*chain(3)", 2, 8)])
def test_known_disagreement_counts(name, n, count):
    L = LATTICES[name]
    assert len(oracle_formulation_report(L, name, n).disagreements) == count
    assert len(compare_formulations(L, n).disagreements) == count


# --- term lowering -------------------------------------------------------------


def _terms(L, seed, count=25):
    rng = random.Random(seed)
    terms = [random_polynomial(rng, rng.randint(1, 3), L.size,
                               max_depth=rng.randint(0, 5)) for _ in range(count)]
    c = rng.randrange(L.size)
    terms += [WeightedPolynomial(0, Meet(Constant(c), Constant(L.size - 1))),
              WeightedPolynomial(2, Join(Meet(Constant(c), Constant(0)),
                                         Projection(1))),
              WeightedPolynomial(3, Constant(c))]
    return terms


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_to_table_matches_recursive_evaluation(name):
    L = LATTICES[name]
    for p in _terms(L, len(name)):
        want = tuple(oracles.evaluate_term(L, p.root, x) for x in _grid(L, p.arity))
        assert to_table(L, p).values == want, p


@pytest.mark.parametrize("term", [Constant(9), Meet(Projection(0), Constant(-1)),
                                  Join(Constant(3), Projection(0))])
def test_to_table_rejects_foreign_constants(term):
    with pytest.raises(ForeignElement):
        to_table(catalogue("chain(3)"), WeightedPolynomial(1, term))


# --- single points ----------------------------------------------------------------

POINT_LATTICES = {name: catalogue(name)
                  for name in ("chain(1)", "chain(3)", "boolean(2)", "N5", "M3")}
POINT_LATTICES["boolean(2) relabelled"] = relabelled(catalogue("boolean(2)"), 3)


def _point_terms(L, n, rng, count=6):
    """Random terms of arity n; at n = 0, terms of constants only."""
    if n == 0:
        def c():
            return Constant(rng.randrange(L.size))
        return [WeightedPolynomial(0, Meet(Join(c(), c()), c())) for _ in range(count)]
    return [random_polynomial(rng, n, L.size, max_depth=rng.randint(0, 4))
            for _ in range(count)]


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("name", sorted(POINT_LATTICES))
def test_point_evaluators_match_oracles(name, n):
    """The point evaluators run the stack kernels on a stack of one input,
    so the literal formulas of the oracles are their only independent check."""
    L = POINT_LATTICES[name]
    rng = random.Random(f"{name} {n}")
    points = _grid(L, n)
    for p in _point_terms(L, n, rng):
        for x in points:
            assert evaluate(L, p, x) == oracles.evaluate_term(L, p.root, x), (p, x)
    for row in _arbitrary_rows(L, n, count=6):
        for x in points:
            assert eval_normal_form(L, NormalForm(n, row), x) \
                == oracles.sugeno_by_subsets(L, row, x), (row, x)
    capacities = list(enumerate_capacities(L, n))
    for m in rng.sample(capacities, min(6, len(capacities))):
        for x in points:
            assert (sugeno_eval(L, m, x), sugeno_eval_levels(L, m, x),
                    sugeno_eval_pointwise(L, m, x)) == (
                oracles.sugeno_by_subsets(L, m.coefficients, x),
                oracles.sugeno_by_levels(L, m.coefficients, x),
                oracles.sugeno_by_pointwise(L, m.coefficients, x)), (m, x)


# --- monotonicity ----------------------------------------------------------------


def _perturbed_tables(L, n, seed, count=60):
    """Monotone tables with one value changed, and tables drawn at random:
    mostly not monotone, some still monotone."""
    rng = random.Random(seed)
    tables = []
    points = _grid(L, n)
    for _ in range(count):
        c, d = rng.randrange(L.size), rng.randrange(L.size)
        values = [L.join(L.meet(x[0] if n else c, c), d) for x in points]
        values[rng.randrange(len(values))] = rng.randrange(L.size)
        tables.append(FunctionTable(n, L.size, values))
        tables.append(FunctionTable(n, L.size,
                                    [rng.randrange(L.size) for _ in points]))
    return tables


@pytest.mark.parametrize("name", sorted(LATTICES))
@pytest.mark.parametrize("n", [0, 1, 2])
def test_is_monotone_matches_all_pairs_oracle(name, n):
    L = LATTICES[name]
    verdicts = set()
    for f in _perturbed_tables(L, n, seed=n):
        want = oracles.is_monotone_all_pairs(L, f)
        assert is_monotone(L, f) == want, f.values
        verdicts.add(want)
    assert verdicts == ({True} if n == 0 else {True, False})


# --- the chain laws of AC09 -----------------------------------------------------

CHAINS = {name: L for name, L in LATTICES.items() if L.is_chain}
CHAINS.update({"chain(2)": catalogue("chain(2)"),
               "chain(3) reversed": relabelled(catalogue("chain(3)"), None)})


def _law_tables(L, n, seed, count=50):
    """Tables drawn at random and their closures under joins from below
    (monotone, and almost never an integral), then a few integrals."""
    rng = random.Random(seed)
    points = _grid(L, n)
    tables = []
    for _ in range(count):
        values = [rng.randrange(L.size) for _ in points]
        closed = []
        for x in points:
            acc = oracles.bottom_of(L)
            for y, v in zip(points, values):
                if all(L.leq(a, b) for a, b in zip(y, x)):
                    acc = L.join(acc, v)
            closed.append(acc)
        tables += [FunctionTable(n, L.size, values), FunctionTable(n, L.size, closed)]
    capacities = oracles.monotone_maps(
        L, list(range(1 << n)), lambda a, b: a & b == a,
        ((0, oracles.bottom_of(L)), ((1 << n) - 1, oracles.top_of(L))))
    return tables + [FunctionTable(n, L.size, oracles.subset_expansion_table(L, m, n))
                     for m in capacities[:5]]


CHECKS = (check_idempotent, check_min_homogeneous, check_comonotone_maxitive,
          check_horizontally_maxitive)


@pytest.mark.parametrize("name", sorted(CHAINS))
@pytest.mark.parametrize("n", [1, 2])
def test_chain_laws_on_tables_that_are_not_integrals(name, n):
    L = CHAINS[name]
    seen = [set() for _ in CHECKS]
    for f in _law_tables(L, n, seed=n):
        want = oracles.chain_laws(L, f)
        assert tuple(check(L, f) for check in CHECKS) == want, f.values
        for verdicts, verdict in zip(seen, want):
            verdicts.add(verdict)
    # Both branches of every law run, the true one at least on the integrals.
    assert all(verdicts == {True, False} for verdicts in seen)


def test_chain_laws_at_arity_three():
    L = LATTICES["chain(3) relabelled"]
    for f in _law_tables(L, 3, seed=3)[::4]:
        assert tuple(check(L, f) for check in CHECKS) == oracles.chain_laws(L, f)


@pytest.mark.parametrize("name", ["boolean(2)", "N5", "M3", "N5 relabelled"])
def test_lattice_laws_off_chains(name):
    """Idempotency and min-homogeneity apply to any table; the two
    maxitivity laws refuse a lattice that is not a chain."""
    L = LATTICES[name]
    f = _law_tables(L, 1, seed=1)
    for table in f:
        want = oracles.chain_laws(L, table)[:2]
        assert (check_idempotent(L, table), check_min_homogeneous(L, table)) == want
    with pytest.raises(NotAChain):
        check_comonotone_maxitive(L, f[0])
    with pytest.raises(NotAChain):
        check_horizontally_maxitive(L, f[0])


# --- the law kernels, row by row -------------------------------------------------

LAW_KERNELS = (sugeno._idempotent_rows, sugeno._min_homogeneous_rows,
               sugeno._comonotone_maxitive_rows, sugeno._horizontally_maxitive_rows)


def _law_stack(L, n, seed):
    """The integrals of the oracle's capacities, each followed by a copy
    with one entry moved to another element (the last entry in every other
    copy), then the tables of ``_law_tables``."""
    rng = random.Random(seed)
    capacities = oracles.monotone_maps(
        L, list(range(1 << n)), lambda a, b: a & b == a,
        ((0, oracles.bottom_of(L)), ((1 << n) - 1, oracles.top_of(L))))
    rows = []
    for i, m in enumerate(capacities[:30]):
        values = list(oracles.subset_expansion_table(L, m, n))
        changed = list(values)
        x = len(values) - 1 if i % 2 == 0 else rng.randrange(len(values))
        changed[x] = (changed[x] + rng.randrange(1, L.size)) % L.size
        rows += [values, changed]
    return rows + [list(f.values) for f in _law_tables(L, n, seed)]


def _law_verdicts(L, n, rows, kernels):
    plan = tables._plan(L, n)
    stack = np.array(rows, dtype=plan.dtype)
    return np.array([kernel(plan, stack) for kernel in kernels]).T.tolist()


@pytest.mark.parametrize("name", sorted(CHAINS))
@pytest.mark.parametrize("n", [1, 2])
def test_law_kernels_match_oracles_row_by_row(name, n):
    L = CHAINS[name]
    rows = _law_stack(L, n, seed=n)
    want = [list(oracles.chain_laws(L, FunctionTable(n, L.size, row))) for row in rows]
    assert _law_verdicts(L, n, rows, LAW_KERNELS) == want
    # Row 0 is an integral and passes every law; row 1 moves its value at
    # the all-top input, which breaks idempotency; every law fails on some
    # row past row 0.
    assert all(want[0]) and not want[1][0]
    for law in range(len(LAW_KERNELS)):
        assert {w[law] for w in want[1:]} == {True, False}


@pytest.mark.parametrize("name", ["boolean(2)", "boolean(2) relabelled", "N5",
                                  "M3 relabelled"])
def test_lattice_law_kernels_off_chains_row_by_row(name):
    L = LATTICES[name]
    rows = _law_stack(L, 2, seed=5)
    want = [list(oracles.chain_laws(L, FunctionTable(2, L.size, row))[:2])
            for row in rows]
    assert _law_verdicts(L, 2, rows, LAW_KERNELS[:2]) == want
    assert all(want[0]) and {w[0] for w in want} == {w[1] for w in want} == {True, False}
    stack = np.array(rows, dtype=tables._plan(L, 2).dtype)
    for kernel in LAW_KERNELS[2:]:
        with pytest.raises(NotAChain):
            kernel(tables._plan(L, 2), stack)
