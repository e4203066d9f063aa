"""The equivalence scan runs its verdict kernels only on candidate rows.

Once the three verdicts agree on every monotone table one arity down, a
table with an incompatible row slice fails all three, so the scan gives it
three False verdicts without the kernels.  These tests compare the pruned
scan with the scan that sends every row through the kernels, and check when
the prune may apply: after a lower pass that agrees, within the budget.
"""

import pytest

from conftest import relabelled
from latcong import compat
from latcong.errors import InvalidArgument
from latcong.lattice import catalogue

# (lattice, arity) extents of the scan, each with both filters.
EXTENTS = [("chain(2)", 2), ("chain(3)", 1), ("chain(3)", 2), ("chain(3)", 3),
           ("chain(4)", 2), ("boolean(2)", 2), ("N5", 1), ("M3", 1)]
FILTERS = ["all", "aggregation"]
# Rows that reach the kernels from arity 2 on, per filter: the monotone maps
# from L into the compatible tables one arity down, pinned or not.  At
# chain(3) n=3, 887 of 211 250.
CANDIDATES = {("chain(2)", 2): (6, 4), ("chain(3)", 2): (50, 31),
              ("chain(3)", 3): (887, 788), ("chain(4)", 2): (490, 295),
              ("boolean(2)", 2): (400, 324)}


def _kernel_rows(monkeypatch):
    """Rows per arity that reach the median kernel, which only the verdicts
    on candidate rows run."""
    seen = {}
    kernel = compat._median_rows
    monkeypatch.setattr(compat, "_median_rows", lambda plan, stack: seen.update(
        {plan.arity: seen.get(plan.arity, 0) + len(stack)}) or kernel(plan, stack))
    return seen


def _lower_passes(monkeypatch):
    """The arity of each lower pass, one entry per call of ``_agrees``; the
    pass calls itself through the module, so the arities below count too."""
    arities = []
    agrees = compat._agrees
    monkeypatch.setattr(compat, "_agrees", lambda L, n: arities.append(n) or agrees(L, n))
    return arities


@pytest.mark.parametrize("seed", [None, 11], ids=["plain", "relabelled"])
@pytest.mark.parametrize("filter", FILTERS)
@pytest.mark.parametrize("name,n", EXTENTS)
def test_pruned_scan_equals_the_all_rows_scan(monkeypatch, name, n, filter, seed):
    L = catalogue(name) if seed is None else relabelled(catalogue(name), seed)
    rows = _kernel_rows(monkeypatch)
    pruned = compat.verify_equivalence_suite(L, n, filter=filter)
    pruned_rows = rows.pop(n)
    monkeypatch.setattr(compat, "_agrees", lambda L, n: False)
    every = compat.verify_equivalence_suite(L, n, filter=filter)
    assert rows[n] == every.monotone_count
    assert repr(pruned) == repr(every)
    assert pruned_rows == (CANDIDATES[name, n][FILTERS.index(filter)] if n >= 2
                           else every.monotone_count)


@pytest.mark.parametrize("filter", FILTERS)
@pytest.mark.parametrize("name,n", [("chain(3)", 1), ("chain(3)", 2), ("chain(3)", 3),
                                    ("chain(2)", 4), ("boolean(2)", 2)])
def test_the_scan_draws_each_table_once_from_the_enumerator(monkeypatch, name, n, filter):
    """A traced run counts the scan's tables by wrapping the enumerator and
    counts scans by wrapping ``verify_equivalence_suite``; the lower passes
    call neither, so both counts stay what the report says.  Each arity
    below n gets one lower pass."""
    calls = {"tables": 0, "scans": 0}
    enumerate_tables, scan = compat.enumerate_monotone_tables, compat.verify_equivalence_suite

    def counted_tables(*args, **kwargs):
        for table in enumerate_tables(*args, **kwargs):
            calls["tables"] += 1
            yield table

    def counted_scan(*args, **kwargs):
        calls["scans"] += 1
        return scan(*args, **kwargs)

    monkeypatch.setattr(compat, "enumerate_monotone_tables", counted_tables)
    monkeypatch.setattr(compat, "verify_equivalence_suite", counted_scan)
    arities = _lower_passes(monkeypatch)
    report = compat.verify_equivalence_suite(catalogue(name), n, filter=filter)
    assert calls == {"tables": report.monotone_count, "scans": 1}
    assert sorted(arities) == list(range(1, n))


@pytest.mark.parametrize("budget,kernel_rows", [(9, 175), (10, 50)])
def test_the_lower_pass_stops_past_the_budget(monkeypatch, budget, kernel_rows):
    """chain(3) has 10 unary monotone tables: with a budget of 9 the lower
    pass stops unfinished and every binary row reaches the kernels; with 10
    it finishes and the prune applies.  The report is the same."""
    want = compat.verify_equivalence_suite(catalogue("chain(3)"), 2)
    monkeypatch.setattr(compat, "BUDGET", budget)
    rows = _kernel_rows(monkeypatch)
    report = compat.verify_equivalence_suite(catalogue("chain(3)"), 2)
    assert rows[2] == kernel_rows
    assert repr(report) == repr(want)


def test_a_lower_disagreement_turns_the_prune_off(monkeypatch):
    """N5 and M3 disagree at arity 1, but their binary scans exceed the
    budget; so a unary median kernel patched to disagree stands in, and the
    binary scan must then run its kernels on every row."""
    assert not compat._agrees(catalogue("N5"), 1)
    assert not compat._agrees(catalogue("M3"), 1)
    c3 = catalogue("chain(3)")
    assert compat._agrees(c3, 1)
    want = compat.verify_equivalence_suite(c3, 2)
    kernel = compat._median_rows
    monkeypatch.setattr(compat, "_median_rows", lambda plan, stack: kernel(plan, stack)
                        ^ (plan.arity == 1))
    rows = _kernel_rows(monkeypatch)
    report = compat.verify_equivalence_suite(c3, 2)
    assert rows[2] == report.monotone_count == 175
    assert repr(report) == repr(want)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_bad_filter_is_refused_before_any_lower_pass(monkeypatch, n):
    """The scan checks its arguments before it decides the prune, so a bad
    filter costs no lower pass."""
    def unreached(L, n):
        raise AssertionError(f"lower pass at arity {n}")

    monkeypatch.setattr(compat, "_agrees", unreached)
    with pytest.raises(InvalidArgument, match="unknown filter 'bad'"):
        compat.verify_equivalence_suite(catalogue("chain(3)"), n, filter="bad")
