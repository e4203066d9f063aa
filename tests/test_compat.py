import itertools
import random

import pytest

import oracles
from latcong.compat import (
    boolean_restriction,
    enumerate_monotone_tables,
    is_compatible,
    median_decomposition_check,
    synthesize,
    verify_equivalence_suite,
)
from latcong.errors import BudgetExceeded, ForeignElement, LatcongError, \
    NotMonotone
from latcong.lattice import catalogue
from latcong.polynomials import eval_normal_form, is_monotone, \
    random_polynomial, to_table
from latcong.sugeno import Capacity, capacity_from_function, sugeno_table
from latcong.tables import FunctionTable, all_inputs


BENT = FunctionTable(1, 3, (0, 2, 2))  # monotone, skips the midpoint


def test_compatibility_examples(c3):
    assert not is_compatible(c3, BENT)
    assert is_compatible(c3, FunctionTable(1, 3, (1, 1, 1)))
    assert is_compatible(c3, FunctionTable(1, 3, (0, 1, 2)))


def test_compatibility_witness(c3):
    # the interval congruence {0,1}{2} separates f(0)=0 from f(1)=2
    theta = oracles.union_find_closure(c3, 0, 1)
    assert theta.relates(0, 1)
    assert not theta.relates(BENT.values[0], BENT.values[1])


@pytest.mark.parametrize("name,n", [("chain(3)", 1), ("chain(3)", 2),
                                    ("boolean(2)", 1), ("N5", 1), ("M3", 1)])
def test_principal_mode_matches_all_mode_and_oracle(name, n):
    L = catalogue(name)
    for f in enumerate_monotone_tables(L, n):
        assert is_compatible(L, f) == oracles.is_compatible_all_tuples(L, f)


def _random_binary_tables(L, seed, count=80):
    """Seeded binary tables on L: uniform ones, and polynomial tables sent
    through a compatible unary map that is not monotone, half of them with
    one entry changed; compatible and not, and mostly not monotone."""
    unary = [FunctionTable(1, L.size, u)
             for u in itertools.product(range(L.size), repeat=L.size)]
    maps = [u.values for u in unary if oracles.is_compatible_all_tuples(L, u)
            and not oracles.is_monotone_all_pairs(L, u)]
    rng = random.Random(seed)
    for i in range(count):
        if i % 3 == 0:
            values = [rng.randrange(L.size) for _ in range(L.size ** 2)]
        else:
            p = to_table(L, random_polynomial(rng, 2, L.size, max_depth=3))
            u = rng.choice(maps)
            values = [u[v] for v in p.values]
            if i % 3 == 2:
                values[rng.randrange(len(values))] = rng.randrange(L.size)
        yield FunctionTable(2, L.size, values)


@pytest.mark.parametrize("name", ["chain(3)", "boolean(2)", "N5", "M3"])
def test_compatibility_matches_oracle_on_random_binary_tables(name):
    """The moved-input pairs rest on the congruence being an equivalence
    only, so they decide tables that are not monotone as well."""
    L = catalogue(name)
    verdicts = set()
    for f in _random_binary_tables(L, name):
        if oracles.is_monotone_all_pairs(L, f):
            continue
        compatible = oracles.is_compatible_all_tuples(L, f)
        assert is_compatible(L, f) == compatible, f.values
        verdicts.add(compatible)
    # every binary table on the simple lattice M3 is compatible
    assert verdicts == ({True} if name == "M3" else {True, False})


def test_unknown_filter_is_a_latcong_error(c3):
    with pytest.raises(LatcongError, match="unknown filter 'some'"):
        next(enumerate_monotone_tables(c3, 1, filter="some"))


def test_median_decomposition_examples(c3):
    assert not median_decomposition_check(c3, BENT)
    assert c3.med(BENT.values[0], 1, BENT.values[2]) == 1  # but f(1) = 2
    su = sugeno_table(c3, Capacity(c3, (0, 1, 1, 2)))
    assert median_decomposition_check(c3, su)
    proj = FunctionTable.from_callable(3, 2, lambda x: x[1])
    assert median_decomposition_check(c3, proj)


def test_boolean_restriction_examples(c3):
    const = FunctionTable.from_callable(3, 2, lambda x: 1)
    assert boolean_restriction(c3, const).coefficients == (1, 1, 1, 1)
    proj = FunctionTable.from_callable(3, 2, lambda x: x[0])
    assert boolean_restriction(c3, proj).coefficients == (0, 2, 0, 2)
    m = Capacity(c3, (0, 1, 0, 2))
    assert boolean_restriction(c3, sugeno_table(c3, m)).coefficients == m.coefficients


def test_synthesize_on_incompatible_table(c3):
    nf, verified = synthesize(c3, BENT)
    assert nf.coefficients == (0, 2)
    assert not verified
    # the rebuilt function is (0 v x) ^ 2 = x, which differs at the midpoint
    assert eval_normal_form(c3, nf, (1,)) == 1


def test_synthesize_on_compatible_table(c3):
    su = sugeno_table(c3, Capacity(c3, (0, 1, 1, 2)))
    nf, verified = synthesize(c3, su)
    assert verified
    assert nf.coefficients == (0, 1, 1, 2)
    for x in all_inputs(3, 2):
        assert eval_normal_form(c3, nf, x) == su.value_at(x) \
            == oracles.sugeno_by_subsets(c3, nf.coefficients, x)


def test_synthesize_requires_monotone(c3):
    with pytest.raises(NotMonotone):
        synthesize(c3, FunctionTable(1, 3, (0, 2, 1)))


def test_monotone_enumeration_counts(c3, c2, b2):
    assert sum(1 for _ in enumerate_monotone_tables(c3, 1)) == 10
    assert sum(1 for _ in enumerate_monotone_tables(c3, 2)) == 175
    assert sum(1 for _ in enumerate_monotone_tables(b2, 1)) == 36
    assert sum(1 for _ in enumerate_monotone_tables(
        c2, 2, filter="aggregation")) == 4


def test_monotone_enumeration_is_sound_and_lexicographic(c3):
    tables = list(enumerate_monotone_tables(c3, 1))
    assert [t.values for t in tables] == sorted(t.values for t in tables)
    for t in tables:
        assert oracles.is_monotone_all_pairs(c3, t)


def test_monotone_enumeration_is_complete(c3):
    import itertools
    expected = [v for v in itertools.product(range(3), repeat=3)
                if oracles.is_monotone_all_pairs(c3, FunctionTable(1, 3, v))]
    assert [t.values for t in enumerate_monotone_tables(c3, 1)] == expected


def test_enumeration_budget(c3):
    with pytest.raises(BudgetExceeded):
        list(enumerate_monotone_tables(c3, 2, budget=10))


def test_compatible_unary_count(c3):
    compat = [f for f in enumerate_monotone_tables(c3, 1)
              if is_compatible(c3, f)]
    assert len(compat) == 6
    # each is the median interpolation of its endpoint pair
    for f in compat:
        lo, hi = f.values[0], f.values[2]
        assert f.values[1] == c3.med(lo, 1, hi)


def test_equivalence_suite_chain3(c3):
    report = verify_equivalence_suite(c3, 1)
    assert report.ok
    assert report.monotone_count == 10
    assert report.compatible_count == 6
    assert report.capacity_count == 1

    report2 = verify_equivalence_suite(c3, 2)
    assert report2.ok
    assert report2.monotone_count == 175
    assert report2.compatible_count == 20
    assert report2.compatible_aggregation_count == 9
    assert report2.capacity_count == 9


def test_equivalence_suite_boolean2(b2):
    report = verify_equivalence_suite(b2, 1)
    assert report.ok
    assert report.monotone_count == 36
    assert report.compatible_count == 9
    assert report.compatible_aggregation_count == 1


def test_equivalence_suite_aggregation_filter(c2):
    report = verify_equivalence_suite(c2, 2, filter="aggregation")
    assert report.ok
    assert report.monotone_count == 4
    assert report.compatible_aggregation_count == 4
    assert report.capacity_count == 4


def test_suite_report_renders(c3):
    text = verify_equivalence_suite(c3, 1).render()
    assert "10 monotone" in text
    assert "6 compatible" in text


def test_distinct_compatible_tables_have_distinct_vertices(c3):
    seen = {}
    for f in enumerate_monotone_tables(c3, 2):
        if is_compatible(c3, f):
            key = boolean_restriction(c3, f).coefficients
            assert key not in seen
            seen[key] = f


def test_compatible_aggregation_tables_are_integrals(c3):
    for f in enumerate_monotone_tables(c3, 2, filter="aggregation"):
        if is_compatible(c3, f):
            m = capacity_from_function(c3, f)
            assert sugeno_table(c3, m) == f


def test_everything_survives_permuted_element_numbering():
    """A chain numbered 2 < 1 < 0 must behave exactly like chain(3).

    Guards the index arithmetic: nothing may assume that numeric element
    order extends the lattice order.
    """
    from latcong.lattice import build_from_covers
    from latcong.polynomials import is_monotone
    upside = build_from_covers(3, [(2, 1), (1, 0)])
    assert upside.bottom == 2 and upside.top == 0
    tables = list(enumerate_monotone_tables(upside, 1))
    assert len(tables) == 10
    for f in tables:
        assert oracles.is_monotone_all_pairs(upside, f)
        assert is_monotone(upside, f)
        assert is_compatible(upside, f) == \
            oracles.is_compatible_all_tuples(upside, f)
        assert is_compatible(upside, f) == median_decomposition_check(upside, f)
    report = verify_equivalence_suite(upside, 2)
    assert report.ok
    assert report.monotone_count == 175
    assert report.compatible_count == 20


def test_equivalence_scan_chain4_binary(c4):
    from latcong.polynomials import enumerate_monotone_normal_forms
    report = verify_equivalence_suite(c4, 2)
    assert report.ok
    assert report.monotone_count == 24696
    nf_count = sum(1 for _ in enumerate_monotone_normal_forms(c4, 2))
    assert report.compatible_count == nf_count == 50
    assert report.capacity_count == 16


def test_equivalence_scan_boolean2_binary(b2):
    """The 4-cube of inputs: 168^2 monotone tables, 36 survive."""
    report = verify_equivalence_suite(b2, 2)
    assert report.ok
    assert report.monotone_count == 168 ** 2
    assert report.compatible_count == 36
    assert report.capacity_count == 16


def test_equivalence_scan_chain3_ternary(c3):
    """The largest extent: 211250 monotone ternary tables on the 3-chain.

    Compatible tables must biject with monotone coefficient tables over
    the 8 subset masks, counted independently.
    """
    from latcong.polynomials import enumerate_monotone_normal_forms
    report = verify_equivalence_suite(c3, 3)
    assert report.ok
    assert report.monotone_count == 211250
    nf_count = sum(1 for _ in enumerate_monotone_normal_forms(c3, 3))
    assert report.compatible_count == nf_count == 168
    assert report.capacity_count == 129


@pytest.mark.parametrize("n, dedekind", [(4, 168), (5, 7581)])
def test_equivalence_scan_chain2_dedekind(c2, monkeypatch, n, dedekind):
    """Monotone tables chain(2)^n -> chain(2) are the monotone boolean
    functions, counted by the Dedekind number M(n).  chain(2) has only the
    trivial congruences, so every table is compatible.  The capacities are
    the M(n) - 2 nonconstant ones, and so are the compatible aggregation
    tables.

    The capacities are checked in blocks: the rebuild kernel runs once per
    block of tables or capacities, not once per capacity.  The lower pass
    that the scan consults runs first and stands in for itself, so that its
    own rows are not counted.
    """
    from latcong import compat
    agrees = compat._agrees(c2, n - 1)
    assert agrees
    monkeypatch.setattr(compat, "_agrees", lambda L, n: agrees)
    rebuilds = []
    kernel = compat._rebuild_rows
    monkeypatch.setattr(compat, "_rebuild_rows",
                        lambda plan, rows: rebuilds.append(len(rows)) or kernel(plan, rows))
    report = verify_equivalence_suite(c2, n)
    assert report.ok
    assert report.monotone_count == report.compatible_count == dedekind
    assert report.compatible_aggregation_count == report.capacity_count == dedekind - 2
    assert sum(rebuilds) == 2 * dedekind - 2
    assert len(rebuilds) == -(-dedekind // compat.BLOCK) + -(-(dedekind - 2) // compat.BLOCK)


@pytest.mark.parametrize("check", [
    is_monotone, is_compatible, median_decomposition_check,
    boolean_restriction, capacity_from_function])
def test_table_over_another_carrier_is_foreign(c3, check):
    """A table over four elements is no function on the 3-chain."""
    with pytest.raises(ForeignElement):
        check(c3, FunctionTable(1, 4, (0, 1, 2, 3)))
