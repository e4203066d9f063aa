
import pytest

import oracles
from latcong.errors import ArityMismatch, ForeignElement, NotAChain, \
    NotAggregation, ValidationError
from latcong.lattice import catalogue
from latcong.polynomials import NormalForm, Projection, WeightedPolynomial, \
    eval_normal_form, evaluate
from latcong.sugeno import (
    Capacity,
    capacity_from_function,
    check_comonotone_maxitive,
    check_horizontally_maxitive,
    check_idempotent,
    check_min_homogeneous,
    compare_formulations,
    enumerate_capacities,
    sugeno_eval,
    sugeno_eval_levels,
    sugeno_eval_pointwise,
    sugeno_table,
)
from latcong.tables import FunctionTable, all_inputs


@pytest.fixture(scope="module")
def m_c3(c3):
    return Capacity(c3, (0, 1, 1, 2))


def test_capacity_validation(c3):
    with pytest.raises(ValidationError):
        Capacity(c3, (1, 1, 1, 2))  # empty set not bottom
    with pytest.raises(ValidationError):
        Capacity(c3, (0, 1, 1, 1))  # full set not top
    with pytest.raises(ValidationError):
        Capacity(c3, (0, 2, 1, 2, 0, 1, 1, 2))  # not monotone: m({1}) > m({1,2})...
    with pytest.raises(ValidationError):
        Capacity(c3, (0, 1, 2))  # not a power of two
    with pytest.raises(ForeignElement):
        Capacity(c3, (0, 9, 1, 2))


def test_capacity_counts():
    assert sum(1 for _ in enumerate_capacities(catalogue("chain(2)"), 2)) == 4
    assert sum(1 for _ in enumerate_capacities(catalogue("chain(3)"), 2)) == 9
    assert sum(1 for _ in enumerate_capacities(catalogue("boolean(2)"), 2)) == 16


def test_capacities_enumerated_are_valid(b2):
    seen = set()
    for m in enumerate_capacities(b2, 2):
        assert m.coefficients[0] == b2.bottom
        assert m.coefficients[-1] == b2.top
        seen.add(m.coefficients)
    assert len(seen) == 16


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("name", ["chain(1)", "chain(2)", "chain(3)", "chain(4)",
                                  "chain(5)", "boolean(2)", "N5", "M3"])
def test_enumerated_capacities_equal_checked_ones(name, n):
    """The enumerator builds its capacities without validation; each must be
    the capacity the checked constructor gives for the same values."""
    L = catalogue(name)
    capacities = list(enumerate_capacities(L, n))
    assert len(capacities) == (L.size == 1 if n == 0 else len(set(capacities)))
    for m in capacities:
        checked = Capacity(L, m.coefficients)
        assert m == checked and hash(m) == hash(checked) and repr(m) == repr(checked)
        assert (m.arity, m.lattice) == (checked.arity, checked.lattice) == (n, L)
        assert type(m.coefficients) is tuple \
            and all(type(v) is int for v in m.coefficients)


def test_sugeno_worked_example(c3, m_c3):
    assert sugeno_eval(c3, m_c3, (2, 0)) == 1
    assert sugeno_eval_pointwise(c3, m_c3, (2, 0)) == 1
    assert sugeno_eval_levels(c3, m_c3, (2, 0)) == 1


def test_sugeno_boundary_and_idempotent(c3, m_c3):
    assert sugeno_eval(c3, m_c3, (2, 2)) == 2
    assert sugeno_eval(c3, m_c3, (0, 0)) == 0
    assert check_idempotent(c3, m_c3)


def test_sugeno_arity_mismatch(c3, m_c3):
    with pytest.raises(ArityMismatch):
        sugeno_eval(c3, m_c3, (1,))


@pytest.mark.parametrize("call", [
    lambda L, m, u: evaluate(L, WeightedPolynomial(2, Projection(1)), u),
    lambda L, m, u: eval_normal_form(L, NormalForm(2, (0, 1, 1, 2)), u),
    sugeno_eval,
    sugeno_eval_levels,
    sugeno_eval_pointwise,
    lambda L, m, u: FunctionTable.from_callable(3, 2, max).value_at(u),
], ids=["evaluate", "eval_normal_form", "sugeno_eval", "levels", "pointwise",
        "value_at"])
@pytest.mark.parametrize("u", [(-1, 0), (9, 0), (0, 3)])
def test_inputs_outside_the_carrier_are_foreign(c3, m_c3, call, u):
    """A negative index must not wrap around to the last element."""
    with pytest.raises(ForeignElement):
        call(c3, m_c3, u)


@pytest.mark.parametrize("call", [sugeno_eval, sugeno_eval_levels,
                                  sugeno_eval_pointwise],
                         ids=["sugeno_eval", "levels", "pointwise"])
def test_capacity_values_outside_the_carrier_are_foreign(c3, call):
    """A boolean(2) capacity used on chain(3): the level and pointwise forms
    used to raise a raw IndexError on its value 3."""
    m = Capacity(catalogue("boolean(2)"), (0, 1, 2, 3))
    with pytest.raises(ForeignElement,
                       match="^coefficient 3 outside carrier of size 3$"):
        call(c3, m, (2, 1))


@pytest.mark.parametrize("name,n", [("chain(3)", 1), ("chain(3)", 2),
                                    ("boolean(2)", 2), ("M3", 1), ("N5", 2)])
def test_subset_expansion_matches_combination_oracle(name, n):
    L = catalogue(name)
    for m in enumerate_capacities(L, n):
        for u in all_inputs(L.size, n):
            assert sugeno_eval(L, m, u) == \
                oracles.sugeno_by_subsets(L, m.coefficients, u)


def test_integral_is_normal_form_evaluation(c3):
    """The capacity doubles as the coefficient table of a normal form."""
    for m in enumerate_capacities(c3, 2):
        nf = NormalForm(2, m.coefficients)
        for u in all_inputs(3, 2):
            assert sugeno_eval(c3, m, u) == eval_normal_form(c3, nf, u)


@pytest.mark.parametrize("name,n", [("chain(2)", 2), ("chain(3)", 2),
                                    ("chain(3)", 3), ("chain(4)", 2)])
def test_formulations_agree_on_chains(name, n):
    report = compare_formulations(catalogue(name), n)
    assert report.agree
    assert report.render().endswith("0 disagreements")


@pytest.mark.parametrize("name,n", [("boolean(2)", 2), ("M3", 2), ("N5", 2)])
def test_levels_form_equals_subset_form_everywhere(name, n):
    """With thresholds over the whole carrier the level form is exact.

    Every subset term is dominated by the level term at its own meet, and
    conversely, so the two forms coincide on any finite lattice; only the
    pointwise form can stray.
    """
    L = catalogue(name)
    for m in enumerate_capacities(L, n):
        for u in all_inputs(L.size, n):
            assert sugeno_eval_levels(L, m, u) == sugeno_eval(L, m, u)


def test_pointwise_form_disagrees_on_boolean_cube():
    """On boolean(3) the pointwise form can under-shoot the subset form."""
    b3 = catalogue("boolean(3)")
    m = Capacity(b3, (0, 0, 0, 7))
    u = (0b011, 0b101)
    assert sugeno_eval(b3, m, u) == 0b001
    assert sugeno_eval_pointwise(b3, m, u) == 0
    report = compare_formulations(b3, 2)
    assert not report.agree


@pytest.mark.parametrize("n", [-1, -5])
def test_compare_formulations_rejects_negative_arity(c3, n):
    """It used to raise a raw ValueError from itertools.product."""
    with pytest.raises(ArityMismatch, match=f"arity must be non-negative, got {n}"):
        compare_formulations(c3, n)


def test_comparator_report_is_deterministic(b2):
    first = compare_formulations(b2, 2)
    second = compare_formulations(b2, 2)
    assert first == second
    assert first.render() == second.render()


def test_capacity_from_function_examples(c3):
    meet_table = FunctionTable.from_callable(3, 2, min)
    join_table = FunctionTable.from_callable(3, 2, max)
    proj_table = FunctionTable.from_callable(3, 2, lambda x: x[0])
    assert capacity_from_function(c3, meet_table).coefficients == (0, 0, 0, 2)
    assert capacity_from_function(c3, join_table).coefficients == (0, 2, 2, 2)
    assert capacity_from_function(c3, proj_table).coefficients == (0, 2, 0, 2)


def test_capacity_from_function_rejects_non_aggregation(c3):
    constant = FunctionTable.from_callable(3, 2, lambda x: 1)
    with pytest.raises(NotAggregation):
        capacity_from_function(c3, constant)
    dent = FunctionTable(1, 3, (0, 2, 2))
    bent = FunctionTable(1, 3, (0, 2, 1))
    with pytest.raises(NotAggregation):
        capacity_from_function(c3, bent)
    # monotone with boundaries is fine even if not an integral of anything
    capacity_from_function(c3, dent)


@pytest.mark.parametrize("name,n", [("chain(3)", 2), ("boolean(2)", 2),
                                    ("chain(4)", 2), ("chain(3)", 3)])
def test_characteristic_vector_round_trip(name, n):
    """Integrating the indicator of a subset returns its capacity value."""
    L = catalogue(name)
    for m in enumerate_capacities(L, n):
        assert capacity_from_function(L, sugeno_table(L, m)) == m


def test_min_homogeneity_on_non_chain(b2):
    """The lowering law only needs distributivity, not a chain."""
    for m in enumerate_capacities(b2, 2):
        assert check_min_homogeneous(b2, m)


def test_chain_property_checks(c3):
    for m in enumerate_capacities(c3, 2):
        assert check_idempotent(c3, m)
        assert check_min_homogeneous(c3, m)
        assert check_comonotone_maxitive(c3, m)
        assert check_horizontally_maxitive(c3, m)


def test_maxitivity_checks_require_chain(b2):
    m = next(iter(enumerate_capacities(b2, 2)))
    with pytest.raises(NotAChain):
        check_comonotone_maxitive(b2, m)
    with pytest.raises(NotAChain):
        check_horizontally_maxitive(b2, m)


def test_comonotone_pair_filter(c3, m_c3):
    # (0,2) and (2,0) are oppositely ordered: the law is not required there,
    # and for this capacity it indeed fails, which the checker must survive.
    join_value = sugeno_eval(c3, m_c3, (2, 2))
    split = c3.join(sugeno_eval(c3, m_c3, (0, 2)), sugeno_eval(c3, m_c3, (2, 0)))
    assert join_value == 2 and split == 1
    assert check_comonotone_maxitive(c3, m_c3)
