import random

import pytest

import oracles
from latcong.compat import is_compatible, normal_form_table
from latcong import io, tables
from latcong.errors import ArityMismatch, ForeignElement, InvalidArgument, TooLarge
from latcong.lattice import catalogue
from latcong.polynomials import (
    Constant,
    Join,
    Meet,
    NormalForm,
    Projection,
    WeightedPolynomial,
    enumerate_monotone_normal_forms,
    eval_normal_form,
    evaluate,
    is_monotone,
    normal_form_to_polynomial,
    random_polynomial,
    to_normal_form,
    to_table,
)
from latcong.sugeno import Capacity, sugeno_eval
from latcong.tables import FunctionTable, all_inputs, input_grid


def test_projection_and_constant(c3):
    p = WeightedPolynomial(2, Projection(0))
    q = WeightedPolynomial(2, Constant(1))
    for x in all_inputs(3, 2):
        assert evaluate(c3, p, x) == x[0]
        assert evaluate(c3, q, x) == 1


def test_eval_worked_example(c3):
    p = WeightedPolynomial(2, Join(Meet(Constant(1), Projection(0)),
                                   Projection(1)))
    assert evaluate(c3, p, (2, 0)) == 1


def test_eval_errors(c3):
    p = WeightedPolynomial(2, Projection(0))
    with pytest.raises(ArityMismatch):
        evaluate(c3, p, (1,))
    with pytest.raises(ForeignElement):
        evaluate(c3, p, (1, 7))
    with pytest.raises(ForeignElement):
        evaluate(c3, WeightedPolynomial(1, Constant(9)), (0,))


def test_projection_index_must_fit_arity():
    with pytest.raises(ArityMismatch):
        WeightedPolynomial(1, Projection(1))
    with pytest.raises(ArityMismatch):
        WeightedPolynomial(2, Join(Projection(0), Projection(-1)))


def test_normal_form_of_projection(c3):
    nf = to_normal_form(c3, WeightedPolynomial(2, Projection(0)))
    assert nf.coefficients == (0, 2, 0, 2)


def test_normal_form_of_constant(c3):
    nf = to_normal_form(c3, WeightedPolynomial(2, Constant(1)))
    assert nf.coefficients == (1, 1, 1, 1)


def test_normal_form_worked_example(c3):
    p = WeightedPolynomial(2, Join(Meet(Constant(1), Projection(0)),
                                   Meet(Projection(0), Projection(1))))
    assert to_normal_form(c3, p).coefficients == (0, 1, 0, 2)


def test_eval_normal_form_matches_projection(b2):
    nf = to_normal_form(b2, WeightedPolynomial(2, Projection(0)))
    for x in all_inputs(4, 2):
        assert eval_normal_form(b2, nf, x) == x[0]


def test_empty_mask_dominates(c3):
    nf = NormalForm(2, (2, 0, 0, 0))
    for x in all_inputs(3, 2):
        assert eval_normal_form(c3, nf, x) == 2


def test_all_bottom_coefficients_give_bottom(c3):
    nf = NormalForm(2, (0, 0, 0, 0))
    for x in all_inputs(3, 2):
        assert eval_normal_form(c3, nf, x) == 0


def test_eval_normal_form_worked_example(c3):
    nf = NormalForm(2, (0, 1, 1, 2))
    assert eval_normal_form(c3, nf, (2, 0)) == 1


@pytest.mark.parametrize("coefficient", [-1, 3, 9])
def test_coefficient_outside_carrier_is_foreign(c3, coefficient):
    """A negative coefficient used to wrap around the meet table and 9 to
    raise a raw numpy IndexError."""
    nf = NormalForm(1, (0, coefficient))
    with pytest.raises(ForeignElement, match=f"coefficient {coefficient} outside"):
        eval_normal_form(c3, nf, (2,))
    with pytest.raises(ForeignElement, match=f"coefficient {coefficient} outside"):
        normal_form_table(c3, nf)


def test_normal_form_shape_checked():
    with pytest.raises(ArityMismatch):
        NormalForm(2, (0, 1, 2))


def test_normal_form_to_polynomial_round_trip(c3):
    """Exhaustive over all monotone coefficient tables, arities 1..3."""
    for arity in (1, 2, 3):
        for nf in enumerate_monotone_normal_forms(c3, arity):
            p = normal_form_to_polynomial(nf)
            assert to_normal_form(c3, p) == nf
            for x in all_inputs(3, arity):
                assert evaluate(c3, p, x) == eval_normal_form(c3, nf, x) \
                    == oracles.evaluate_term(c3, p.root, x)


def test_normal_form_mask_monotonicity_flag(c3):
    assert NormalForm(2, (0, 1, 1, 2)).is_monotone_in_masks(c3)
    assert not NormalForm(2, (0, 2, 0, 1)).is_monotone_in_masks(c3)
    for nf in enumerate_monotone_normal_forms(c3, 2):
        assert nf.is_monotone_in_masks(c3)


def _perturbed(L, rows, seed):
    """Each row with one coefficient set to a random element, and each row
    reversed (mask m takes the coefficient of the complement of m)."""
    rng = random.Random(seed)
    out = []
    for row in rows:
        changed = list(row)
        changed[rng.randrange(len(row))] = rng.randrange(L.size)
        out += (tuple(changed), row[::-1])
    return out


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("name", ["chain(3)", "N5", "M3"])
def test_mask_monotonicity_matches_subset_oracle(name, n):
    """All enumerated rows up to 8000; N5 and M3 have 235 789 and 74 229 at
    n = 4, of which every 30th and every 10th are taken."""
    L = catalogue(name)
    rows = [nf.coefficients for nf in enumerate_monotone_normal_forms(L, n)]
    rows = rows[::-(-len(rows) // 8000)]
    rows += _perturbed(L, rows, f"{name} {n}")
    verdicts = [NormalForm(n, row).is_monotone_in_masks(L) for row in rows]
    assert verdicts == oracles.monotone_on_subsets(L, rows, n)
    assert n == 0 or False in verdicts


@pytest.mark.parametrize("coefficient", [-1, 3, 7])
def test_mask_monotonicity_needs_elements_of_the_lattice(c3, coefficient):
    """-1 used to wrap round to the top and give a verdict; 7 raised IndexError."""
    with pytest.raises(ForeignElement, match=f"coefficient {coefficient} outside"):
        NormalForm(1, (0, coefficient)).is_monotone_in_masks(c3)
    with pytest.raises(InvalidArgument, match="expected a Lattice"):
        NormalForm(1, (0, 1)).is_monotone_in_masks("chain(3)")


def _depth(node):
    """The depth of a term, walked with an explicit stack."""
    deepest, stack = 0, [(node, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(node, (Meet, Join)):
            stack += ((node.left, depth + 1), (node.right, depth + 1))
    return deepest


@pytest.mark.parametrize("n", [10, 11])
def test_normal_form_terms_are_at_most_2n_plus_1_deep(c3, n):
    """The 2**n meets are joined in pairs; joined left to right, the term
    was 2**n + n deep and equality (n = 9) or construction (n = 10) raised
    RecursionError."""
    nf = NormalForm(n, tuple(min(2, bin(mask).count("1") // 4) for mask in range(1 << n)))
    p = normal_form_to_polynomial(nf)
    assert _depth(p.root) == 2 * n + 1
    q = normal_form_to_polynomial(nf)
    assert p == q and hash(p) == hash(q)
    text = io.serialize_polynomial(p)
    assert io.parse_polynomial(text) == io.parse_polynomial(text, arity=n) == p
    assert to_normal_form(c3, p) == nf


def test_monotone_normal_form_count(c3):
    # pairs g(empty) <= g(full) through the two free middle coefficients
    assert sum(1 for _ in enumerate_monotone_normal_forms(c3, 1)) == 6
    assert sum(1 for _ in enumerate_monotone_normal_forms(c3, 2)) == 20


def test_is_monotone_examples(c3):
    assert not is_monotone(c3, FunctionTable(1, 3, (0, 2, 1)))
    assert is_monotone(c3, FunctionTable(1, 3, (0, 2, 2)))


@pytest.mark.parametrize("name", ["chain(3)", "boolean(2)", "N5"])
def test_is_monotone_matches_all_pairs_oracle(name):
    L = catalogue(name)
    rng = random.Random(7)
    for _ in range(40):
        arity = rng.randint(1, 2)
        table = FunctionTable(
            arity, L.size,
            [rng.randrange(L.size) for _ in range(L.size ** arity)])
        assert is_monotone(L, table) == oracles.is_monotone_all_pairs(L, table)


def test_polynomial_tables_are_monotone(c3, b2):
    rng = random.Random(11)
    for L in (c3, b2):
        for _ in range(50):
            p = random_polynomial(rng, rng.randint(1, 3), L.size)
            assert is_monotone(L, to_table(L, p))


@pytest.mark.parametrize("name", ["chain(3)", "boolean(2)", "N5", "M3"])
def test_polynomial_tables_are_compatible(name):
    """Term functions preserve congruences on any lattice."""
    L = catalogue(name)
    rng = random.Random(13)
    for _ in range(30):
        p = random_polynomial(rng, rng.randint(1, 2), L.size, max_depth=3)
        table = to_table(L, p)
        assert is_compatible(L, table)
        assert oracles.is_compatible_all_tuples(L, table)


def test_monotone_normal_forms_evaluate_monotone(c3, b2):
    for L in (c3, b2):
        for nf in enumerate_monotone_normal_forms(L, 2):
            table = FunctionTable.from_callable(
                L.size, 2, lambda x: eval_normal_form(L, nf, x))
            assert is_monotone(L, table)


def test_to_table_refuses_a_grid_over_the_limit():
    """3 ** 31 inputs: numpy could not allocate this grid either."""
    p = WeightedPolynomial(31, Join(Projection(0), Projection(30)))
    with pytest.raises(TooLarge, match="input grid of arity 31"):
        to_table(catalogue("chain(3)"), p)


def test_input_grid_limit_counts_entries(monkeypatch):
    monkeypatch.setattr(tables, "MAX_ENTRIES", 18)
    assert input_grid(3, 2).shape == (9, 2)  # 18 entries
    with pytest.raises(TooLarge):
        input_grid(2, 5)  # 32 inputs of 5 coordinates
    with pytest.raises(TooLarge):
        input_grid(19, 1)


def test_plan_parts_are_bounded_before_they_allocate(monkeypatch):
    """chain(2) at n = 3: the grid has 8 * 3 = 24 entries, the selected
    meets 8 * 8 = 64 and the comonotone pairs (8 * 3) ** 2 = 576."""
    monkeypatch.setattr(tables, "MAX_ENTRIES", 64)
    plan = tables._Plan(catalogue("chain(2)"), input_grid(2, 3))
    assert plan.grid.shape == (8, 3)
    assert plan.selected.shape == (8, 8)
    with pytest.raises(TooLarge, match="comonotone pairs of arity 3 would have 576"):
        plan.comonotone
    monkeypatch.setattr(tables, "MAX_ENTRIES", 63)
    plan = tables._Plan(catalogue("chain(2)"), input_grid(2, 3))
    with pytest.raises(TooLarge, match="selected meets of arity 3 would have 64"):
        plan.selected


def test_to_normal_form_bounds_its_vertex_stack(monkeypatch):
    """The 2 ** 3 boolean vertices of 3 coordinates are 24 entries."""
    L = catalogue("chain(2)")
    p = WeightedPolynomial(3, Meet(Projection(0), Projection(2)))
    monkeypatch.setattr(tables, "MAX_ENTRIES", 24)
    assert to_normal_form(L, p).coefficients == (0, 0, 0, 0, 0, 1, 0, 1)
    monkeypatch.setattr(tables, "MAX_ENTRIES", 23)
    with pytest.raises(TooLarge, match="boolean vertices of arity 3 would have 24"):
        to_normal_form(L, p)


def test_a_point_never_builds_a_full_grid(monkeypatch):
    """chain(3) at n = 3: a point selects 2 ** 3 = 8 meets, which fit, while
    size * 2 ** 3 = 24 entries and the full grid's 27 * 3 = 81 do not.  The
    plan cache is cleared so that no full-grid plan built under the real
    limit is reused."""
    L = catalogue("chain(3)")
    m = Capacity(L, (0, 0, 1, 1, 1, 2, 1, 2))
    monkeypatch.setattr(tables, "MAX_ENTRIES", 8)
    tables._plan.cache_clear()
    with pytest.raises(TooLarge, match="input grid of arity 3"):
        tables._plan(L, 3)
    for x in [(2, 1, 0), (1, 1, 2), (0, 2, 2)]:
        want = oracles.sugeno_by_subsets(L, m.coefficients, x)
        assert eval_normal_form(L, m, x) == sugeno_eval(L, m, x) == want
