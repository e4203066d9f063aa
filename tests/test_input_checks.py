"""Every public call that takes an element, an input vector, an arity, a
table, a product or sum lattice, or a capacity rejects what is not one (or
a capacity of another lattice) with a LatcongError subclass, never a raw
Python error, and reads numpy integers as the ints they hold."""

import random

import numpy as np
import pytest

from conftest import relabelled
from latcong import io, tables
from latcong import Capacity, Congruence, Constant, FunctionTable, LatcongError, \
    NormalForm, Projection, WeightedPolynomial, all_congruences, \
    all_congruences_bruteforce, all_inputs, boolean_restriction, \
    capacity_from_function, catalogue, check_comonotone_maxitive, \
    check_horizontally_maxitive, check_idempotent, check_min_homogeneous, \
    compare_formulations, congruence_join, enumerate_capacities, \
    enumerate_monotone_normal_forms, enumerate_monotone_tables, eval_normal_form, \
    evaluate, formula_relation, formula_relation_is_congruence, is_compatible, \
    is_congruence, is_isomorphic, is_monotone, med_dual_check, \
    median_decomposition_check, normal_form_to_polynomial, principal_congruence, \
    principal_congruence_oracle, principal_congruences, random_polynomial, \
    sugeno_eval, sugeno_eval_levels, sugeno_eval_pointwise, sugeno_table, \
    synthesize, to_normal_form, to_table, verify_equivalence_suite
from latcong.congruences import principal_congruence_fixpoint
from latcong.lattice import Lattice, build_from_covers
from latcong.constructions import direct_product, horizontal_sum, \
    horizontal_sum_decomposition_check, product_decomposition_check, \
    project_capacity, split_capacity
from latcong.errors import ForeignElement, InvalidArgument, TooLarge

L = catalogue("chain(3)")
SIZE = L.size
X0 = WeightedPolynomial(1, Projection(0))
NF = NormalForm(1, (0, 2))
M = Capacity(L, (0, 2))
F = FunctionTable(1, SIZE, (0, 1, 2))

# Per call: a function of the value in one slot, and a valid value for it.
ELEMENTS = {
    "Lattice.leq": (lambda v: L.leq(v, 2), 1),
    "Lattice.meet": (lambda v: L.meet(v, 1), 2),
    "Lattice.join": (lambda v: L.join(1, v), 0),
    "Lattice.med": (lambda v: L.med(0, 1, v), 2),
    "principal_congruence": (lambda v: principal_congruence(L, v, 1), 0),
    "principal_congruence_oracle": (lambda v: principal_congruence_oracle(L, 1, v), 2),
    "principal_congruence_fixpoint":
        (lambda v: principal_congruence_fixpoint(L, v, 0), 2),
    "formula_relation": (lambda v: formula_relation(L, 0, v), 1),
    "formula_relation_is_congruence":
        (lambda v: formula_relation_is_congruence(L, v, 2), 1),
    "FunctionTable values": (lambda v: FunctionTable(1, SIZE, (0, v, 2)), 1),
    "Capacity values": (lambda v: Capacity(L, (0, v, v, 2)), 1),
    "NormalForm coefficients":
        (lambda v: eval_normal_form(L, NormalForm(1, (v, 2)), [1]), 0),
    "Constant": (lambda v: to_table(L, WeightedPolynomial(1, Constant(v))), 1),
    # input vectors
    "FunctionTable.value_at": (lambda v: F.value_at([v]), 2),
    "evaluate": (lambda v: evaluate(L, X0, [v]), 1),
    "eval_normal_form": (lambda v: eval_normal_form(L, NF, [v]), 1),
    "sugeno_eval": (lambda v: sugeno_eval(L, M, [v]), 2),
    "sugeno_eval_levels": (lambda v: sugeno_eval_levels(L, M, [v]), 1),
    "sugeno_eval_pointwise": (lambda v: sugeno_eval_pointwise(L, M, [v]), 0),
}
ARITIES = {
    "FunctionTable": (lambda n: FunctionTable(n, SIZE, (0, 1, 2)), 1),
    "FunctionTable.from_callable":
        (lambda n: FunctionTable.from_callable(SIZE, n, lambda x: 0), 1),
    "all_inputs": (lambda n: list(all_inputs(SIZE, n)), 2),
    "NormalForm": (lambda n: NormalForm(n, (0, 2)), 1),
    "WeightedPolynomial": (lambda n: WeightedPolynomial(n, Projection(0)), 1),
    "Projection": (lambda i: WeightedPolynomial(2, Projection(i)), 1),
    "enumerate_monotone_tables": (lambda n: list(enumerate_monotone_tables(L, n)), 1),
    "enumerate_monotone_normal_forms":
        (lambda n: list(enumerate_monotone_normal_forms(L, n)), 2),
    "enumerate_capacities": (lambda n: list(enumerate_capacities(L, n)), 2),
    "compare_formulations": (lambda n: compare_formulations(L, n), 2),
    "verify_equivalence_suite": (lambda n: verify_equivalence_suite(L, n), 1),
    "random_polynomial arity":
        (lambda n: random_polynomial(random.Random(5), n, SIZE), 2),
    "random_polynomial lattice_size":
        (lambda s: random_polynomial(random.Random(5), 2, s), 3),
}
TABLES = {
    "is_monotone": lambda f: is_monotone(L, f),
    "boolean_restriction": lambda f: boolean_restriction(L, f),
    "is_compatible": lambda f: is_compatible(L, f),
    "median_decomposition_check": lambda f: median_decomposition_check(L, f),
    "synthesize": lambda f: synthesize(L, f),
    "capacity_from_function": lambda f: capacity_from_function(L, f),
    "check_idempotent": lambda f: check_idempotent(L, f),
    "check_min_homogeneous": lambda f: check_min_homogeneous(L, f),
    "check_comonotone_maxitive": lambda f: check_comonotone_maxitive(L, f),
    "check_horizontally_maxitive": lambda f: check_horizontally_maxitive(L, f),
}
# Per call: a function of the value in one slot that must hold a Lattice,
# a NormalForm or a Capacity.
OBJECTS = {
    "sugeno_eval normal form": lambda v: sugeno_eval(L, v, [1]),
    "sugeno_eval lattice": lambda v: sugeno_eval(v, M, [1]),
    "eval_normal_form normal form": lambda v: eval_normal_form(L, v, [1]),
    "eval_normal_form lattice": lambda v: eval_normal_form(v, NF, [1]),
    "sugeno_eval_levels capacity": lambda v: sugeno_eval_levels(L, v, [1]),
    "sugeno_eval_levels lattice": lambda v: sugeno_eval_levels(v, M, [1]),
    "sugeno_eval_pointwise capacity": lambda v: sugeno_eval_pointwise(L, v, [1]),
    "sugeno_eval_pointwise lattice": lambda v: sugeno_eval_pointwise(v, M, [1]),
    "sugeno_table capacity": lambda v: sugeno_table(L, v),
    "sugeno_table lattice": lambda v: sugeno_table(v, M),
    "Capacity lattice": lambda v: Capacity(v, (0, 2)),
}
# Per call: a function of the value in one slot that must hold a Lattice, or,
# for the last three, a NormalForm or an int.
THETA = Congruence((0, 0, 1))
NOT_LATTICES = {
    "is_compatible": lambda v: is_compatible(v, F),
    "median_decomposition_check": lambda v: median_decomposition_check(v, F),
    "synthesize": lambda v: synthesize(v, F),
    "is_monotone": lambda v: is_monotone(v, F),
    "boolean_restriction": lambda v: boolean_restriction(v, F),
    "capacity_from_function": lambda v: capacity_from_function(v, F),
    "to_table": lambda v: to_table(v, X0),
    "evaluate": lambda v: evaluate(v, X0, [1]),
    "to_normal_form": lambda v: to_normal_form(v, X0),
    "compare_formulations": lambda v: compare_formulations(v, 1),
    "verify_equivalence_suite": lambda v: verify_equivalence_suite(v, 1),
    "enumerate_monotone_tables": lambda v: list(enumerate_monotone_tables(v, 1)),
    "enumerate_monotone_normal_forms":
        lambda v: list(enumerate_monotone_normal_forms(v, 1)),
    "enumerate_capacities": lambda v: list(enumerate_capacities(v, 1)),
    "all_congruences": all_congruences,
    "principal_congruences": principal_congruences,
    "is_congruence": lambda v: is_congruence(v, THETA),
    "congruence_join": lambda v: congruence_join(v, THETA, THETA),
    "formula_relation": lambda v: formula_relation(v, 0, 1),
    "formula_relation_is_congruence": lambda v: formula_relation_is_congruence(v, 0, 1),
    "principal_congruence": lambda v: principal_congruence(v, 0, 1),
    "principal_congruence_oracle": lambda v: principal_congruence_oracle(v, 0, 1),
    "principal_congruence_fixpoint": lambda v: principal_congruence_fixpoint(v, 0, 1),
    "all_congruences_bruteforce": all_congruences_bruteforce,
    "parse_function_table":
        lambda v: io.parse_function_table(io.serialize_function_table(F), v),
    "parse_capacity": lambda v: io.parse_capacity(io.serialize_capacity(M), v),
    "is_isomorphic left": lambda v: is_isomorphic(v, L),
    "is_isomorphic right": lambda v: is_isomorphic(L, v),
    "med_dual_check": med_dual_check,
    "normal_form_to_polynomial": normal_form_to_polynomial,
    "enumerate_monotone_tables budget":
        lambda v: list(enumerate_monotone_tables(L, 1, budget=v)),
    "random_polynomial max_depth":
        lambda v: random_polynomial(random.Random(5), 2, SIZE, max_depth=v),
}
# Per call: a function of a count that must be an int (a carrier size or a
# bound), and a valid value for it.
SIZES = {
    "FunctionTable size": (lambda s: FunctionTable(1, s, (0, 1, 2)), SIZE),
    "all_inputs size": (lambda s: list(all_inputs(s, 1)), SIZE),
    "Congruence.from_blocks size":
        (lambda s: Congruence.from_blocks([[0], [1], [2]], s), SIZE),
    "all_congruences_bruteforce max_size":
        (lambda s: all_congruences_bruteforce(L, max_size=s), 8),
}
# ``SIZE`` is the first value outside the carrier; as an arity it is valid.
BAD = [1.5, "1", True, -1]
NUMPY = [np.int64, np.uint8]


def _rejects(call, value):
    try:
        call(value)
    except LatcongError:
        return
    except Exception as exc:  # a raw error is the failure this table looks for
        pytest.fail(f"raw {type(exc).__name__} for {value!r}: {exc}")
    pytest.fail(f"accepted {value!r}")


@pytest.mark.parametrize("value", BAD + [SIZE], ids=repr)
@pytest.mark.parametrize("name", ELEMENTS)
def test_an_element_that_is_not_one_is_rejected(name, value):
    _rejects(ELEMENTS[name][0], value)


@pytest.mark.parametrize("value", BAD, ids=repr)
@pytest.mark.parametrize("name", ARITIES)
def test_an_arity_that_is_not_one_is_rejected(name, value):
    _rejects(ARITIES[name][0], value)


@pytest.mark.parametrize("value", BAD + [SIZE, [0, 1, 2], (0, 1, 2)], ids=repr)
@pytest.mark.parametrize("name", TABLES)
def test_a_table_that_is_not_one_is_rejected(name, value):
    _rejects(TABLES[name], value)


@pytest.mark.parametrize("value", [[0, 2], (0, 2), "chain(3)", None, F], ids=repr)
@pytest.mark.parametrize("name", OBJECTS)
def test_an_object_of_the_wrong_type_is_rejected(name, value):
    """These raised a raw AttributeError on the missing ``arity``,
    ``coefficients`` or ``size``."""
    with pytest.raises(InvalidArgument, match="expected a"):
        OBJECTS[name](value)


@pytest.mark.parametrize("value", ["chain(3)", None], ids=repr)
@pytest.mark.parametrize("name", NOT_LATTICES)
def test_what_is_not_a_lattice_is_rejected(name, value):
    """These raised a raw AttributeError on ``size``, ``leq`` or another
    attribute of a lattice, or a raw TypeError on the int."""
    with pytest.raises(InvalidArgument):
        NOT_LATTICES[name](value)


@pytest.mark.parametrize("name", ["to_table", "compare_formulations",
                                  "verify_equivalence_suite"])
def test_an_unhashable_non_lattice_is_rejected(name):
    """These raised a raw TypeError from the cache of ``tables._plan``,
    which hashes its lattice before any check."""
    with pytest.raises(InvalidArgument, match="expected a Lattice"):
        NOT_LATTICES[name]([1])


@pytest.mark.parametrize("value", [1.5, "3", True, None], ids=repr)
@pytest.mark.parametrize("name", SIZES)
def test_a_size_that_is_not_an_int_is_rejected(name, value):
    """These raised a raw TypeError from ``range``, a list product or a
    comparison."""
    with pytest.raises(InvalidArgument, match="must be an int"):
        SIZES[name][0](value)


@pytest.mark.parametrize("kind", NUMPY, ids=lambda k: k.__name__)
@pytest.mark.parametrize("name", {**ELEMENTS, **ARITIES, **SIZES})
def test_numpy_integers_give_the_int_answer(name, kind):
    call, good = {**ELEMENTS, **ARITIES, **SIZES}[name]
    assert call(kind(good)) == call(good)


def test_normal_form_coefficients_are_kept_as_a_tuple():
    """A list was kept as it was given, so the normal form differed from
    the one over the same tuple and could not be hashed."""
    nf = NormalForm(np.int64(1), [0, 2])
    assert nf == NF and hash(nf) == hash(NF)
    assert type(nf.coefficients) is tuple and type(nf.arity) is int
    with pytest.raises(InvalidArgument, match="coefficients must be a sequence"):
        NormalForm(1, None)


# Per call: a function of an arity that no array of the package can hold.
HUGE = {
    "FunctionTable": lambda n: FunctionTable(n, SIZE, [0]),
    "NormalForm": lambda n: NormalForm(n, (0,)),
    "to_normal_form": lambda n: to_normal_form(L, io.parse_polynomial(f"(var {n - 1})")),
    "enumerate_capacities": lambda n: list(enumerate_capacities(L, n)),
    "compare_formulations": lambda n: compare_formulations(L, n),
    "to_table": lambda n: to_table(L, WeightedPolynomial(n, Projection(0))),
    "verify_equivalence_suite": lambda n: verify_equivalence_suite(L, n),
}


@pytest.mark.parametrize("name", HUGE)
def test_a_huge_arity_names_the_limit(name):
    """These formatted a count of tens of thousands of digits into their
    message and raised a raw ValueError; the arity alone now rules the
    array out, before the count is formed."""
    limit = f"more than {tables.MAX_ENTRIES} entries, the limit"
    with pytest.raises(TooLarge, match=limit):
        HUGE[name](10 ** 5)


def test_a_one_element_table_of_any_arity_is_valid():
    assert FunctionTable(10 ** 5, 1, [0]).values == (0,)


def test_function_table_identity_is_its_arity_size_and_values():
    """repr shows arity and size only; equality and hash are those of the
    triple, for checked and unchecked tables alike."""
    f = FunctionTable(2, 2, [0, 0, 0, 1])
    g = FunctionTable._unchecked(2, 2, (0, 0, 0, 1))
    assert repr(f) == repr(g) == "FunctionTable(arity=2, size=2)"
    assert f == g and hash(f) == hash(g) == hash((2, 2, (0, 0, 0, 1)))
    assert f != FunctionTable(2, 2, [0, 0, 1, 1])
    assert f != FunctionTable(1, 4, [0, 0, 0, 1])
    assert f != (2, 2, (0, 0, 0, 1))
    assert len({f, g, FunctionTable(2, 2, np.array([0, 0, 0, 1]))}) == 1
    h = FunctionTable(np.int64(1), 3, np.array([0, 1, 2], dtype=np.uint8))
    assert h.values == (0, 1, 2) and {type(v) for v in h.values} == {int}
    assert type(h.arity) is int
    assert not hasattr(f, "__dict__")


P = direct_product([catalogue("chain(2)"), catalogue("chain(2)")])
H = horizontal_sum([L, L])
M_P = Capacity(P, (0, 1, 2, 3))
M_H = Capacity(H, (0, 1, 2, 3))
# Per call on a product or a horizontal sum: a function of the lattice in
# its first slot, and the class that slot needs.
CONSTRUCTIONS = {
    "product_decomposition_check":
        (lambda v: product_decomposition_check(v, M_P), "ProductLattice"),
    "project_capacity": (lambda v: project_capacity(v, M_P, 0), "ProductLattice"),
    "horizontal_sum_decomposition_check":
        (lambda v: horizontal_sum_decomposition_check(v, M_H), "HorizontalSumLattice"),
    "split_capacity": (lambda v: split_capacity(v, M_H, 0), "HorizontalSumLattice"),
}


@pytest.mark.parametrize("value", ["chain(3)", "boolean(2)", "product", "sum"])
@pytest.mark.parametrize("name", CONSTRUCTIONS)
def test_a_construction_call_needs_its_kind_of_lattice(name, value):
    """These raised a raw AttributeError on ``tuples``, ``factors`` or
    ``summands``; boolean(2) has the order of the product, but no factors."""
    call, kind = CONSTRUCTIONS[name]
    lattice = {"product": P, "sum": H}.get(value) or catalogue(value)
    if type(lattice).__name__ == kind:
        assert call(lattice) is not None
    else:
        with pytest.raises(InvalidArgument, match=f"expected a {kind}"):
            call(lattice)


@pytest.mark.parametrize("name", [5, b"x"], ids=repr)
def test_a_lattice_name_that_is_not_a_str_is_rejected(name):
    """A factor named 5 made direct_product and horizontal_sum raise a raw
    TypeError from joining the factor names."""
    for build in (Lattice, build_from_covers):
        with pytest.raises(InvalidArgument, match="name"):
            build(2, [(0, 1)], name=name)
    assert build_from_covers(2, [(0, 1)]).name is None
    assert direct_product([build_from_covers(2, [(0, 1)], name="two")] * 2).name \
        == "two*two"


# chain(4) and its reverse have the size of boolean(2), of the product P and
# of the sum H, but other orders.
C4 = catalogue("chain(4)")
FOREIGN = Capacity(C4, (0, 0, 0, 0, 1, 1, 2, 3))
# Per call: a function of the lattice a capacity is used with.
CAPACITY_CALLS = {
    "sugeno_eval": lambda v, m: sugeno_eval(v, m, (1,) * m.arity),
    "eval_normal_form": lambda v, m: eval_normal_form(v, m, (2,) * m.arity),
    "sugeno_eval_levels": lambda v, m: sugeno_eval_levels(v, m, (1,) * m.arity),
    "sugeno_eval_pointwise": lambda v, m: sugeno_eval_pointwise(v, m, (1,) * m.arity),
    "sugeno_table": sugeno_table,
    "check_idempotent": check_idempotent,
    "check_min_homogeneous": check_min_homogeneous,
    "check_comonotone_maxitive": check_comonotone_maxitive,
    "check_horizontally_maxitive": check_horizontally_maxitive,
}


@pytest.mark.parametrize("name", CAPACITY_CALLS)
def test_a_capacity_of_another_lattice_is_rejected(name):
    """A chain(4) capacity that boolean(2) rejects as not monotone used to
    be integrated on boolean(2) all the same."""
    call = CAPACITY_CALLS[name]
    for other in (catalogue("boolean(2)"), relabelled(C4, None)):
        with pytest.raises(LatcongError):
            call(other, FOREIGN)
    with pytest.raises(ForeignElement, match="capacity over Lattice"):
        call(relabelled(C4, None), FOREIGN)
    call(C4, FOREIGN)
    call(relabelled(C4, None), Capacity(relabelled(C4, None), (3, 3, 3, 0)))


def test_a_capacity_of_another_lattice_is_rejected_by_the_constructions():
    m = Capacity(C4, (0, 1, 2, 3))
    for call in (lambda: product_decomposition_check(P, m),
                 lambda: project_capacity(P, m, 1),
                 lambda: horizontal_sum_decomposition_check(H, m),
                 lambda: split_capacity(H, m, 0)):
        with pytest.raises(ForeignElement, match="capacity over Lattice"):
            call()


def test_a_capacity_of_an_equal_lattice_is_accepted():
    """boolean(2) and chain(2)*chain(2) are the same order under two names."""
    B2 = catalogue("boolean(2)")
    m = Capacity(B2, (0, 1, 2, 3))
    assert B2 == P and B2 is not P
    assert sugeno_table(P, m) == sugeno_table(B2, m)
    assert sugeno_eval(P, m, (1, 2)) == sugeno_eval(B2, m, (1, 2)) == 3
    assert check_idempotent(P, m) and check_min_homogeneous(P, m)
    assert product_decomposition_check(P, m)
    assert project_capacity(P, m, 0) == Capacity(catalogue("chain(2)"), (0, 0, 1, 1))
    assert sugeno_eval is eval_normal_form
