import itertools
import random
import time

import numpy as np
import pytest

import oracles
from conftest import relabelled
from latcong import constructions
from latcong.constructions import (
    direct_product,
    horizontal_sum,
    horizontal_sum_decomposition_check,
    product_decomposition_check,
    project_capacity,
    split_capacity,
)
from latcong.errors import ForeignElement, InvalidArgument, NotDistributive, \
    TooLarge, ValidationError
from latcong.lattice import catalogue, is_isomorphic
from latcong.sugeno import Capacity, enumerate_capacities, sugeno_eval
from latcong.tables import row_dtype


def test_product_of_two_chains_is_square(c2, b2):
    P = direct_product([c2, c2])
    assert P.size == 4
    assert is_isomorphic(P, b2)
    assert P.is_distributive


def test_product_with_singleton_factor(c3):
    one = catalogue("chain(1)")
    P = direct_product([c3, one])
    assert is_isomorphic(P, c3)


def test_product_size_and_distributivity(c2, c3):
    P = direct_product([c2, c3])
    assert P.size == 6
    assert P.is_distributive


def _lattice(spec):
    """A catalogue lattice, renumbered after '@': 'rev' reverses, a number
    seeds a shuffle."""
    name, _, how = spec.partition("@")
    L = catalogue(name)
    if not how:
        return L
    return relabelled(L, None if how == "rev" else int(how))


def test_product_operations_are_componentwise():
    for specs in (("chain(2)", "chain(3)"), ("N5@rev", "chain(3)@5"),
                  ("M3", "boolean(2)@7"), ("chain(2)@rev", "N5@3", "M3@rev")):
        factors = [_lattice(s) for s in specs]
        P = direct_product(factors)
        covers = set(P.covers)
        for i, j in itertools.product(range(P.size), repeat=2):
            x, y = P.tuples[i], P.tuples[j]
            pairs = list(zip(factors, x, y))
            assert P.leq(i, j) == all(f.leq(a, b) for f, a, b in pairs)
            assert P.tuples[P.meet(i, j)] == tuple(f.meet(a, b) for f, a, b in pairs)
            assert P.tuples[P.join(i, j)] == tuple(f.join(a, b) for f, a, b in pairs)
            # y covers x when one coordinate steps along a cover of its factor
            moved = [(f, a, b) for f, a, b in pairs if a != b]
            assert ((i, j) in covers) == (
                len(moved) == 1 and moved[0][1:] in moved[0][0].covers)


@pytest.mark.parametrize("names,expected", [
    (("chain(2)", "chain(3)"), True),
    (("chain(2)", "M3"), False),
    (("N5", "chain(2)"), False),
    (("chain(3)", "boolean(2)"), True),
])
def test_product_distributivity_is_conjunction(names, expected):
    P = direct_product([catalogue(n) for n in names])
    assert P.is_distributive == expected


@pytest.mark.parametrize("construction,specs", [
    (direct_product, ("chain(2)", "chain(3)")),
    (direct_product, ("N5@rev", "chain(3)@5")),
    (direct_product, ("M3", "boolean(2)@7")),
    (direct_product, ("chain(2)@rev", "N5@3", "M3@rev")),
    (direct_product, ("chain(2)", "M3")),
    (direct_product, ("chain(3)", "boolean(2)")),
    (direct_product, ("chain(3)@rev", "chain(3)@2", "chain(3)")),
    (horizontal_sum, ("chain(3)", "chain(3)")),
    (horizontal_sum, ("chain(3)", "chain(3)", "chain(3)")),
    (horizontal_sum, ("chain(4)", "chain(4)")),
    (horizontal_sum, ("N5@rev", "M3@4")),
    (horizontal_sum, ("M3@rev", "chain(2)", "boolean(2)@9", "N5@2")),
])
def test_distributivity_matches_triple_law(construction, specs):
    L = construction([_lattice(s) for s in specs])
    assert L.is_distributive == oracles.is_distributive_triples(L)


def test_horizontal_sum_of_two_chains(b2):
    H = horizontal_sum([catalogue("chain(3)"), catalogue("chain(3)")])
    assert H.size == 4
    assert is_isomorphic(H, b2)
    assert H.is_distributive
    assert H.provenance == (None, 0, 1, None)


def test_horizontal_sum_of_three_chains_is_diamond(m3):
    H = horizontal_sum([catalogue("chain(3)")] * 3)
    assert is_isomorphic(H, m3)
    assert not H.is_distributive


def test_horizontal_sum_with_two_element_summand(c3):
    H = horizontal_sum([catalogue("chain(2)"), c3])
    assert is_isomorphic(H, c3)


def test_horizontal_sum_interiors_are_incomparable():
    H = horizontal_sum([catalogue("chain(4)"), catalogue("chain(4)")])
    interiors = [e for e in range(H.size) if H.provenance[e] is not None]
    for x, y in itertools.permutations(interiors, 2):
        if H.provenance[x] != H.provenance[y]:
            assert not H.leq(x, y)
            assert H.join(x, y) == H.top
            assert H.meet(x, y) == H.bottom


def test_horizontal_sum_preserves_summand_order():
    for specs in (("chain(4)", "chain(4)"), ("N5@rev", "M3@4"),
                  ("M3@rev", "chain(2)", "boolean(2)@9", "N5@2")):
        summands = [_lattice(s) for s in specs]
        H = horizontal_sum(summands)
        for S, emb in zip(summands, H.embeddings):
            for a, b in itertools.product(range(S.size), repeat=2):
                assert H.leq(emb[a], emb[b]) == S.leq(a, b)
                assert H.meet(emb[a], emb[b]) == emb[S.meet(a, b)]
                assert H.join(emb[a], emb[b]) == emb[S.join(a, b)]


def test_long_horizontal_sum_is_not_distributive():
    H = horizontal_sum([catalogue("chain(4)"), catalogue("chain(4)")])
    assert not H.is_distributive
    # witness: a2 ^ (a1 v b1) = a2 but (a2 ^ a1) v (a2 ^ b1) = a1
    a1, a2 = H.embeddings[0][1], H.embeddings[0][2]
    b1 = H.embeddings[1][1]
    assert H.meet(a2, H.join(a1, b1)) == a2
    assert H.join(H.meet(a2, a1), H.meet(a2, b1)) == a1


def test_empty_constructions_rejected():
    with pytest.raises(ValidationError):
        direct_product([])
    with pytest.raises(ValidationError):
        horizontal_sum([])
    with pytest.raises(ValidationError):
        horizontal_sum([catalogue("chain(1)")])


def test_a_product_above_the_size_limit_is_refused_before_it_is_listed():
    """chain(512)^2 x chain(2) would list 524 288 tuples and their covers."""
    factors = [catalogue("chain(512)")] * 2 + [catalogue("chain(2)")]
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="^524288 elements exceed the limit of 512$"):
        direct_product(factors)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("build,parts", [
    (direct_product, [1, 2]), (direct_product, 5), (horizontal_sum, ["chain(2)"]),
    (horizontal_sum, None)])
def test_constructions_of_what_is_not_a_lattice_rejected(build, parts):
    with pytest.raises(InvalidArgument, match="must be"):
        build(parts)


@pytest.mark.parametrize("k", [2, -1, 1.5, True])
def test_part_outside_the_factors_or_summands_rejected(c2, k):
    P = direct_product([c2, c2])
    with pytest.raises(InvalidArgument, match="factor"):
        project_capacity(P, next(iter(enumerate_capacities(P, 1))), k)
    H = horizontal_sum([catalogue("chain(3)"), catalogue("chain(3)")])
    with pytest.raises(InvalidArgument, match="summand"):
        split_capacity(H, next(iter(enumerate_capacities(H, 1))), k)


@pytest.mark.parametrize("k", [2, -1, 1.5, True])
def test_coordinate_and_summand_queries_check_k(c3, k):
    """A negative k used to read the last factor, and a k past the
    summands raised a raw IndexError."""
    P = direct_product([c3, c3])
    H = horizontal_sum([c3, c3])
    with pytest.raises(InvalidArgument, match="factor"):
        P.component(4, k)
    for query in (H.belongs_to, H.to_summand):
        with pytest.raises(InvalidArgument, match="summand"):
            query(1, k)


@pytest.mark.parametrize("element", [-1, 9, 1.5, True])
def test_coordinate_and_summand_queries_check_the_element(c3, element):
    P = direct_product([c3, c3])
    H = horizontal_sum([c3, c3])
    for query in (P.component, H.belongs_to, H.to_summand):
        with pytest.raises((ForeignElement, InvalidArgument), match="element"):
            query(element, 0)


def test_coordinate_and_summand_queries_answer(c3):
    P = direct_product([c3, c3])
    H = horizontal_sum([c3, c3])
    assert [P.component(np.int64(5), k) for k in (0, np.uint8(1))] == [1, 2]
    assert [H.belongs_to(1, k) for k in (0, 1)] == [True, False]
    assert [H.to_summand(1, k) for k in (0, 1)] == [1, 0]
    assert [H.to_summand(H.top, k) for k in (0, 1)] == [2, 2]


def test_capacity_projection(c2, c3):
    P = direct_product([c2, c3])
    m = next(iter(enumerate_capacities(P, 2)))
    for k, factor in enumerate((c2, c3)):
        mk = project_capacity(P, m, k)
        assert mk.coefficients == tuple(P.tuples[v][k] for v in m.coefficients)


@pytest.mark.parametrize("names", [("chain(2)", "chain(2)"),
                                   ("chain(2)", "chain(3)")])
def test_product_decomposition_all_capacities(names):
    P = direct_product([catalogue(n) for n in names])
    for m in enumerate_capacities(P, 2):
        assert product_decomposition_check(P, m)


def test_product_decomposition_constant_inputs(c2, c3):
    P = direct_product([c2, c3])
    m = next(iter(enumerate_capacities(P, 2)))
    for c in range(P.size):
        assert sugeno_eval(P, m, (c, c)) == c


def test_split_capacity_values():
    H = horizontal_sum([catalogue("chain(3)"), catalogue("chain(3)")])
    m = Capacity(H, (H.bottom, 1, 2, H.top))  # one interior from each summand
    m0 = split_capacity(H, m, 0)
    m1 = split_capacity(H, m, 1)
    assert m0.coefficients == (0, 1, 0, 2)  # the summand-1 interior drops to bottom
    assert m1.coefficients == (0, 0, 1, 2)


def test_horizontal_sum_decomposition_all_capacities():
    H = horizontal_sum([catalogue("chain(3)"), catalogue("chain(3)")])
    count = 0
    for m in enumerate_capacities(H, 2):
        count += 1
        assert horizontal_sum_decomposition_check(H, m)
    assert count == 16


def test_decompositions_hold_at_arity_three():
    P = direct_product([catalogue("chain(2)"), catalogue("chain(2)")])
    for m in enumerate_capacities(P, 3):
        assert product_decomposition_check(P, m)
    H = horizontal_sum([catalogue("chain(3)"), catalogue("chain(3)")])
    for m in enumerate_capacities(H, 3):
        assert horizontal_sum_decomposition_check(H, m)


def test_three_factor_product_decomposition():
    P = direct_product([catalogue("chain(2)")] * 3)
    assert P.size == 8
    for m in enumerate_capacities(P, 2):
        assert product_decomposition_check(P, m)


def test_three_summand_distributive_sum_decomposition():
    # only chains of length <= 3 glue distributively, and extra 2-chains
    # contribute nothing, so this is the degenerate but valid case
    H = horizontal_sum([catalogue("chain(2)"), catalogue("chain(3)"),
                        catalogue("chain(2)")])
    assert H.is_distributive
    for m in enumerate_capacities(H, 2):
        assert horizontal_sum_decomposition_check(H, m)


def test_horizontal_sum_decomposition_single_summand_inputs():
    H = horizontal_sum([catalogue("chain(3)"), catalogue("chain(3)")])
    a = H.embeddings[0][1]
    m = Capacity(H, (H.bottom, a, a, H.top))
    assert sugeno_eval(H, m, (a, a)) == a


def test_non_distributive_sum_refuses():
    H = horizontal_sum([catalogue("chain(4)"), catalogue("chain(4)")])
    m = Capacity(H, (H.bottom, H.bottom, H.bottom, H.top))
    with pytest.raises(NotDistributive):
        horizontal_sum_decomposition_check(H, m)
    # report-only mode still runs and returns a verdict
    assert horizontal_sum_decomposition_check(H, m, report_only=True) in (
        True, False)


def test_constructed_lattices_serialize():
    from latcong import io
    P = direct_product([catalogue("chain(2)"), catalogue("chain(3)")])
    H = horizontal_sum([catalogue("chain(3)"), catalogue("chain(3)")])
    for L in (P, H):
        back = io.parse_lattice(io.serialize_lattice(L))
        assert back == L
        assert back.name == L.name


def _product_splits(P, m, source):
    """Oracle: the product check point by point through the subset oracle,
    with the factor capacities projected from ``source``."""
    return oracles.product_splits(P, m.coefficients, [
        oracles.projection(P, source.coefficients, k) for k in range(len(P.factors))])


def _sum_splits(H, m, source):
    """Oracle: the horizontal-sum check point by point through the subset
    oracle, with the summand capacities split from ``source``."""
    return oracles.sum_splits(H, m.coefficients, [
        oracles.summand_share(H, source.coefficients, k) for k in range(len(H.summands))])


PRODUCTS = [(("chain(2)", "chain(3)"), 2), (("N5", "chain(2)"), 2),
            (("chain(2)", "chain(2)"), 3)]
# The splitting was seen to hold on these non-distributive sums too.
SUMS = [("chain(3)", "chain(3)"), ("chain(4)", "chain(4)"), ("chain(4)", "M3")]


@pytest.mark.parametrize("names,n", PRODUCTS)
def test_product_check_matches_oracle(names, n):
    P = direct_product([relabelled(catalogue(name), 3) for name in names])
    for m in enumerate_capacities(P, n):
        assert product_decomposition_check(P, m) == _product_splits(P, m, m)


@pytest.mark.parametrize("names", SUMS)
def test_sum_check_matches_oracle(names):
    H = horizontal_sum([relabelled(catalogue(name), 3) for name in names])
    for m in enumerate_capacities(H, 2):
        assert horizontal_sum_decomposition_check(H, m, report_only=True) \
            == _sum_splits(H, m, m)


@pytest.mark.parametrize("names,n", PRODUCTS[:2])
def test_product_check_catches_a_wrong_projection(monkeypatch, names, n):
    """Factor integrals of another capacity: both verdicts, as the oracle says."""
    P = direct_product([relabelled(catalogue(name), 3) for name in names])
    capacities = list(enumerate_capacities(P, n))
    other = capacities[len(capacities) // 2]
    part_rows = constructions._part_rows
    monkeypatch.setattr(constructions, "_part_rows",
                        lambda P, rows: part_rows(P, np.array([other.coefficients])))
    verdicts = [product_decomposition_check(P, m) for m in capacities]
    assert verdicts == [_product_splits(P, m, other) for m in capacities]
    assert set(verdicts) == {True, False}


@pytest.mark.parametrize("names", SUMS)
def test_sum_check_catches_a_wrong_split(monkeypatch, names):
    """Summand integrals of another capacity: both verdicts, as the oracle says."""
    H = horizontal_sum([relabelled(catalogue(name), 3) for name in names])
    capacities = list(enumerate_capacities(H, 2))
    other = capacities[len(capacities) // 2]
    part_rows = constructions._part_rows
    monkeypatch.setattr(constructions, "_part_rows",
                        lambda H, rows: part_rows(H, np.array([other.coefficients])))
    verdicts = [horizontal_sum_decomposition_check(H, m, report_only=True)
                for m in capacities]
    assert verdicts == [_sum_splits(H, m, other) for m in capacities]
    assert set(verdicts) == {True, False}


# --- the part maps ------------------------------------------------------------

# (construction, part names, seed of the relabelling; None reverses each chain)
PART_MAPS = [(direct_product, ("chain(2)", "chain(3)"), 3),
             (direct_product, ("chain(3)", "chain(2)"), None),
             (direct_product, ("chain(2)", "N5", "chain(3)"), 4),
             (horizontal_sum, ("chain(4)", "M3"), 5),
             (horizontal_sum, ("chain(2)", "chain(3)", "chain(3)"), None)]


@pytest.mark.parametrize("build,names,seed", PART_MAPS)
def test_part_maps_match_the_public_attributes(build, names, seed):
    """``down_k`` is ``component`` or ``to_summand``; ``up_k`` is the
    embedding of a summand, or on a product puts every other coordinate at
    its factor's bottom, so that each element is the join of its parts."""
    X = build([relabelled(catalogue(name), seed) for name in names])
    product = build is direct_product
    parts = X.factors if product else X.summands
    assert [part for part, _, _ in X._parts] == list(parts)
    for k, (part, down, up) in enumerate(X._parts):
        read = X.component if product else X.to_summand
        assert down.tolist() == [read(e, k) for e in range(X.size)]
        if product:
            assert [X.tuples[v] for v in up.tolist()] == [
                tuple(c if j == k else f.bottom for j, f in enumerate(parts))
                for c in range(part.size)]
        else:
            assert up.tolist() == [X.embeddings[k][e] for e in range(part.size)]
    if product:
        for e in range(X.size):
            joined = X.bottom
            for _, down, up in X._parts:
                joined = X.join(joined, up[down[e]].item())
            assert joined == e


# --- the split kernels, row by row ----------------------------------------------


def _capacity_stack(L, n):
    return np.array([m.coefficients for m in enumerate_capacities(L, n)],
                    dtype=row_dtype(L.size))


def _perturbed_parts(parts, sizes, seed):
    """Copies of the part stacks with one coefficient moved to another
    element in every odd row: in the last part for rows 1, 5, 9, ..., in a
    drawn part for rows 3, 7, ...  Row 0 and the even rows stay as given."""
    rng = random.Random(seed)
    parts = [part.astype(np.intp) for part in parts]
    for r in range(1, len(parts[0]), 2):
        k = len(parts) - 1 if r % 4 == 1 else rng.randrange(len(parts))
        x = rng.randrange(parts[k].shape[1])
        parts[k][r, x] = (parts[k][r, x] + rng.randrange(1, sizes[k])) % sizes[k]
    return parts


def _assert_verdicts(verdicts, want):
    """The kernel's verdicts are the oracle's, row by row, and the oracle
    fails rows past row 0, among them rows changed only in the last part."""
    assert verdicts.tolist() == want
    assert want[0] and all(want[0::2])
    assert not all(want[1::4])


# (factor names, arity, seed of the relabelling; None reverses each chain)
PRODUCT_STACKS = [(("chain(2)", "chain(3)"), 2, 3), (("N5", "chain(2)"), 2, 4),
                  (("chain(3)", "chain(2)"), 2, None),
                  (("chain(2)", "chain(2)"), 3, None),
                  (("chain(2)", "chain(3)", "chain(2)"), 2, 6)]


@pytest.mark.parametrize("names,n,seed", PRODUCT_STACKS)
def test_product_kernel_matches_oracle_row_by_row(names, n, seed):
    P = direct_product([relabelled(catalogue(name), seed) for name in names])
    rows = _capacity_stack(P, n)
    projected = constructions._part_rows(P, rows)
    assert [part.tolist() for part in projected] == [
        [list(oracles.projection(P, row, k)) for row in rows.tolist()]
        for k in range(len(P.factors))]
    parts = _perturbed_parts(projected, [f.size for f in P.factors], seed)
    want = [oracles.product_splits(P, row, [part[r].tolist() for part in parts])
            for r, row in enumerate(rows.tolist())]
    _assert_verdicts(constructions._split_rows(P, rows, parts), want)


# (summand names, arity, seed of the relabelling; None reverses each chain)
SUM_STACKS = [(("chain(3)", "chain(3)"), 2, 3), (("chain(3)", "chain(3)"), 3, None),
              (("chain(4)", "chain(4)"), 2, None), (("chain(4)", "M3"), 2, 5),
              (("chain(2)", "chain(3)", "chain(3)"), 2, 4)]


@pytest.mark.parametrize("names,n,seed", SUM_STACKS)
def test_sum_kernel_matches_oracle_row_by_row(names, n, seed):
    H = horizontal_sum([relabelled(catalogue(name), seed) for name in names])
    rows = _capacity_stack(H, n)
    shares = constructions._part_rows(H, rows)
    assert [part.tolist() for part in shares] == [
        [list(oracles.summand_share(H, row, k)) for row in rows.tolist()]
        for k in range(len(H.summands))]
    parts = _perturbed_parts(shares, [s.size for s in H.summands], seed)
    want = [oracles.sum_splits(H, row, [part[r].tolist() for part in parts])
            for r, row in enumerate(rows.tolist())]
    _assert_verdicts(constructions._split_rows(H, rows, parts, report_only=True), want)


def test_sum_kernel_refuses_a_non_distributive_sum():
    H = horizontal_sum([catalogue("chain(4)"), catalogue("chain(4)")])
    rows = _capacity_stack(H, 2)
    with pytest.raises(NotDistributive):
        constructions._split_rows(H, rows, constructions._part_rows(H, rows))
