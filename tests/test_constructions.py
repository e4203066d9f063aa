import itertools

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
from latcong.errors import NotDistributive, ValidationError
from latcong.lattice import catalogue, is_isomorphic
from latcong.sugeno import Capacity, enumerate_capacities, sugeno_eval


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
    for u in itertools.product(range(P.size), repeat=m.arity):
        whole = P.tuples[oracles.sugeno_by_subsets(P, m.coefficients, u)]
        for k, factor in enumerate(P.factors):
            projected = [P.tuples[v][k] for v in source.coefficients]
            uk = tuple(P.tuples[v][k] for v in u)
            if whole[k] != oracles.sugeno_by_subsets(factor, projected, uk):
                return False
    return True


def _sum_splits(H, m, source):
    """Oracle: the horizontal-sum check point by point through the subset
    oracle, with the summand capacities split from ``source``."""
    for u in itertools.product(range(H.size), repeat=m.arity):
        parts = H.bottom
        for k, summand in enumerate(H.summands):
            back = H.preimages[k]
            split = [back.get(v, summand.bottom) for v in source.coefficients]
            uk = tuple(back.get(v, summand.bottom) for v in u)
            part = oracles.sugeno_by_subsets(summand, split, uk)
            parts = H.join(parts, H.embeddings[k][part])
        if parts != oracles.sugeno_by_subsets(H, m.coefficients, u):
            return False
    return True


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
    monkeypatch.setattr(constructions, "project_capacity",
                        lambda P, m, k: project_capacity(P, other, k))
    verdicts = [product_decomposition_check(P, m) for m in capacities]
    assert verdicts == [_product_splits(P, m, other) for m in capacities]
    assert set(verdicts) == {True, False}


@pytest.mark.parametrize("names", SUMS)
def test_sum_check_catches_a_wrong_split(monkeypatch, names):
    """Summand integrals of another capacity: both verdicts, as the oracle says."""
    H = horizontal_sum([relabelled(catalogue(name), 3) for name in names])
    capacities = list(enumerate_capacities(H, 2))
    other = capacities[len(capacities) // 2]
    monkeypatch.setattr(constructions, "split_capacity",
                        lambda H, m, k: split_capacity(H, other, k))
    verdicts = [horizontal_sum_decomposition_check(H, m, report_only=True)
                for m in capacities]
    assert verdicts == [_sum_splits(H, m, other) for m in capacities]
    assert set(verdicts) == {True, False}
