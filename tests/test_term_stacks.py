"""Stacked term lowering and AC11's stack verdicts, against the oracles.

``polynomials._code_rows`` lowers a whole list of term codes by height, and
``_term_rows`` lowers term objects through their codes.  AC11 draws codes
and counts its failures from one lowering and one pass of each kernel per
stack of codes of one arity; a check that reports "0 failures" whether or
not its kernels run shows nothing, so the kernels are also run on tables
that fail.
"""

import hashlib
import itertools
import random

import numpy as np
import pytest

import oracles
from conftest import relabelled
from latcong import io, polynomials, verify
from latcong.compat import _compatible_rows
from latcong.errors import ArityMismatch, ForeignElement, InvalidArgument
from latcong.lattice import catalogue
from latcong.polynomials import Constant, Join, Meet, Projection, \
    WeightedPolynomial, _code_rows, _monotone_rows, _term, _term_rows, \
    evaluate, random_polynomial, to_normal_form, to_table
from latcong.tables import FunctionTable, _plan

LATTICES = {name: catalogue(name) for name in ("chain(3)", "boolean(2)", "N5", "M3")}
LATTICES["boolean(2) relabelled"] = relabelled(catalogue("boolean(2)"), 3)


def _grid(L, n):
    return list(itertools.product(range(L.size), repeat=n))


def _exact_term(rng, depth, leaf):
    """A random node of exactly this depth."""
    if depth == 0:
        return leaf()
    kids = [_exact_term(rng, depth - 1, leaf),
            _exact_term(rng, rng.randrange(depth), leaf)]
    rng.shuffle(kids)
    return rng.choice((Meet, Join))(*kids)


def _mixed_terms(L, n, seed):
    """Terms of arity n of every depth 0-6, with and without projections,
    shuffled into one stack."""
    rng = random.Random(seed)

    def constant():
        return Constant(rng.randrange(L.size))

    def leaf():
        return Projection(rng.randrange(n)) if n and rng.random() < 0.5 \
            else constant()

    terms = [WeightedPolynomial(n, _exact_term(rng, depth, chooser))
             for depth in range(7) for chooser in (leaf, constant)]
    if n:
        terms += [random_polynomial(rng, n, L.size, max_depth=rng.randint(0, 6))
                  for _ in range(10)]
    rng.shuffle(terms)
    return terms


def _oracle_rows(L, terms, n):
    return [[oracles.evaluate_term(L, p.root, x) for x in _grid(L, n)] for p in terms]


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("name", sorted(LATTICES))
def test_stacked_lowering_matches_recursive_evaluation(name, n):
    L = LATTICES[name]
    terms = _mixed_terms(L, n, f"{name} {n}")
    rows = _term_rows(_plan(L, n), terms)
    assert rows.shape == (len(terms), L.size ** n)
    assert rows.tolist() == _oracle_rows(L, terms, n)
    for p, row in zip(terms, rows.tolist()):
        assert to_table(L, p).values == tuple(row), p


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_lowering_a_slice_of_inputs_at_a_time(name, monkeypatch):
    """A node buffer too small for all inputs lowers them in slices."""
    L = LATTICES[name]
    terms = _mixed_terms(L, 2, name)
    monkeypatch.setattr(polynomials, "_NODE_ENTRIES", 3 * len(terms))
    assert _term_rows(_plan(L, 2), terms).tolist() == _oracle_rows(L, terms, 2)


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_single_term_paths_match_oracle(name):
    L = LATTICES[name]
    for n in (0, 1, 2):
        for p in _mixed_terms(L, n, name):
            vertices = itertools.product((L.bottom, L.top), repeat=n)
            assert to_normal_form(L, p).coefficients == tuple(
                oracles.evaluate_term(L, p.root, x[::-1]) for x in vertices), p
            for x in _grid(L, n):
                assert evaluate(L, p, x) == oracles.evaluate_term(L, p.root, x)


def test_empty_stack_lowers_to_no_rows():
    assert _term_rows(_plan(catalogue("chain(3)"), 2), []).shape == (0, 9)


@pytest.mark.parametrize("value", [3, 4, -1, 100])
@pytest.mark.parametrize("op", [Meet, Join])
def test_foreign_constant_in_last_term_raises(op, value):
    """Row n + 3 would be a meet or join row on chain(3), and past the meet
    half of the stacked tables; the check comes before any gather."""
    L = catalogue("chain(3)")
    terms = _mixed_terms(L, 1, "foreign")
    terms.append(WeightedPolynomial(1, op(Projection(0), Constant(value))))
    with pytest.raises(ForeignElement):
        _term_rows(_plan(L, 1), terms)
    with pytest.raises(ForeignElement):
        to_table(L, terms[-1])


def test_stack_of_another_arity_raises():
    """Projection 2 of a ternary term would read constant 1's row at arity 1."""
    L = catalogue("chain(3)")
    terms = [WeightedPolynomial(1, Projection(0)), WeightedPolynomial(3, Projection(2))]
    with pytest.raises(ArityMismatch):
        _term_rows(_plan(L, 1), terms)


# --- malformed arguments ----------------------------------------------------------


@pytest.mark.parametrize("lower", [
    lambda L, p: to_table(L, p),
    lambda L, p: evaluate(L, p, (0,)),
    lambda L, p: to_normal_form(L, p),
])
@pytest.mark.parametrize("p", ["x", None, Projection(0), 3])
def test_lowering_rejects_what_is_not_a_polynomial(lower, p):
    with pytest.raises(InvalidArgument):
        lower(catalogue("chain(3)"), p)


@pytest.mark.parametrize("root", ["x", None, 1, Meet(Projection(0), "x"),
                                  Join(Constant(1), Meet(Projection(0), (0, 1)))])
def test_polynomial_rejects_foreign_nodes(root):
    with pytest.raises(InvalidArgument):
        WeightedPolynomial(1, root)


def test_lowering_rejects_a_foreign_node_it_walks():
    """The walk's own branch, for a tree changed after it was checked."""
    p = WeightedPolynomial(1, Meet(Projection(0), Constant(1)))
    object.__setattr__(p.root, "right", "x")
    with pytest.raises(InvalidArgument):
        _term_rows(_plan(catalogue("chain(3)"), 1), [p])


@pytest.mark.parametrize("root,error,message", [
    (Projection(-1), ArityMismatch, "^negative projection index -1$"),
    (Projection(2), ArityMismatch, "^projection 2 exceeds declared arity 2$"),
    (Join(Projection(5), Projection(-1)), ArityMismatch, "^projection 5 exceeds"),
    (Meet(Projection(-3), Projection(5)), ArityMismatch, "^negative projection index -3$"),
    (Projection(1.0), InvalidArgument, "projection index must be an int"),
    (Join(Projection(0), Projection(True)), InvalidArgument,
     "projection index must be an int"),
    (Meet(Projection(0), Constant(False)), InvalidArgument, "constant must be an int"),
    (Constant("1"), InvalidArgument, "constant must be an int"),
])
def test_construction_checks_every_leaf(root, error, message):
    """The first bad leaf in preorder is named."""
    with pytest.raises(error, match=message):
        WeightedPolynomial(2, root)


@pytest.mark.parametrize("side", ["left", "right"])
def test_a_spine_of_5000_operators_builds_and_lowers(side):
    """x ^ 1 v 1 ^ 1 ... is 1 everywhere on chain(3).  The recursive arity
    walk raised RecursionError on building it."""
    node = Projection(0)
    for k in range(5000):
        op = Meet if k % 2 == 0 else Join
        node = op(node, Constant(1)) if side == "left" else op(Constant(1), node)
    p = WeightedPolynomial(1, node)
    L = catalogue("chain(3)")
    assert to_table(L, p).values == (1, 1, 1)
    assert [evaluate(L, p, (x,)) for x in range(3)] == [1, 1, 1]
    assert to_normal_form(L, p).coefficients == (1, 1)


@pytest.mark.parametrize("code", [
    [4], [5], [0, 7], [-1, 0, 5],  # a leaf past the constants of chain(3) at n = 1
    [], [-1, 0], [-2, -1, 0, 1], [-1],  # an operator short of operands
    [0, 1], [-1, 0, 1, 2],  # operands left over
    [-3, 0, 1],  # no such operator
])
def test_malformed_code_raises_before_any_gather(code):
    """Rows 4-6 are the meets and joins of the good codes before it, so a
    leaf 4 or 5 would read another term's node."""
    L = catalogue("chain(3)")
    good = [[-1, 0, 1], [-2, -1, 0, 3, 2], [3]]
    assert _code_rows(_plan(L, 1), good).tolist() == [[0, 0, 0], [1, 1, 2], [2, 2, 2]]
    with pytest.raises(InvalidArgument, match="not a term code of arity 1 on 3"):
        _code_rows(_plan(L, 1), good + [code])


def test_random_polynomial_keeps_its_rng_stream():
    """The terms drawn and the generator state after each draw, for seeds
    0-49, arities 1-5, lattice sizes 1-6 and depths 0-6, one generator per
    seed: the draw through codes must consume the stream as the recursive
    draw of term objects did."""
    digest = hashlib.sha256()
    for seed in range(50):
        rng = random.Random(seed)
        for n, size, depth in itertools.product(range(1, 6), range(1, 7), range(7)):
            p = random_polynomial(rng, n, size, max_depth=depth)
            digest.update(io.serialize_polynomial(p).encode())
            digest.update(repr(rng.getstate()).encode())
    assert digest.hexdigest() \
        == "936ac596c88f2c450aba16240b05f635992395a6ea4f5cbfb806e54844ef141e"


@pytest.mark.parametrize("arity,size", [(0, 3), (-1, 3), (2, 0), (1, -2), (0, 0)])
def test_random_polynomial_rejects_empty_ranges_before_drawing(arity, size):
    for seed in range(20):
        rng = random.Random(seed)
        state = rng.getstate()
        with pytest.raises(InvalidArgument):
            random_polynomial(rng, arity, size)
        assert rng.getstate() == state


# --- AC11 ---------------------------------------------------------------------------


def test_ac11_sample_is_pinned():
    """The terms AC11 draws, in draw order: the grouping by arity must not
    change what is sampled."""
    lines = [f"{name} {n} {io.serialize_polynomial(_term(n, code)).strip()}"
             for name in ("chain(3)", "boolean(2)")
             for n, code in verify._random_codes(catalogue(name))]
    assert len(lines) == 2000
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() \
        == "1841357d37d6b5f12fded24e118ce616b5250fac664f854d9c785d67816bd2c5"


def _perturbed_stack(L, n, seed):
    """Lowered random terms, one output changed in every other row."""
    rng = random.Random(seed)
    terms = [random_polynomial(rng, n, L.size, max_depth=3) for _ in range(24)]
    stack = _term_rows(_plan(L, n), terms)
    for row in stack[::2]:
        row[rng.randrange(len(row))] = rng.randrange(L.size)
    return stack


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", ["chain(3)", "boolean(2)", "N5", "M3"])
def test_ac11_row_verdicts_match_oracles(name, n):
    L = LATTICES[name]
    stack = _perturbed_stack(L, n, f"{name} {n}")
    tables = [FunctionTable(n, L.size, row) for row in stack.tolist()]
    monotone = [oracles.is_monotone_all_pairs(L, f) for f in tables]
    compatible = [oracles.is_compatible_all_tuples(L, f) for f in tables]
    assert _monotone_rows(_plan(L, n), stack).tolist() == monotone
    assert _compatible_rows(_plan(L, n), stack).tolist() == compatible
    both = [m and c for m, c in zip(monotone, compatible)]
    assert verify._polynomial_verdicts(L, n, stack).tolist() == both
    assert True in both and False in both


def test_ac11_stacks_partition_the_sample():
    L = catalogue("boolean(2)")
    sample = list(verify._random_codes(L))
    groups = list(verify._code_groups(L))
    # One group per arity, holding exactly the codes drawn with it.
    assert sorted(n for n, group in groups) == [1, 2, 3]
    for n, group in groups:
        assert group == [code for m, code in sample if m == n]


def test_ac11_counts_the_rows_its_kernels_reject(monkeypatch):
    """Breaking the first lowered table of each stack (top at the
    all-bottom input, bottom at the all-top one) fails one term per stack."""

    def broken(plan, codes):
        stack = _code_rows(plan, codes)
        stack[0, 0], stack[0, -1] = plan.lattice.top, plan.lattice.bottom
        return stack

    stacks = sum(len(list(verify._code_groups(catalogue(name))))
                 for name in ("chain(3)", "boolean(2)"))
    monkeypatch.setattr(verify, "_code_rows", broken)
    result = verify.check_polynomial_compatibility()
    assert not result.passed
    assert result.detail == f"{stacks} failures over 2000 sampled terms"
    assert stacks == 6


@pytest.mark.parametrize("name", ["chain(3)", "boolean(2)"])
def test_ac11_code_stacks_match_decoded_terms(name):
    """Every code AC11 draws lowers to the rows of its decoded term, through
    the object lowering and through the recursive oracle."""
    L = catalogue(name)
    total = 0
    for n, codes in verify._code_groups(L):
        plan = _plan(L, n)
        terms = [_term(n, code) for code in codes]
        stack = _code_rows(plan, codes)
        assert stack.tolist() == _term_rows(plan, terms).tolist()
        assert stack.tolist() == _oracle_rows(L, terms, n)
        total += len(codes)
    assert total == 1000


def test_ac11_builds_no_term_objects(monkeypatch):
    """AC11 lowers the codes it draws: no node, no polynomial, no arity walk."""
    built = []

    def counting(cls):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            built.append(cls.__name__)
            init(self, *args, **kwargs)
        return counted

    for cls in (Projection, Constant, Meet, Join, WeightedPolynomial):
        monkeypatch.setattr(cls, "__init__", counting(cls))
    monkeypatch.setattr(polynomials, "_code",
                        lambda root, n, constants: built.append("_code"))
    Meet(Projection(0), Constant(1))
    assert built == ["Projection", "Constant", "Meet"]
    built.clear()
    result = verify.check_polynomial_compatibility()
    assert result.passed and result.detail == "0 failures over 2000 sampled terms"
    assert built == []


def test_monotone_kernel_on_one_row_is_the_stack_verdict():
    L = catalogue("N5")
    stack = _perturbed_stack(L, 2, "one row")
    plan = _plan(L, 2)
    assert [bool(_monotone_rows(plan, row)) for row in stack] \
        == _monotone_rows(plan, stack).tolist()
    assert np.asarray(_monotone_rows(plan, stack[0])).shape == ()
