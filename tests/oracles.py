"""Independent brute-force oracles used to cross-check the library.

Everything here takes the slowest, most literal route on purpose: bounds
are found by scanning the order relation, congruences by filtering every
set partition through the two-pair definition, and monotonicity and
compatibility by comparing all input pairs.  None of it shares code with
the production algorithms it checks.
"""

import itertools
from functools import lru_cache

from latcong.congruences import Congruence, principal_congruence_oracle
from latcong.polynomials import Constant, Meet, Projection


class Order:
    """Reflexive-transitive closure of a cover list, grown pair by pair.

    Has the ``size`` and ``leq`` that the bound scans below need.
    """

    def __init__(self, size, covers):
        self.size = size
        self.pairs = {(a, a) for a in range(size)} | set(covers)
        while True:
            step = {(a, d) for a, b in self.pairs for c, d in self.pairs if b == c}
            if step <= self.pairs:
                break
            self.pairs |= step

    def leq(self, a, b):
        return (a, b) in self.pairs


def lower_bounds(L, a, b):
    return [c for c in range(L.size) if L.leq(c, a) and L.leq(c, b)]


def upper_bounds(L, a, b):
    return [c for c in range(L.size) if L.leq(a, c) and L.leq(b, c)]


def greatest_lower_bound(L, a, b):
    """Unique greatest element among the common lower bounds, or None."""
    candidates = lower_bounds(L, a, b)
    greatest = [g for g in candidates if all(L.leq(c, g) for c in candidates)]
    return greatest[0] if len(greatest) == 1 else None


def least_upper_bound(L, a, b):
    candidates = upper_bounds(L, a, b)
    least = [g for g in candidates if all(L.leq(g, c) for c in candidates)]
    return least[0] if len(least) == 1 else None


def partitions(n):
    """Every partition of range(n), grown element by element."""
    parts = [[[0]]] if n else [[]]
    for e in range(1, n):
        grown = []
        for p in parts:
            for i in range(len(p)):
                grown.append([list(b) for b in p[:i]] + [p[i] + [e]]
                             + [list(b) for b in p[i + 1:]])
            grown.append([list(b) for b in p] + [[e]])
        parts = grown
    return parts


def is_congruence_two_pair(L, blocks):
    """The literal definition: related pairs combine to related pairs."""
    cls = {}
    for tag, block in enumerate(blocks):
        for e in block:
            cls[e] = tag
    related = [(a, b) for a in range(L.size) for b in range(L.size)
               if cls[a] == cls[b]]
    for a, b in related:
        for c, d in related:
            if cls[L.join(a, c)] != cls[L.join(b, d)]:
                return False
            if cls[L.meet(a, c)] != cls[L.meet(b, d)]:
                return False
    return True


@lru_cache(maxsize=None)
def all_congruences_two_pair(L):
    """Partition filtering through the two-pair definition."""
    out = []
    for blocks in partitions(L.size):
        if is_congruence_two_pair(L, blocks):
            out.append(Congruence.from_blocks(blocks, L.size))
    return sorted(out, key=lambda c: c.class_of)


# Largest carrier whose congruences are found by filtering all partitions
# (Bell(7) = 877); larger ones take the pair closure below.
PARTITION_LIMIT = 7


def least_congruence_containing(L, a, b):
    """Intersection of every congruence relating the pair, or above
    ``PARTITION_LIMIT`` elements the least relation closed under the
    congruence rules."""
    if L.size > PARTITION_LIMIT:
        return two_pair_closure(L, a, b)
    keepers = [c for c in all_congruences_two_pair(L) if c.relates(a, b)]
    assert keepers, "the total partition always qualifies"
    class_of = [tuple(c.class_of[x] for c in keepers) for x in range(L.size)]
    return Congruence.from_class_of(
        [sorted(set(class_of)).index(key) for key in class_of])


def join_of_partitions(theta, psi):
    """The transitive closure of the union of two partitions, grown as a set
    of pairs until composing it with itself adds nothing."""
    n = len(theta.class_of)
    rel = {(x, y) for x in range(n) for y in range(n)
           if theta.class_of[x] == theta.class_of[y]
           or psi.class_of[x] == psi.class_of[y]}
    while True:
        step = {(x, z) for x, y in rel for z in range(n) if (y, z) in rel}
        if step <= rel:
            break
        rel |= step
    classes = [frozenset(y for y in range(n) if (x, y) in rel) for x in range(n)]
    return Congruence.from_class_of(classes)


def all_congruences_closure(L):
    """Con L as the closure of the cover principals under
    ``join_of_partitions``: each round joins every new congruence with every
    principal, until a round finds nothing new."""
    principals = {principal_congruence_oracle(L, a, b) for a, b in L.covers}
    found = {Congruence.identity(L.size)}
    fresh = set(found)
    while fresh:
        fresh = {join_of_partitions(c, p) for c in fresh for p in principals} - found
        found |= fresh
    return sorted(found, key=lambda c: c.class_of)


def two_pair_closure(L, a, b):
    """The least relation holding (a, b) that is reflexive, symmetric,
    transitive and takes related pairs (x, y), (u, v) to related joins and
    meets, grown as a set of pairs: each round combines the new pairs with
    every pair so far."""
    rel = {(x, x) for x in range(L.size)}
    fresh = {(a, b)} - rel
    while fresh:
        rel |= fresh
        step = set()
        for x, y in fresh:
            step.add((y, x))
            for u, v in rel:
                step.add((L.join(x, u), L.join(y, v)))
                step.add((L.meet(x, u), L.meet(y, v)))
                if y == u:
                    step.add((x, v))
                if v == x:
                    step.add((u, y))
        fresh = step - rel
    classes = [frozenset(y for y in range(L.size) if (x, y) in rel)
               for x in range(L.size)]
    return Congruence.from_class_of(classes)


def is_distributive_triples(L):
    """a ^ (b v c) = (a ^ b) v (a ^ c) for every triple, with each meet and
    join found once by the bound scans."""
    n = L.size
    meet = [[greatest_lower_bound(L, a, b) for b in range(n)] for a in range(n)]
    join = [[least_upper_bound(L, a, b) for b in range(n)] for a in range(n)]
    return all(meet[a][join[b][c]] == join[meet[a][b]][meet[a][c]]
               for a in range(n) for b in range(n) for c in range(n))


def is_monotone_all_pairs(L, table):
    """Every pointwise-ordered input pair, not just cover steps."""
    grid = list(itertools.product(range(L.size), repeat=table.arity))
    for x in grid:
        for y in grid:
            if all(L.leq(p, q) for p, q in zip(x, y)):
                if not L.leq(table.value_at(x), table.value_at(y)):
                    return False
    return True


def monotone_on_subsets(L, rows, n):
    """Per row of 2**n coefficients: every pair of masks S within T, not
    just one-bit steps, has coefficient[S] <= coefficient[T]."""
    below = {(a, b) for a in range(L.size) for b in range(L.size) if L.leq(a, b)}
    pairs = [(s, t) for t in range(1 << n) for s in range(1 << n) if s & t == s]
    return [all((row[s], row[t]) in below for s, t in pairs) for row in rows]


def is_compatible_all_tuples(L, table):
    """Full-tuple compatibility against the brute-force congruence set."""
    grid = list(itertools.product(range(L.size), repeat=table.arity))
    for cong in all_congruences_two_pair(L):
        for x in grid:
            for y in grid:
                if all(cong.relates(p, q) for p, q in zip(x, y)):
                    if not cong.relates(table.value_at(x), table.value_at(y)):
                        return False
    return True


def sugeno_by_subsets(L, capacity_values, u):
    """Subset expansion written with explicit index combinations."""
    n = len(u)
    best = L.bottom
    for k in range(n + 1):
        for subset in itertools.combinations(range(n), k):
            mask = 0
            for i in subset:
                mask |= 1 << i
            term = capacity_values[mask]
            for i in subset:
                term = L.meet(term, u[i])
            best = L.join(best, term)
    return best


def sugeno_by_levels(L, capacity_values, u):
    """Level-set form: join over every threshold t of t ^ m({i : t <= u_i})."""
    best = L.bottom
    for t in range(L.size):
        mask = 0
        for i, v in enumerate(u):
            if L.leq(t, v):
                mask |= 1 << i
        best = L.join(best, L.meet(t, capacity_values[mask]))
    return best


def sugeno_by_pointwise(L, capacity_values, u):
    """Pointwise form: join over i of u_i ^ m({j : u_i <= u_j})."""
    best = L.bottom
    for v in u:
        mask = 0
        for j, w in enumerate(u):
            if L.leq(v, w):
                mask |= 1 << j
        best = L.join(best, L.meet(v, capacity_values[mask]))
    return best


def evaluate_term(L, node, x):
    """A term's value at x, by recursion over the tree."""
    if isinstance(node, Projection):
        return x[node.index]
    if isinstance(node, Constant):
        return node.value
    left, right = evaluate_term(L, node.left, x), evaluate_term(L, node.right, x)
    return L.meet(left, right) if isinstance(node, Meet) else L.join(left, right)


def chain_laws(L, table):
    """The four laws AC09 checks, as literal loops over a table's inputs:
    idempotency, min-homogeneity, comonotone maxitivity and horizontal
    maxitivity, in that order."""
    n, f = table.arity, table.value_at
    grid = list(itertools.product(range(L.size), repeat=n))
    bottom = bottom_of(L)

    def lower(x, y):
        return L.leq(x, y) and x != y

    idempotent = all(f((c,) * n) == c for c in range(L.size))
    homogeneous = all(
        f(tuple(L.meet(c, v) for v in x)) == L.meet(c, f(x))
        for x in grid for c in range(L.size))
    comonotone = all(
        f(tuple(L.join(a, b) for a, b in zip(x, y))) == L.join(f(x), f(y))
        for x in grid for y in grid
        if not any(lower(x[i], x[j]) and lower(y[j], y[i])
                   for i in range(n) for j in range(n)))
    horizontal = all(
        f(x) == L.join(f(tuple(L.meet(c, v) for v in x)),
                       f(tuple(bottom if L.leq(v, c) else v for v in x)))
        for x in grid for c in range(L.size))
    return idempotent, homogeneous, comonotone, horizontal


def monotone_maps(L, points, precedes, pinned=()):
    """Order-preserving value tuples over ``points``, in lexicographic order.

    Filters every tuple in L^len(points): values[i] <= values[j] whenever
    precedes(points[i], points[j]), and values[i] == v for each pinned
    pair (i, v).
    """
    pairs = [(i, j) for i, p in enumerate(points)
             for j, q in enumerate(points) if precedes(p, q)]
    out = []
    for values in itertools.product(range(L.size), repeat=len(points)):
        if all(values[i] == v for i, v in pinned) \
                and all(L.leq(values[i], values[j]) for i, j in pairs):
            out.append(values)
    return out


def join_irreducible_count(L):
    """Elements with exactly one lower cover, found by scanning ``leq``."""
    count = 0
    for x in range(L.size):
        below = [y for y in range(L.size) if y != x and L.leq(y, x)]
        lower_covers = [y for y in below
                        if not any(z != y and L.leq(y, z) for z in below)]
        count += len(lower_covers) == 1
    return count


def bottom_of(L):
    """The element under every element, found by scanning ``leq``."""
    return next(b for b in range(L.size) if all(L.leq(b, c) for c in range(L.size)))


def top_of(L):
    return next(t for t in range(L.size) if all(L.leq(c, t) for c in range(L.size)))


def median_by_bounds(L, a, b, c):
    """(a v b) ^ (b v c) ^ (c v a), each bound found by the bound scans."""
    ab, bc, ca = least_upper_bound(L, a, b), least_upper_bound(L, b, c), \
        least_upper_bound(L, c, a)
    return greatest_lower_bound(L, greatest_lower_bound(L, ab, bc), ca)


def median_decomposition_holds(L, table):
    """Every coordinate slice: f(x) = med(f(x, x_k := bottom), x_k, f(x, x_k := top))."""
    bottom, top = bottom_of(L), top_of(L)
    for x in itertools.product(range(L.size), repeat=table.arity):
        for k in range(table.arity):
            low = table.value_at(x[:k] + (bottom,) + x[k + 1:])
            high = table.value_at(x[:k] + (top,) + x[k + 1:])
            if median_by_bounds(L, low, x[k], high) != table.value_at(x):
                return False
    return True


def vertex_values(L, table):
    """Values at the boolean vertices, indexed by mask (bit i = coordinate i)."""
    bottom, top = bottom_of(L), top_of(L)
    return tuple(
        table.value_at(tuple(top if mask >> i & 1 else bottom
                             for i in range(table.arity)))
        for mask in range(1 << table.arity))


def subset_expansion_table(L, coefficients, arity):
    """Values of the join-of-meets expansion of ``coefficients`` at every
    input, in ``itertools.product`` order."""
    return tuple(sugeno_by_subsets(L, coefficients, x)
                 for x in itertools.product(range(L.size), repeat=arity))


def round_trip_holds(L, table, coefficients):
    """Whether extracting a capacity from ``table`` gives ``coefficients``
    back: bottom and top at the constant ends, monotone over all input
    pairs, and ``coefficients`` at the boolean vertices."""
    n = table.arity
    ends = (table.value_at((bottom_of(L),) * n), table.value_at((top_of(L),) * n))
    return ends == (bottom_of(L), top_of(L)) and is_monotone_all_pairs(L, table) \
        and vertex_values(L, table) == tuple(coefficients)


def projection(P, coefficients, k):
    """Coordinate k of every coefficient on the product P."""
    return tuple(P.tuples[v][k] for v in coefficients)


def summand_share(H, coefficients, k):
    """Every coefficient on the horizontal sum H read in summand k, or the
    summand's bottom where it lies outside."""
    back, bottom = H.preimages[k], bottom_of(H.summands[k])
    return tuple(back.get(v, bottom) for v in coefficients)


def product_splits(P, coefficients, parts):
    """Whether the subset expansion of ``coefficients`` on the product P
    is, in every coordinate k and at every input u, the expansion of
    ``parts[k]`` on factor k at the coordinate-k input of u."""
    n = len(coefficients).bit_length() - 1
    for u in itertools.product(range(P.size), repeat=n):
        whole = P.tuples[sugeno_by_subsets(P, coefficients, u)]
        for k, factor in enumerate(P.factors):
            uk = tuple(P.tuples[v][k] for v in u)
            if whole[k] != sugeno_by_subsets(factor, parts[k], uk):
                return False
    return True


def sum_splits(H, coefficients, parts):
    """Whether the subset expansion of ``coefficients`` on the horizontal
    sum H is, at every input u, the join of the expansions of ``parts[k]``
    on the summands k at the summand-k shares of u, embedded back."""
    n = len(coefficients).bit_length() - 1
    for u in itertools.product(range(H.size), repeat=n):
        joined = bottom_of(H)
        for k, summand in enumerate(H.summands):
            part = sugeno_by_subsets(summand, parts[k], summand_share(H, u, k))
            joined = H.join(joined, H.embeddings[k][part])
        if joined != sugeno_by_subsets(H, coefficients, u):
            return False
    return True
