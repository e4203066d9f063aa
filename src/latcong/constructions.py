"""Direct products and horizontal sums of bounded lattices.

Both constructions return full Lattice objects carrying enough metadata to
move capacities and input vectors between the whole and its parts, so the
splitting behaviour of the Sugeno integral can be verified exhaustively:
on a product the integral works coordinatewise, and on a distributive
horizontal sum it is the join of the per-summand integrals of the split
capacity and input.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import NotDistributive, ValidationError
from .lattice import Lattice
from .sugeno import Capacity, sugeno_table
from .tables import input_grid


class ProductLattice(Lattice):
    """Componentwise order on tuples of factor elements.

    Element i corresponds to ``tuples[i]`` in mixed-radix order (factor 0
    most significant).
    """

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ValidationError("a product needs at least one factor")
        tuples = tuple(itertools.product(*(range(f.size) for f in factors)))
        strides = [math.prod(f.size for f in factors[k + 1:])
                   for k in range(len(factors))]
        # In a product, y covers x exactly when one coordinate steps up a
        # cover of its factor and the others stay put.
        covers = [(i, i + (c - x[k]) * strides[k])
                  for i, x in enumerate(tuples)
                  for k, f in enumerate(factors)
                  for a, c in f.covers if a == x[k]]
        names = [f.name or f"size-{f.size}" for f in factors]
        super().__init__(len(tuples), covers, name="*".join(names))
        self.factors = factors
        self.tuples = tuples
        self.index_of = {t: i for i, t in enumerate(tuples)}

    def component(self, element: int, k: int) -> int:
        return self.tuples[element][k]


def direct_product(factors) -> ProductLattice:
    return ProductLattice(factors)


class HorizontalSumLattice(Lattice):
    """Summands glued at a shared bottom and top, interiors incomparable.

    Element layout: bottom first, then the interior of each summand in
    argument order (each in its own index order), top last.  ``provenance``
    maps an element to its summand index, or None for the shared bounds.
    """

    def __init__(self, summands):
        summands = tuple(summands)
        if not summands:
            raise ValidationError("a horizontal sum needs at least one summand")
        for s in summands:
            if s.size < 2:
                raise ValidationError(
                    "horizontal-sum summands need distinct bottom and top")
        interiors = []
        for s in summands:
            interiors.append([e for e in range(s.size)
                              if e not in (s.bottom, s.top)])
        n = 2 + sum(len(i) for i in interiors)
        bottom, top = 0, n - 1
        embed = []
        next_id = 1
        provenance = [None] * n
        for k, s in enumerate(summands):
            mapping = {s.bottom: bottom, s.top: top}
            for e in interiors[k]:
                mapping[e] = next_id
                provenance[next_id] = k
                next_id += 1
            embed.append(mapping)
        covers = [(embed[k][a], embed[k][b])
                  for k, s in enumerate(summands) for a, b in s.covers]
        names = [s.name or f"size-{s.size}" for s in summands]
        super().__init__(n, covers, name="+".join(names))
        self.summands = summands
        self.provenance = tuple(provenance)
        self.embeddings = tuple(dict(m) for m in embed)
        self.preimages = tuple({h: e for e, h in m.items()} for m in embed)

    def belongs_to(self, element: int, k: int) -> bool:
        """Bottom and top belong to every summand; interiors to their own."""
        return self.provenance[element] is None or self.provenance[element] == k

    def to_summand(self, element: int, k: int) -> int:
        """Image of an element in summand k, or the summand's bottom."""
        if self.belongs_to(element, k):
            return self.preimages[k][element]
        return self.summands[k].bottom


def horizontal_sum(summands) -> HorizontalSumLattice:
    return HorizontalSumLattice(summands)


# --- Sugeno decomposition checks -------------------------------------------


def project_capacity(P: ProductLattice, m: Capacity, k: int) -> Capacity:
    """k-th coordinate projection of a product capacity."""
    return Capacity(P.factors[k], [P.component(v, k) for v in m.coefficients])


def _image_inputs(images, part_size: int, grid):
    """Per input x (a row of ``grid``), the index of the input
    ``(images[x_0], ..., images[x_{n-1}])`` of a part with ``part_size`` elements."""
    return images[grid] @ part_size ** np.arange(grid.shape[1] - 1, -1, -1)


def product_decomposition_check(P: ProductLattice, m: Capacity) -> bool:
    """Whether the integral on the product works coordinatewise.

    For every input vector, coordinate k of the integral must equal the
    integral on factor k of the projected capacity and projected inputs.
    Both sides are whole tables, compared by gathers.
    """
    coordinates = np.array(P.tuples).reshape(P.size, len(P.factors))
    whole = coordinates[np.array(sugeno_table(P, m).values)]
    grid = input_grid(P.size, m.arity)
    for k, factor in enumerate(P.factors):
        part = np.array(sugeno_table(factor, project_capacity(P, m, k)).values)
        at = _image_inputs(coordinates[:, k], factor.size, grid)
        if (whole[:, k] != part[at]).any():
            return False
    return True


def split_capacity(H: HorizontalSumLattice, m: Capacity, k: int) -> Capacity:
    """Summand-k share of a capacity: values outside the summand drop to bottom."""
    return Capacity(H.summands[k], [H.to_summand(v, k) for v in m.coefficients])


def horizontal_sum_decomposition_check(H: HorizontalSumLattice, m: Capacity,
                                       report_only: bool = False) -> bool:
    """Whether the integral is the join of the per-summand split integrals.

    The splitting claim is asserted only for distributive sums; pass
    report_only=True to run the scan on a non-distributive sum anyway and
    just observe the outcome.
    """
    if not H.is_distributive and not report_only:
        raise NotDistributive(
            "the horizontal-sum splitting is only claimed for distributive "
            "sums; rerun with report_only=True to record the outcome")
    grid = input_grid(H.size, m.arity)
    parts = np.full(len(grid), H.bottom)
    for k, summand in enumerate(H.summands):
        part = np.array(sugeno_table(summand, split_capacity(H, m, k)).values)
        images = np.array([H.to_summand(v, k) for v in range(H.size)])
        embedding = np.array([H.embeddings[k][v] for v in range(summand.size)])
        at = _image_inputs(images, summand.size, grid)
        parts = H.join_table[parts, embedding[part[at]]]
    return bool((parts == sugeno_table(H, m).values).all())
