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

from .errors import InvalidArgument, NotDistributive, ValidationError
from .lattice import Lattice, _integer, check_elements, check_type
from .polynomials import _coefficient_rows, _rebuild_rows
from .sugeno import Capacity
from .tables import _apply, _plan


class ProductLattice(Lattice):
    """Componentwise order on tuples of factor elements.

    Element i corresponds to ``tuples[i]`` in mixed-radix order (factor 0
    most significant).
    """

    def __init__(self, factors):
        factors = _lattices(factors, "factors")
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

    def component(self, element: int, k: int) -> int:
        """Coordinate k of an element.  ForeignElement for an element outside
        the carrier, InvalidArgument for a k outside the factors."""
        (element,) = check_elements(self.size, (element,), "element")
        return self.tuples[element][_index(self.factors, k, "factor")]


def _lattices(parts, what: str) -> tuple[Lattice, ...]:
    """``parts`` as a tuple; InvalidArgument unless it holds only lattices."""
    try:
        parts = tuple(parts)
    except TypeError:
        raise InvalidArgument(f"{what} must be lattices, not {parts!r}") from None
    for part in parts:
        if not isinstance(part, Lattice):
            raise InvalidArgument(f"{what} must be lattices, not {part!r}")
    return parts


def _index(parts, k, what: str) -> int:
    """``k`` as an int; InvalidArgument unless it is one in ``0..len(parts)-1``."""
    k = _integer(k, what)
    if not 0 <= k < len(parts):
        raise InvalidArgument(f"{what} {k} outside 0..{len(parts) - 1}")
    return k


def direct_product(factors) -> ProductLattice:
    return ProductLattice(factors)


class HorizontalSumLattice(Lattice):
    """Summands glued at a shared bottom and top, interiors incomparable.

    Element layout: bottom first, then the interior of each summand in
    argument order (each in its own index order), top last.  ``provenance``
    maps an element to its summand index, or None for the shared bounds.
    """

    def __init__(self, summands):
        summands = _lattices(summands, "summands")
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
        """Bottom and top belong to every summand; interiors to their own.
        ForeignElement for an element outside the carrier, InvalidArgument
        for a k outside the summands."""
        (element,) = check_elements(self.size, (element,), "element")
        return self.provenance[element] in (None, _index(self.summands, k, "summand"))

    def to_summand(self, element: int, k: int) -> int:
        """Image of an element in summand k, or the summand's bottom; checked
        as ``belongs_to`` checks."""
        if self.belongs_to(element, k):
            return self.preimages[k][element]
        return self.summands[k].bottom


def horizontal_sum(summands) -> HorizontalSumLattice:
    return HorizontalSumLattice(summands)


# --- Sugeno decomposition checks -------------------------------------------
#
# Each split is a row kernel over a stack of capacities on the whole, given
# with the stacks of the factor or summand capacities to compare against;
# a projected or split stack is one gather of the whole stack.  The single
# calls run the kernel and the gather on a stack of one, as AC10 runs them
# on blocks.


def _capacity_row(L, kind: type, m: Capacity) -> np.ndarray:
    """m's coefficients as a stack of one row.  InvalidArgument unless L is
    a ``kind`` and m a Capacity, ForeignElement unless m is on L."""
    return _coefficient_rows(check_type(L, kind), check_type(m, Capacity))


def _coordinates(P: ProductLattice):
    """The (size, factors) array: coordinate k of each element of P."""
    return np.array(P.tuples).reshape(P.size, len(P.factors))


def _factor_rows(P: ProductLattice, rows) -> list:
    """Per factor k, the coordinate-k projections of capacity rows on P."""
    coordinates = _coordinates(P)
    return [coordinates[:, k][rows] for k in range(len(P.factors))]


def _summand_images(H: HorizontalSumLattice, k: int):
    """Per element of H, its image in summand k, as ``to_summand`` gives it."""
    back, bottom = H.preimages[k], H.summands[k].bottom
    return np.array([back.get(v, bottom) for v in range(H.size)])


def _summand_rows(H: HorizontalSumLattice, rows) -> list:
    """Per summand k, the summand-k shares of capacity rows on H."""
    return [_summand_images(H, k)[rows] for k in range(len(H.summands))]


def project_capacity(P: ProductLattice, m: Capacity, k: int) -> Capacity:
    """k-th coordinate projection of a product capacity."""
    rows = _capacity_row(P, ProductLattice, m)
    k = _index(P.factors, k, "factor")
    return Capacity(P.factors[k], _factor_rows(P, rows)[k][0].tolist())


def split_capacity(H: HorizontalSumLattice, m: Capacity, k: int) -> Capacity:
    """Summand-k share of a capacity: values outside the summand drop to bottom."""
    rows = _capacity_row(H, HorizontalSumLattice, m)
    k = _index(H.summands, k, "summand")
    return Capacity(H.summands[k], _summand_rows(H, rows)[k][0].tolist())


def _image_inputs(images, part_size: int, grid):
    """Per input x (a row of ``grid``), the index of the input
    ``(images[x_0], ..., images[x_{n-1}])`` of a part with ``part_size`` elements."""
    return images[grid] @ part_size ** np.arange(grid.shape[1] - 1, -1, -1)


def _arity(rows) -> int:
    """The arity of a stack of coefficient rows, one per subset mask."""
    return rows.shape[1].bit_length() - 1


def _product_rows(P: ProductLattice, rows, parts) -> np.ndarray:
    """Per row of a stack of capacities on P: the integral works coordinatewise.

    For every input, coordinate k of the integral must equal the integral
    of row ``parts[k]`` on factor k at the coordinate-k input.  Both sides
    are whole tables, compared by gathers.
    """
    plan = _plan(P, _arity(rows))
    coordinates = _coordinates(P)
    whole = _rebuild_rows(plan, rows)
    holds = np.ones(len(rows), dtype=bool)
    for k, (factor, part) in enumerate(zip(P.factors, parts)):
        table = _rebuild_rows(_plan(factor, plan.arity), part)
        at = _image_inputs(coordinates[:, k], factor.size, plan.grid)
        holds &= (coordinates[:, k][whole] == table[:, at]).all(axis=1)
    return holds


def _sum_rows(H: HorizontalSumLattice, rows, parts,
              report_only: bool = False) -> np.ndarray:
    """Per row of a stack of capacities on H: the integral is the join of
    the integrals of the rows ``parts[k]`` on the summands k, embedded.

    The splitting claim is asserted only for distributive sums; with
    report_only=True the check runs on a non-distributive sum anyway.
    """
    if not H.is_distributive and not report_only:
        raise NotDistributive(
            "the horizontal-sum splitting is only claimed for distributive "
            "sums; rerun with report_only=True to record the outcome")
    plan = _plan(H, _arity(rows))
    joined = np.full((len(rows), len(plan.grid)), H.bottom, dtype=plan.dtype)
    for k, (summand, part) in enumerate(zip(H.summands, parts)):
        table = _rebuild_rows(_plan(summand, plan.arity), part)
        at = _image_inputs(_summand_images(H, k), summand.size, plan.grid)
        embedding = np.array([H.embeddings[k][v] for v in range(summand.size)])
        joined = _apply(plan.join, joined, embedding[table[:, at]])
    return (joined == _rebuild_rows(plan, rows)).all(axis=1)


def product_decomposition_check(P: ProductLattice, m: Capacity) -> bool:
    """Whether the integral on the product works coordinatewise: coordinate
    k of the integral is the integral on factor k of the projected capacity
    and projected inputs."""
    rows = _capacity_row(P, ProductLattice, m)
    return bool(_product_rows(P, rows, _factor_rows(P, rows))[0])


def horizontal_sum_decomposition_check(H: HorizontalSumLattice, m: Capacity,
                                       report_only: bool = False) -> bool:
    """Whether the integral is the join of the per-summand split integrals.

    The splitting claim is asserted only for distributive sums; pass
    report_only=True to run the scan on a non-distributive sum anyway and
    just observe the outcome.
    """
    rows = _capacity_row(H, HorizontalSumLattice, m)
    return bool(_sum_rows(H, rows, _summand_rows(H, rows), report_only)[0])
