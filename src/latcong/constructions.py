"""Direct products and horizontal sums of bounded lattices.

Both constructions return full Lattice objects that carry, per factor or
summand, a map onto the part and a map back into the whole, so the
splitting behaviour of the Sugeno integral can be verified exhaustively by
one kernel: the integral is the join of the part integrals of the mapped
capacity and input, each mapped back.  On a product this is the
coordinatewise split, since an element is the join of its coordinates, each
with the others at bottom; on a horizontal sum it is claimed only when the
sum is distributive.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

import numpy as np

from .errors import InvalidArgument, NotDistributive, ValidationError
from .lattice import Lattice, _integer, check_elements, check_size, check_type
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
        check_size(math.prod(f.size for f in factors))
        tuples = tuple(itertools.product(*(range(f.size) for f in factors)))
        self._strides = [math.prod(f.size for f in factors[k + 1:])
                         for k in range(len(factors))]
        # In a product, y covers x exactly when one coordinate steps up a
        # cover of its factor and the others stay put.
        covers = [(i, i + (c - x[k]) * self._strides[k])
                  for i, x in enumerate(tuples)
                  for k, f in enumerate(factors)
                  for a, c in f.covers if a == x[k]]
        names = [f.name or f"size-{f.size}" for f in factors]
        super().__init__(len(tuples), covers, name="*".join(names))
        self.factors = factors
        self.tuples = tuples

    @cached_property
    def _parts(self):
        """Per factor k: the factor; ``down_k``, coordinate k of each
        element; and ``up_k``, each element of the factor at coordinate k
        with every other coordinate at its factor's bottom."""
        coordinates = np.array(self.tuples).reshape(self.size, -1)
        return tuple((f, coordinates[:, k],
                      self.bottom + (np.arange(f.size) - f.bottom) * self._strides[k])
                     for k, f in enumerate(self.factors))

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

    @cached_property
    def _parts(self):
        """Per summand k: the summand; ``down_k``, the image of each element
        as ``to_summand`` gives it; and ``up_k``, the embedding."""
        return tuple((s, np.array([back.get(v, s.bottom) for v in range(self.size)]),
                      np.array([m[e] for e in range(s.size)]))
                     for s, back, m in zip(self.summands, self.preimages, self.embeddings))

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
# A product or sum X maps the whole onto each factor or summand k by
# ``down_k`` and part k back into X by ``up_k``.  The split is one row kernel
# over a stack of capacities on X and the stacks of the part capacities; a
# part stack is one gather through ``down_k``.  The single calls run both
# on a stack of one, as AC10 runs them on blocks.


def _capacity_row(L, kind: type, m: Capacity) -> np.ndarray:
    """m's coefficients as a stack of one row.  InvalidArgument unless L is
    a ``kind`` and m a Capacity, ForeignElement unless m is on L."""
    return _coefficient_rows(check_type(L, kind), check_type(m, Capacity))


def _part_rows(X, rows) -> list:
    """Per part k of a product or sum X, ``down_k`` of capacity rows on X:
    the factor-k projections or the summand-k shares."""
    return [down[rows] for _, down, _ in X._parts]


def _part_capacity(X, kind: type, m: Capacity, k: int, what: str) -> Capacity:
    """The part-k capacity of m, as ``_part_rows`` gives it."""
    rows = _capacity_row(X, kind, m)
    part, down, _ = X._parts[_index(X._parts, k, what)]
    return Capacity(part, down[rows[0]].tolist())


def project_capacity(P: ProductLattice, m: Capacity, k: int) -> Capacity:
    """k-th coordinate projection of a product capacity."""
    return _part_capacity(P, ProductLattice, m, k, "factor")


def split_capacity(H: HorizontalSumLattice, m: Capacity, k: int) -> Capacity:
    """Summand-k share of a capacity: values outside the summand drop to bottom."""
    return _part_capacity(H, HorizontalSumLattice, m, k, "summand")


def _split_rows(X, rows, parts, report_only: bool = False) -> np.ndarray:
    """Per row of a stack of capacities on a product or sum X: the integral
    is the join over the parts k of ``up_k`` of the integral of the row
    ``parts[k]`` on part k at the ``down_k`` input.

    The splitting is claimed only for distributive horizontal sums; with
    report_only=True the check runs on a non-distributive sum anyway.
    """
    if isinstance(X, HorizontalSumLattice) and not X.is_distributive \
            and not report_only:
        raise NotDistributive(
            "the horizontal-sum splitting is only claimed for distributive "
            "sums; rerun with report_only=True to record the outcome")
    plan = _plan(X, rows.shape[1].bit_length() - 1)
    joined = np.full((len(rows), len(plan.grid)), X.bottom, dtype=plan.dtype)
    for (part, down, up), stack in zip(X._parts, parts):
        part_plan = _plan(part, plan.arity)
        at = down[plan.grid] @ part_plan.strides
        joined = _apply(plan.join, joined, up[_rebuild_rows(part_plan, stack)[:, at]])
    return (joined == _rebuild_rows(plan, rows)).all(axis=1)


def product_decomposition_check(P: ProductLattice, m: Capacity) -> bool:
    """Whether the integral on the product works coordinatewise: coordinate
    k of the integral is the integral on factor k of the projected capacity
    and projected inputs."""
    rows = _capacity_row(P, ProductLattice, m)
    return bool(_split_rows(P, rows, _part_rows(P, rows))[0])


def horizontal_sum_decomposition_check(H: HorizontalSumLattice, m: Capacity,
                                       report_only: bool = False) -> bool:
    """Whether the integral is the join of the per-summand split integrals.

    The splitting claim is asserted only for distributive sums; pass
    report_only=True to run the scan on a non-distributive sum anyway and
    just observe the outcome.
    """
    rows = _capacity_row(H, HorizontalSumLattice, m)
    return bool(_split_rows(H, rows, _part_rows(H, rows), report_only)[0])
