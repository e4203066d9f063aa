"""Explicit n-ary function tables over a finite carrier.

A FunctionTable stores a total map ``{0..size-1}^n -> {0..size-1}`` as a
flat tuple indexed by the mixed-radix encoding of the input (coordinate 0
is the most significant digit, matching ``itertools.product`` order).
Tables are the common currency between the polynomial, Sugeno, and
compatibility modules: everything is lowered to a table before it is
cross-checked.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ArityMismatch, ForeignElement


def encode(x, size: int) -> int:
    idx = 0
    for v in x:
        idx = idx * size + v
    return idx


def all_inputs(size: int, arity: int):
    """Every input tuple, in encoding order."""
    return itertools.product(range(size), repeat=arity)


def input_grid(size: int, arity: int):
    """Every input as a row of a ``(size**arity, arity)`` array, in encoding order."""
    return np.indices((size,) * arity).reshape(arity, size ** arity).T


class FunctionTable:
    """Total function L^n -> L stored as a flat value tuple."""

    __slots__ = ("arity", "size", "values")

    def __init__(self, arity: int, size: int, values):
        values = tuple(map(int, values))
        if len(values) != size ** arity:
            raise ArityMismatch(
                f"expected {size ** arity} entries for arity {arity}, "
                f"got {len(values)}")
        check_elements(size, values, "output")
        self.arity = arity
        self.size = size
        self.values = values

    @classmethod
    def from_callable(cls, size: int, arity: int, fn) -> "FunctionTable":
        return cls(arity, size, [fn(x) for x in all_inputs(size, arity)])

    def value_at(self, x) -> int:
        return self.values[encode(check_input(self.size, self.arity, x), self.size)]

    def __eq__(self, other):
        if not isinstance(other, FunctionTable):
            return NotImplemented
        return (self.arity, self.size, self.values) == (
            other.arity, other.size, other.values)

    def __hash__(self):
        return hash((self.arity, self.size, self.values))

    def __repr__(self):
        return f"FunctionTable(arity={self.arity}, size={self.size})"


def check_input(size: int, arity: int, x) -> tuple[int, ...]:
    """The input as a tuple, after checking its length and element range."""
    x = tuple(x)
    if len(x) != arity:
        raise ArityMismatch(f"expected {arity} inputs, got {len(x)}")
    for v in x:
        if not 0 <= v < size:
            raise ForeignElement(f"input {v} outside carrier of size {size}")
    return x


def check_elements(size: int, values, what: str) -> None:
    """Raise ForeignElement unless every value lies in ``0..size-1``.

    The message names the smallest value if it is negative, else the
    largest; a stack is checked by passing its minimum and maximum.
    """
    if len(values):
        low, high = min(values), max(values)
        if low < 0 or high >= size:
            raise ForeignElement(f"{what} {low if low < 0 else high} "
                                 f"outside carrier of size {size}")


def check_table(L, f: FunctionTable) -> None:
    """Raise ForeignElement unless f is a table over the carrier of L."""
    if f.size != L.size:
        raise ForeignElement(
            f"table over carrier {f.size} used with lattice of size {L.size}")


def vertex_input(L, arity: int, mask: int) -> tuple[int, ...]:
    """Boolean vertex for a subset mask: top at set bits, bottom elsewhere."""
    return tuple(L.top if mask >> i & 1 else L.bottom for i in range(arity))
