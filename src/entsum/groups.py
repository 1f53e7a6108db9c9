"""Finitely generated abelian ambient groups and exact element arithmetic.

A group is a product of cyclic factors described by a vector of moduli;
modulus 0 encodes an infinite cyclic factor so that torsion-free and finite
coordinates share one element representation.  Elements are plain tuples of
Python ints (arbitrary precision), reduced into [0, m) on finite coordinates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import CapExceededError, IncompatibleGroupError

Element = tuple[int, ...]

ENUM_CAP = 100_000  # largest group or progression that is enumerated element by element


@dataclass(frozen=True)
class GroupSpec:
    """Ambient abelian group: one non-negative modulus per coordinate (0 = Z)."""

    moduli: tuple[int, ...]

    def __init__(self, moduli: Iterable[int]):
        mods = tuple(int(m) for m in moduli)
        if any(m < 0 for m in mods):
            raise ValueError(f"moduli must be non-negative, got {mods}")
        object.__setattr__(self, "moduli", mods)

    @property
    def dim(self) -> int:
        return len(self.moduli)

    def torsion_free(self) -> bool:
        return all(m == 0 for m in self.moduli)

    def is_finite(self) -> bool:
        return all(m > 0 for m in self.moduli)

    def order(self) -> int:
        """Number of elements; only defined for finite groups."""
        if not self.is_finite():
            raise ValueError("group has an infinite factor")
        n = 1
        for m in self.moduli:
            n *= m
        return n

    def reduce(self, coords: Sequence[int]) -> Element:
        if len(coords) != self.dim:
            raise IncompatibleGroupError(
                f"element has {len(coords)} coordinates, group has {self.dim}"
            )
        return tuple(
            int(c) % m if m > 0 else int(c) for c, m in zip(coords, self.moduli)
        )

    def contains(self, el: Element) -> bool:
        if len(el) != self.dim:
            return False
        return all(
            (0 <= c < m) if m > 0 else True for c, m in zip(el, self.moduli)
        )

    def zero(self) -> Element:
        return (0,) * self.dim

    def add(self, a: Element, b: Element) -> Element:
        self._check(a)
        self._check(b)
        return tuple(
            (x + y) % m if m > 0 else x + y
            for x, y, m in zip(a, b, self.moduli)
        )

    def neg(self, a: Element) -> Element:
        self._check(a)
        return tuple((-x) % m if m > 0 else -x for x, m in zip(a, self.moduli))

    def sub(self, a: Element, b: Element) -> Element:
        return self.add(a, self.neg(b))

    def scalar(self, k: int, a: Element) -> Element:
        self._check(a)
        return tuple((k * x) % m if m > 0 else k * x for x, m in zip(a, self.moduli))

    def elements(self) -> Iterator[Element]:
        """All elements of a finite group in row-major order."""
        n = self.order()
        if n > ENUM_CAP:
            raise CapExceededError(f"group order {n} exceeds enumeration cap {ENUM_CAP}")
        return itertools.product(*(range(m) for m in self.moduli))

    def _check(self, a: Element) -> None:
        if len(a) != self.dim:
            raise IncompatibleGroupError(
                f"element has {len(a)} coordinates, group has {self.dim}"
            )


def is_subgroup(g: GroupSpec, elements: Iterable[Element]) -> bool:
    """True iff the finite set contains 0 and is closed under subtraction."""
    s = set(elements)
    if g.zero() not in s:
        return False
    for a in s:
        for b in s:
            if g.sub(a, b) not in s:
                return False
    return True
