"""Finitely generated abelian ambient groups and exact element arithmetic.

A group is a product of cyclic factors described by a vector of moduli;
modulus 0 encodes an infinite cyclic factor so that torsion-free and finite
coordinates share one element representation.  Elements are plain tuples of
Python ints (arbitrary precision), reduced into [0, m) on finite coordinates.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import CapExceededError, IncompatibleGroupError

Element = tuple[int, ...]

ENUM_CAP = 100_000  # largest group or progression that is enumerated element by element


def _ints(values: Iterable, what: str) -> tuple[int, ...]:
    """The values as ints by `operator.index`; ValueError names them otherwise."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers, got {values}") from None


class GroupSpec(NamedTuple("GroupSpec", [("moduli", tuple[int, ...])])):
    """Ambient abelian group: one non-negative modulus per coordinate (0 = Z); immutable."""

    __slots__ = ()

    def __new__(cls, moduli: Iterable[int]):
        mods = _ints(moduli, "moduli")
        if any(m < 0 for m in mods):
            raise ValueError(f"moduli must be non-negative, got {mods}")
        return super().__new__(cls, mods)

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
        index = operator.index
        try:
            return tuple([index(c) % m if m else index(c) for c, m in zip(coords, self.moduli)])
        except TypeError:
            raise ValueError(f"coordinates must be integers, got {tuple(coords)}") from None

    def contains(self, el: Element) -> bool:
        if len(el) != self.dim:
            return False
        return all(
            (0 <= c < m) if m > 0 else True for c, m in zip(el, self.moduli)
        )

    def zero(self) -> Element:
        return (0,) * self.dim

    # add, neg and sub sit on every hot path: one length test each, with
    # _check called only to raise, and a direct path on rank-1 groups

    def add(self, a: Element, b: Element) -> Element:
        mods = self.moduli
        if not len(a) == len(b) == len(mods):
            self._check(a)
            self._check(b)
        if len(mods) == 1:
            m, s = mods[0], a[0] + b[0]
            return (s % m if m else s,)
        return tuple([(x + y) % m if m else x + y for x, y, m in zip(a, b, mods)])

    def neg(self, a: Element) -> Element:
        mods = self.moduli
        if len(a) != len(mods):
            self._check(a)
        if len(mods) == 1:
            m = mods[0]
            return (-a[0] % m if m else -a[0],)
        return tuple([-x % m if m else -x for x, m in zip(a, mods)])

    def sub(self, a: Element, b: Element) -> Element:
        mods = self.moduli
        if not len(a) == len(b) == len(mods):
            self._check(a)
            self._check(b)
        if len(mods) == 1:
            m, s = mods[0], a[0] - b[0]
            return (s % m if m else s,)
        return tuple([(x - y) % m if m else x - y for x, y, m in zip(a, b, mods)])

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
    """True iff the finite set contains 0 and is closed under subtraction.

    Grows the subgroup generated by the elements one generator at a time,
    adding whole cosets, and fails as soon as an element leaves the set:
    O(|S|) additions, against |S|^2 for testing every difference.
    """
    s = set(elements)
    zero = g.zero()
    if zero not in s:
        return False
    span = {zero}
    for a in s:
        if a in span:
            continue
        # span + <a> is the union of the cosets span + k a, until k a is in span
        grown = []
        c = a
        while c not in span:
            for h in span:
                e = g.add(h, c)
                if e not in s:
                    return False
                grown.append(e)
            c = g.add(c, a)
        span.update(grown)
    return True
