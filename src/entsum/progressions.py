"""Coset progressions: enumeration, properness, uniform laws, box embeddings."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .dists import Dist
from .errors import CapExceededError, NonProperError, PreconditionError
from .groups import ENUM_CAP, Element, GroupSpec, _ints, is_subgroup


class CosetProgression(NamedTuple("CosetProgression", [
        ("group", GroupSpec), ("subgroup", tuple[Element, ...]), ("base", Element),
        ("steps", tuple[Element, ...]), ("lengths", tuple[int, ...])])):
    """H + P with H a finite subgroup and P a generalised progression.

    P = {base + n1 r1 + ... + nd rd : 0 <= ni < Ni}; d is the rank.  Immutable,
    and equal, hashed and pickled by its five fields; `__new__` sorts H,
    reduces every element and checks the fields, also when unpickling.
    """

    __slots__ = ()

    def __new__(cls, group, subgroup, base, steps=(), lengths=()):
        subgroup = tuple(sorted(group.reduce(h) for h in subgroup))
        base = group.reduce(base)
        steps = tuple(group.reduce(s) for s in steps)
        lengths = _ints(lengths, "progression lengths")
        if len(steps) != len(lengths):
            raise ValueError("steps and lengths must have equal rank")
        if any(n < 1 for n in lengths):
            raise ValueError("progression lengths must be positive")
        if not is_subgroup(group, subgroup):
            raise ValueError("subgroup set fails the subgroup check")
        return super().__new__(cls, group, subgroup, base, steps, lengths)

    @property
    def rank(self) -> int:
        return len(self.steps)

    def nominal_size(self) -> int:
        return len(self.subgroup) * math.prod(self.lengths)

    def _element(self, h: Element, ns: tuple[int, ...]) -> Element:
        g = self.group
        out = g.add(h, self.base)
        for n, r in zip(ns, self.steps):
            out = g.add(out, g.scalar(n, r))
        return out

    def _walk(self, lengths: Sequence[int]) -> Iterator[tuple[tuple, Element]]:
        """((h, ns), element) over the box H x prod [0, lengths[i]), in box order.

        The box size is checked against ENUM_CAP before the first element.
        """
        size = len(self.subgroup) * math.prod(lengths)
        if size > ENUM_CAP:
            raise CapExceededError(f"box walk needs {size} points, cap {ENUM_CAP}")
        for h in self.subgroup:
            for ns in itertools.product(*(range(n) for n in lengths)):
                yield (h, ns), self._element(h, ns)

    def enumerate(self) -> frozenset[Element]:
        """Exact element set, with collisions collapsed."""
        return frozenset(el for _, el in self._walk(self.lengths))

    def is_proper(self) -> bool:
        return is_t_proper(self, 1)


def is_t_proper(cp: CosetProgression, t) -> bool:
    """True iff all sums with ni in [0, t*Ni) are pairwise distinct."""
    t = Fraction(t)
    if t <= 0:
        raise ValueError("t must be positive")
    counts = [math.ceil(t * n) for n in cp.lengths]  # the integers in [0, t*n); ceil is exact
    seen = set()
    for _, el in cp._walk(counts):
        if el in seen:
            return False
        seen.add(el)
    return True


def uniform_on(cp: CosetProgression) -> Dist:
    return Dist.uniform(cp.group, cp.enumerate())


class BoxEmbedding(NamedTuple):
    """Bijection tables between a proper H+P and the box H x prod [0, Ni).

    Box points are pairs (h, ns), and `forward` is the one map from the box
    to the ambient group: the transport pushforward sends a box difference
    y - x to forward[y] - forward[x], which cannot wrap.
    """

    progression: CosetProgression
    forward: dict  # (h, ns) -> group element
    backward: dict  # group element -> (h, ns)

    def pull(self, p: Dist) -> dict:
        """p's counts, over p.den, keyed by box point; support must lie in H+P."""
        out = {}
        for e, n in p.counts.items():
            if e not in self.backward:
                raise PreconditionError(
                    f"support element {e} lies outside the progression"
                )
            out[self.backward[e]] = n
        return out


def box_embedding(cp: CosetProgression) -> BoxEmbedding:
    """Tables between H + P and its box, built in one walk of the box.

    The walk checks the box size against ENUM_CAP first, and the first
    collision raises NonProperError.
    """
    forward = {}
    backward = {}
    for key, el in cp._walk(cp.lengths):
        if el in backward:
            raise NonProperError(f"progression is not proper (collision at {el}); embedding refused")
        forward[key] = el
        backward[el] = key
    return BoxEmbedding(cp, forward, backward)
