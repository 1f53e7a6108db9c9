"""Differential test of the subgroup check against its former body.

`_is_subgroup_reference` tests every difference of the set, |S|^2 of them;
`is_subgroup` now grows the subgroup the set generates one coset at a time.
"""

import itertools
import random
import time

from entsum.groups import GroupSpec, is_subgroup
from entsum.progressions import CosetProgression


def _is_subgroup_reference(g, elements) -> bool:
    """True iff the finite set contains 0 and is closed under subtraction."""
    s = set(elements)
    if g.zero() not in s:
        return False
    for a in s:
        for b in s:
            if g.sub(a, b) not in s:
                return False
    return True


def _span(g, gens):
    """The subgroup generated by `gens`, whose infinite coordinates are zero."""
    out = {g.zero()}
    frontier = list(out)
    while frontier:
        nxt = []
        for h in frontier:
            for a in gens:
                e = g.add(h, a)
                if e not in out:
                    out.add(e)
                    nxt.append(e)
        frontier = nxt
    return out


def _random_element(rng, g, finite_only=False):
    return tuple(rng.randrange(m) if m else (0 if finite_only else rng.randrange(-3, 4)) for m in g.moduli)


GROUPS = [GroupSpec(m) for m in ([12], [2, 4], [3, 3], [2, 2, 4], [0], [0, 4], [5, 6])]


def test_is_subgroup_matches_reference_on_random_sets():
    rng = random.Random(808)
    for i in range(3000):
        g = GROUPS[i % len(GROUPS)]
        kind = i // len(GROUPS) % 4
        h = _span(g, [_random_element(rng, g, True) for _ in range(rng.randrange(0, 3))])
        if kind == 1:  # one element more or less
            h ^= {_random_element(rng, g)}
        elif kind == 2:  # a coset, or a union of two
            c = _random_element(rng, g)
            h = {g.add(e, c) for e in h} | (h if rng.random() < 0.5 else set())
        elif kind == 3:  # a random set
            h = {_random_element(rng, g) for _ in range(rng.randrange(0, 8))}
        assert is_subgroup(g, h) == _is_subgroup_reference(g, h), (g, sorted(h))


def test_is_subgroup_matches_reference_on_every_subset_of_z2_z4():
    g = GroupSpec([2, 4])
    elems = list(g.elements())
    found = 0
    for mask in range(1 << len(elems)):
        s = [e for k, e in enumerate(elems) if mask >> k & 1]
        new = is_subgroup(g, s)
        assert new == _is_subgroup_reference(g, s), s
        found += new
    assert found == 8  # Z/2 x Z/4 has eight subgroups


def test_progression_over_a_large_subgroup_builds():
    g = GroupSpec([100_000])
    t = time.perf_counter()
    cp = CosetProgression(g, [(k,) for k in range(100_000)], (0,))
    assert time.perf_counter() - t < 30  # every difference would be 10^10 checks
    assert len(cp.subgroup) == 100_000
    assert not is_subgroup(g, [(k,) for k in range(0, 100_000, 2)] + [(1,)])
    assert is_subgroup(GroupSpec([0, 100_000]), itertools.product([0], range(0, 100_000, 4)))
