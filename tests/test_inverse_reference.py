"""Differential test of `detect_coset_uniform` against its difference-set body.

`_detect_coset_uniform_reference` is the detector as it was before it read
the coset off |S + S| = |S|: it builds the difference set S - S, tests it
with `is_subgroup`, rebuilds the coset from the first atom and compares
supports, then checks that all masses are equal.  It is kept here unchanged as
the reference.  Both must agree on all four `CosetReport` fields, the
doubling constant bitwise.
"""

import itertools
import random
from fractions import Fraction

import pytest

from entsum.dists import Dist
from entsum.groups import GroupSpec, is_subgroup
from entsum.inverse import CosetReport, detect_coset_uniform
from entsum.metrics import doubling_constant


def _detect_coset_uniform_reference(p: Dist) -> CosetReport:
    """Exact detector: accepts iff p is uniform on a coset of a finite subgroup.

    Uses the characterisation through the difference set of the support: the
    support minus itself must be a subgroup, the support must be one coset of
    it, and all masses must be equal (tested as exact rationals).
    """
    g = p.group
    supp = p.support()
    diffs = frozenset(g.sub(a, b) for a in supp for b in supp)
    doubling = doubling_constant(p)
    if not is_subgroup(g, diffs):
        return CosetReport(False, None, None, doubling)
    base = supp[0]
    coset = {g.add(base, d) for d in diffs}
    if set(supp) != coset:
        return CosetReport(False, None, None, doubling)
    masses = set(p.mass.values())
    if len(masses) != 1:
        return CosetReport(False, None, None, doubling)
    return CosetReport(True, diffs, base, doubling)


# ---------------------------------------------------------------------------
# seeded laws

GROUPS = {
    "Z": GroupSpec([0]),
    "Z^2": GroupSpec([0, 0]),
    "Z/6": GroupSpec([6]),
    "Z/8": GroupSpec([8]),
    "Z/2xZ/4": GroupSpec([2, 4]),
    "Z/2^3": GroupSpec([2, 2, 2]),
}


def _element(rng: random.Random, g: GroupSpec, reach: int = 4):
    return tuple(rng.randrange(m) if m else rng.randrange(-reach, reach + 1) for m in g.moduli)


def _generated(g: GroupSpec, gens) -> set:
    """The subgroup of a finite group generated by `gens`, closed by search."""
    out = {g.zero()}
    frontier = [g.zero()]
    while frontier:
        x = frontier.pop()
        for s in gens:
            y = g.add(x, s)
            if y not in out:
                out.add(y)
                frontier.append(y)
    return out


def _masses(rng: random.Random, els, equal: bool) -> dict:
    if equal:
        return {e: Fraction(1, len(els)) for e in els}
    weights = [rng.randrange(1, 5) for _ in els]
    return {e: Fraction(w, sum(weights)) for e, w in zip(els, weights)}


def _corpus(seed: int, count: int):
    """Laws of four kinds: uniform on a random coset of a generated subgroup
    (a point mass on Z and Z^2), the same coset with unequal masses, a coset
    with one atom removed or one added, and a random set, each with equal or
    unequal masses."""
    rng = random.Random(seed)
    for i in range(count):
        name = rng.choice(sorted(GROUPS))
        g = GROUPS[name]
        base = _element(rng, g)
        if g.is_finite():
            sub = _generated(g, [_element(rng, g) for _ in range(rng.randrange(1, 4))])
        else:
            sub = {g.zero()}
        coset = sorted({g.add(base, h) for h in sub})
        kind = i % 4
        if kind == 0:
            els = coset
        elif kind == 1:
            els = coset if len(coset) > 1 else coset + [g.add(base, _element(rng, g))]
        elif kind == 2:
            extra = g.add(base, _element(rng, g))
            els = coset[1:] if len(coset) > 1 and rng.randrange(2) else coset + [extra]
        else:
            els = [_element(rng, g) for _ in range(rng.randrange(1, 9))]
        els = sorted({g.reduce(e) for e in els})
        equal = kind in (0, 2) or rng.randrange(2) == 0
        yield name, Dist(g, _masses(rng, els, equal))


def _assert_same(p: Dist) -> bool:
    new = detect_coset_uniform(p)
    old = _detect_coset_uniform_reference(p)
    assert new.is_coset_uniform == old.is_coset_uniform
    assert new.subgroup == old.subgroup
    assert new.base == old.base
    assert new.doubling.hex() == old.doubling.hex()
    return new.is_coset_uniform


# ---------------------------------------------------------------------------
# tests


def test_seeded_laws_match_reference():
    accepted = {name: 0 for name in GROUPS}
    rejected = {name: 0 for name in GROUPS}
    for name, p in _corpus(1, 1200):
        if _assert_same(p):
            accepted[name] += 1
        else:
            rejected[name] += 1
    # every group sees both outcomes, so both branches are compared everywhere
    assert min(accepted.values()) > 0 and min(rejected.values()) > 0


@pytest.mark.parametrize("name, count", [("Z/6", 4), ("Z/8", 4), ("Z/2xZ/4", 8), ("Z/2^3", 16)])
def test_every_coset_of_every_subgroup(name, count):
    # each of these groups has rank at most 3, so three generators reach every subgroup
    g = GROUPS[name]
    els = list(g.elements())
    subgroups = {frozenset(_generated(g, gens)) for gens in itertools.product(els, repeat=3)}
    assert len(subgroups) == count
    for sub in subgroups:
        for base in els:
            coset = {g.add(base, h) for h in sub}
            assert _assert_same(Dist.uniform(g, coset))
            if len(coset) > 1:
                heavy = {e: Fraction(2 if e == base else 1, len(coset) + 1) for e in coset}
                assert not _assert_same(Dist(g, heavy))
