"""Coset progressions: enumeration, properness, uniform laws, embeddings."""

import math
import pickle
import random
from fractions import Fraction as F

import pytest

from entsum.dists import Dist, entropy
from entsum.errors import CapExceededError, NonProperError
from entsum.groups import GroupSpec
from entsum.metrics import doubling_constant
from entsum.progressions import (
    CosetProgression,
    box_embedding,
    is_t_proper,
    uniform_on,
)
from entsum.torsionfree import PiecewiseDensity

Z = GroupSpec([0])
Z4 = GroupSpec([4])
Z8 = GroupSpec([8])
ZZ = GroupSpec([0, 0])


def test_enumerate_interval():
    cp = CosetProgression(Z, [(0,)], (0,), [(1,)], [5])
    assert cp.enumerate() == frozenset({(0,), (1,), (2,), (3,), (4,)})


def test_group_and_progression_are_frozen_values():
    # named tuples whose __new__ checks the fields; the process pools pickle them
    cp = CosetProgression(Z8, [(0,), (4,)], (1,), [(2,)], [2])
    f = PiecewiseDensity([0, 1, 2], [(F(1, 4), 0), ("1/2", "1/6")])
    for obj, twin, field in ((Z8, GroupSpec([8]), "moduli"),
                             (cp, CosetProgression(Z8, [(4,), (0,)], (9,), [(2,)], [2]), "base"),
                             (f, PiecewiseDensity(["0", 1, F(2)], [(F(1, 4), F(0)), (F(1, 2), F(1, 6))]),
                              "pieces")):
        with pytest.raises(AttributeError):
            setattr(obj, field, getattr(obj, field))
        back = pickle.loads(pickle.dumps(obj))
        assert back == obj == twin and hash(back) == hash(obj) == hash(twin)
        again = eval(repr(obj), {**globals(), "Fraction": F})
        assert again == obj and hash(again) == hash(obj)
    assert cp != CosetProgression(Z8, [(0,), (4,)], (1,), [(2,)], [3]) and Z8 != Z4 and Z8 != (8,)
    assert f != PiecewiseDensity.uniform(0, 1)


@pytest.mark.parametrize("length", [2.7, "3"])
def test_refuses_non_integer_lengths(length):
    with pytest.raises(ValueError, match=f"lengths must be integers, got .*{length!r}"):
        CosetProgression(Z, [(0,)], (0,), [(1,)], [length])


def test_enumerate_pure_coset():
    cp = CosetProgression(Z4, [(0,), (2,)], (1,))
    assert cp.enumerate() == frozenset({(1,), (3,)})
    assert cp.rank == 0


def test_enumerate_with_collision():
    cp = CosetProgression(Z4, [(0,)], (0,), [(2,)], [3])
    assert cp.enumerate() == frozenset({(0,), (2,)})


def test_t_proper_examples():
    assert is_t_proper(CosetProgression(Z, [(0,)], (0,), [(1,)], [5]), 2)
    assert not is_t_proper(CosetProgression(Z4, [(0,)], (0,), [(2,)], [3]), 1)
    cp = CosetProgression(Z8, [(0,)], (0,), [(1,)], [3])
    assert is_t_proper(cp, 2)
    assert not is_t_proper(cp, 3)


def test_t_proper_monotone():
    rng = random.Random(4)
    for _ in range(40):
        m = rng.randrange(4, 12)
        g = GroupSpec([m])
        cp = CosetProgression(
            g, [(0,)], (rng.randrange(m),), [(rng.randrange(1, m),)], [rng.randrange(1, 5)]
        )
        t = 1 + rng.randrange(1, 4)
        if is_t_proper(cp, t):
            assert is_t_proper(cp, 1)


def test_uniform_on_examples():
    cp = CosetProgression(Z, [(0,)], (0,), [(1,)], [5])
    assert entropy(uniform_on(cp)) == pytest.approx(math.log(5), abs=1e-12)
    collide = CosetProgression(Z4, [(0,)], (0,), [(2,)], [3])
    assert entropy(uniform_on(collide)) == pytest.approx(math.log(2), abs=1e-12)
    coset = CosetProgression(Z4, [(0,), (2,)], (1,))
    assert doubling_constant(uniform_on(coset)) == pytest.approx(1.0, abs=1e-12)


def test_box_embedding_interval():
    cp = CosetProgression(Z, [(0,)], (0,), [(1,)], [5])
    emb = box_embedding(cp)
    assert len(emb.forward) == 5
    assert emb.forward[((0,), (2,))] == (2,)


def test_box_embedding_rank2_sums_distinct():
    cp = CosetProgression(ZZ, [(0, 0)], (0, 0), [(1, 0), (0, 1)], [4, 4])
    emb = box_embedding(cp)
    assert len(emb.forward) == 16
    # doubled-box sums stay distinct in a torsion-free group
    keys = list(emb.forward.values())
    sums = {ZZ.add(a, b) for a in keys for b in keys}
    assert len(sums) == 49  # (2*4-1)^2


def test_box_embedding_rejects_nonproper():
    cp = CosetProgression(Z4, [(0,)], (0,), [(2,)], [3])
    with pytest.raises(NonProperError):
        box_embedding(cp)


def test_box_embedding_walks_the_box_once(monkeypatch):
    cp = CosetProgression(ZZ, [(0, 0)], (0, 0), [(1, 0), (0, 1)], [4, 3])
    calls = []
    element = CosetProgression._element
    monkeypatch.setattr(CosetProgression, "_element",
                        lambda self, h, ns: calls.append(ns) or element(self, h, ns))
    emb = box_embedding(cp)
    assert len(calls) == cp.nominal_size() == len(emb.forward) == len(emb.backward)


def test_box_embedding_cap_before_walk(monkeypatch):
    from entsum import progressions

    def never(*_):
        raise AssertionError("box walked past the cap")

    cp = CosetProgression(Z, [(0,)], (0,), [(1,)], [10])
    monkeypatch.setattr(progressions, "ENUM_CAP", 5)
    monkeypatch.setattr(CosetProgression, "_element", never)
    with pytest.raises(CapExceededError):
        box_embedding(cp)


def test_pull_mass():
    cp = CosetProgression(Z, [(0,)], (0,), [(1,)], [4])
    emb = box_embedding(cp)
    p = Dist(Z, {(0,): F(1, 4), (3,): F(3, 4)})
    box = emb.pull(p)
    assert p.den == 4 and box == {((0,), (0,)): 1, ((0,), (3,)): 3}


def test_doubling_at_most_two_per_rank():
    fixtures = [
        CosetProgression(Z, [(0,)], (0,), [(1,)], [7]),
        CosetProgression(Z, [(0,)], (3,), [(2,)], [5]),
        CosetProgression(ZZ, [(0, 0)], (0, 0), [(1, 0), (0, 1)], [3, 4]),
        CosetProgression(ZZ, [(0, 0)], (1, 2), [(1, 1), (2, -1)], [4, 3]),
        CosetProgression(GroupSpec([0, 0, 0]), [(0, 0, 0)], (0, 0, 0),
                         [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [3, 3, 3]),
        CosetProgression(GroupSpec([8]), [(0,), (4,)], (1,), [(1,)], [2]),
    ]
    for cp in fixtures:
        d = len(cp.steps)
        sigma = doubling_constant(uniform_on(cp))
        assert sigma <= 2**d + 1e-9


def test_enumeration_cap(monkeypatch):
    from entsum import progressions

    cp = CosetProgression(Z, [(0,)], (0,), [(1,)], [10])
    monkeypatch.setattr(progressions, "ENUM_CAP", 5)
    with pytest.raises(CapExceededError):
        cp.enumerate()


def test_t_proper_cap(monkeypatch):
    from entsum import progressions

    cp = CosetProgression(Z, [(0,)], (0,), [(1,)], [4])
    monkeypatch.setattr(progressions, "ENUM_CAP", 5)
    assert is_t_proper(cp, 1)
    with pytest.raises(CapExceededError):
        is_t_proper(cp, 2)  # 8 sums
