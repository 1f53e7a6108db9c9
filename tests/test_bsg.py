"""The path-joint construction and its entropy bounds."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from entsum import bsg as bsg_mod
from entsum.bsg import BsgInstance, build_path_joint, factorization_exact, verify_bsg
from entsum.dists import (
    Dist,
    JointDist,
    conditional_entropy,
    independent_joint,
    joint_entropy,
)
from entsum.errors import CapExceededError
from entsum.fuzz import random_joint
from entsum.groups import GroupSpec

Z2 = GroupSpec([2])
Z4 = GroupSpec([4])
Z = GroupSpec([0])
LOG2 = math.log(2)


def fair_bit():
    return Dist.uniform(Z2, [(0,), (1,)])


def test_instance_defect_clamped():
    inst = BsgInstance.from_joint(independent_joint(fair_bit(), fair_bit()))
    assert inst.log_k == 0.0


def test_path_joint_independent_bits():
    inst = BsgInstance.from_joint(independent_joint(fair_bit(), fair_bit()))
    path = build_path_joint(inst)
    # 16 equally likely paths; entropy = chain-rule value 4 log 2
    assert len(path) == 16
    assert set(path.mass.values()) == {F(1, 16)}
    j = inst.joint
    expect = 2 * j.entropy() - joint_entropy(j, [1]) + j.entropy() - joint_entropy(j, [0])
    assert path.entropy() == pytest.approx(expect, abs=1e-9)


def test_path_joint_degenerate_equal_variables():
    j = JointDist([Z2, Z2], {((0,), (0,)): F(1, 2), ((1,), (1,)): F(1, 2)})
    inst = BsgInstance.from_joint(j)
    path = build_path_joint(inst)
    # X1 = X2 = Y = Y': two atoms, entropy log 2
    assert len(path) == 2
    assert path.entropy() == pytest.approx(LOG2, abs=1e-12)


def test_path_joint_matches_path_counting_oracle():
    # uniform law on the complete bipartite edge set over two bits: the path
    # joint must be the uniform law on all length-3 paths (y' - x1 - y - x2)
    edges = [((a,), (b,)) for a in range(2) for b in range(2)]
    j = JointDist([Z2, Z2], {e: F(1, 4) for e in edges})
    inst = BsgInstance.from_joint(j)
    path = build_path_joint(inst)
    edge_set = set(edges)
    paths = [
        (x1, x2, y, yp)
        for x1, x2, y, yp in itertools.product([(0,), (1,)], repeat=4)
        if (x1, y) in edge_set and (x2, y) in edge_set and (x1, yp) in edge_set
    ]
    oracle = JointDist([Z2] * 4, {p: F(1, len(paths)) for p in paths})
    assert path == oracle


def test_factorization_is_exact_rational():
    rng = random.Random(3)
    for _ in range(40):
        j = random_joint(rng, Z4, 6, 64)
        path = build_path_joint(BsgInstance.from_joint(j))
        assert factorization_exact(path)


def _hand_built_paths():
    # path joints in which X2 and Y' are dependent given (X1, Y) = (0, 0), and one where they are not
    def path(masses):
        return JointDist(
            [Z2] * 4, {((0,), (x2,), (0,), (yp,)): v for (x2, yp), v in masses.items()}
        )

    # (X2, Y') in {(0, 0), (1, 1)}: the product atoms (0, 1) and (1, 0) are missing
    missing = path({(0, 0): F(1, 2), (1, 1): F(1, 2)})
    # every product atom is present, but the masses do not factor
    unequal = path({(0, 0): F(1, 2), (0, 1): F(1, 6), (1, 0): F(1, 6), (1, 1): F(1, 6)})
    return [missing, unequal, path({(a, b): F(1, 4) for a in range(2) for b in range(2)})]


def test_factorization_detects_dependence():
    assert [factorization_exact(p) for p in _hand_built_paths()] == [False, False, True]


def _factorization_exact_reference(path: JointDist) -> bool:
    """`factorization_exact` as it was before it called `dists.is_independent`."""
    # all counts share the path's denominator, so the check runs on them
    cond: dict = {}
    for (x1, x2, y, yp), v in path.counts.items():
        cell = cond.setdefault((x1, y), {"w": 0, "x2": {}, "yp": {}, "atoms": {}})
        cell["w"] += v
        cell["x2"][x2] = cell["x2"].get(x2, 0) + v
        cell["yp"][yp] = cell["yp"].get(yp, 0) + v
        cell["atoms"][(x2, yp)] = cell["atoms"].get((x2, yp), 0) + v
    for cell in cond.values():
        # every path atom has positive mass, so every (x2, y') pair must be present
        if len(cell["atoms"]) != len(cell["x2"]) * len(cell["yp"]):
            return False
        w = cell["w"]
        for (x2, yp), v in cell["atoms"].items():
            if v * w != cell["x2"][x2] * cell["yp"][yp]:
                return False
    return True


def test_factorization_matches_reference():
    # 100 path joints on each group, each beside a 4-coordinate joint that is
    # no path joint and most often fails the factorization
    rng = random.Random(2201)
    outcomes = set()
    for g in (Z4, Z, GroupSpec([8])):
        for _ in range(100):
            path = build_path_joint(BsgInstance.from_joint(random_joint(rng, g, 6, 64)))
            assert factorization_exact(path) and _factorization_exact_reference(path)
            other = random_joint(rng, g, 6, 64, coords=4)
            outcomes.add(factorization_exact(other))
            assert factorization_exact(other) == _factorization_exact_reference(other)
    assert outcomes == {True, False}
    for path in _hand_built_paths():
        assert factorization_exact(path) == _factorization_exact_reference(path)


def test_trial_entropies_match_conditionals():
    rng = random.Random(7)
    for _ in range(40):
        j = random_joint(rng, Z4, 6, 64)
        path = build_path_joint(BsgInstance.from_joint(j))
        assert conditional_entropy(path, [1], [0, 2]) == pytest.approx(
            conditional_entropy(j, [0], [1]), abs=1e-9
        )
        assert conditional_entropy(path, [3], [0, 2]) == pytest.approx(
            conditional_entropy(j, [1], [0]), abs=1e-9
        )


def test_verify_bsg_independent_bits_equality():
    inst = BsgInstance.from_joint(independent_joint(fair_bit(), fair_bit()))
    reports = {r.name: r for r in verify_bsg(inst)}
    assert reports["bsg_independent_sum"].lhs == pytest.approx(LOG2, abs=1e-9)
    assert reports["bsg_independent_sum"].slack == pytest.approx(0.0, abs=1e-9)


def test_verify_bsg_degenerate():
    j = JointDist([Z2, Z2], {((0,), (0,)): F(1, 2), ((1,), (1,)): F(1, 2)})
    inst = BsgInstance.from_joint(j)
    assert inst.log_k == pytest.approx(LOG2, abs=1e-12)
    for rep in verify_bsg(inst):
        assert not rep.violated(), rep.name


def test_verify_bsg_fuzz():
    rng = random.Random(2028)
    for _ in range(120):
        g = Z4 if rng.randrange(2) else Z
        j = random_joint(rng, g, 6, 64)
        for rep in verify_bsg(BsgInstance.from_joint(j)):
            assert not rep.violated(), rep.name


def test_verify_bsg_cap_counts_path_atoms(monkeypatch):
    # the cap is checked on a count that equals the built path joint's size
    rng = random.Random(77)
    for _ in range(30):
        inst = BsgInstance.from_joint(random_joint(rng, Z4, 6, 64))
        size = len(build_path_joint(inst))
        monkeypatch.setattr(bsg_mod, "PATH_ATOM_CAP", size)
        verify_bsg(inst)
        monkeypatch.setattr(bsg_mod, "PATH_ATOM_CAP", size - 1)
        with pytest.raises(CapExceededError):
            verify_bsg(inst)


def test_verify_bsg_cap_before_building(monkeypatch):
    # 101 X values with one Y value: 101^2 path atoms, over the cap of 10,000
    j = JointDist([Z, Z], {((i,), (0,)): F(1, 101) for i in range(101)})

    def never(inst):
        raise AssertionError("the path joint was built before the cap check")

    monkeypatch.setattr(bsg_mod, "build_path_joint", never)
    with pytest.raises(CapExceededError):
        verify_bsg(BsgInstance.from_joint(j))
