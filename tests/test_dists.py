"""Distributions, entropies, joints, conditioning, trials, total variation.

Expected values come from closed forms or small hand enumerations recomputed
inside the tests, never from the code path under test.
"""

import math
import random
from fractions import Fraction as F

import pytest

from entsum.dists import (
    Dist,
    JointDist,
    ci_trials,
    conditional_entropy,
    convolve,
    entropy,
    f_nats,
    independent_joint,
    is_independent,
    joint_entropy,
    tv_distance,
)
from entsum.errors import IncompatibleGroupError, PreconditionError
from entsum.fuzz import random_dist, random_joint
from entsum.groups import GroupSpec

Z = GroupSpec([0])
Z2 = GroupSpec([2])
Z4 = GroupSpec([4])
Z8 = GroupSpec([8])

LOG2 = math.log(2)


def fair_bit(g=Z2):
    return Dist.uniform(g, [(0,), (1,)])


# ---------------------------------------------------------------------------
# entropy


def test_entropy_uniform_and_point():
    u = Dist.uniform(Z, [(i,) for i in range(4)])
    assert entropy(u) == pytest.approx(math.log(4), abs=1e-12)
    assert entropy(Dist.point(Z4, (2,))) == 0.0


def test_entropy_half_quarter_quarter():
    p = Dist(Z, {(0,): F(1, 2), (1,): F(1, 4), (2,): F(1, 4)})
    # direct evaluation: F(1/2) + 2 F(1/4) = (3/2) log 2
    assert entropy(p) == pytest.approx(1.5 * LOG2, abs=1e-12)


def test_entropy_order_independent():
    rng = random.Random(3)
    for _ in range(20):
        p = random_dist(rng, Z8, 8, 64)
        direct = math.fsum(f_nats(v) for v in p.mass.values())
        rev = math.fsum(f_nats(v) for v in reversed(list(p.mass.values())))
        assert abs(direct - rev) <= 1e-12
        assert entropy(p) == direct


def test_entropy_huge_denominators():
    # masses far below float resolution contribute nothing but must not crash
    p = Dist(Z, {(0,): F(1, 2**4096), (1,): 1 - F(1, 2**4096)})
    assert entropy(p) == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# convolution


def test_convolve_fair_bits():
    c = convolve(fair_bit(Z), fair_bit(Z), "+")
    assert c.mass == {(0,): F(1, 4), (1,): F(1, 2), (2,): F(1, 4)}


def test_convolve_point_translates():
    rng = random.Random(1)
    q = random_dist(rng, Z, 5, 32)
    c = convolve(Dist.point(Z, (3,)), q, "+")
    assert c == q.translate((3,))


def test_convolve_subgroup_closure():
    u = fair_bit(Z2)
    assert convolve(u, u, "+") == u


def test_convolve_group_mismatch():
    with pytest.raises(IncompatibleGroupError):
        convolve(fair_bit(Z2), fair_bit(Z4), "+")


def test_binomial_two_ways():
    # Pascal row 1,4,6,4,1 over 16: iterated convolution vs closed form
    b = fair_bit(Z)
    four = convolve(convolve(b, b, "+"), convolve(b, b, "+"), "+")
    closed = Dist(Z, {(k,): F(math.comb(4, k), 16) for k in range(5)})
    assert four == closed


# ---------------------------------------------------------------------------
# joints, marginals, conditioning


def test_joint_entropy_examples():
    indep = independent_joint(fair_bit(), fair_bit())
    assert joint_entropy(indep, [0, 1]) == pytest.approx(2 * LOG2, abs=1e-12)
    corr = JointDist([Z2, Z2], {((0,), (0,)): F(1, 2), ((1,), (1,)): F(1, 2)})
    assert joint_entropy(corr, [0, 1]) == pytest.approx(LOG2, abs=1e-12)
    rng = random.Random(5)
    j = random_joint(rng, Z4, 6, 64)
    assert joint_entropy(j, [0]) == pytest.approx(entropy(j.dist(0)), abs=1e-12)


def test_joint_entropy_empty_coords():
    j = independent_joint(fair_bit(), fair_bit())
    with pytest.raises(ValueError):
        joint_entropy(j, [])


def test_conditional_entropy_examples():
    corr = JointDist([Z2, Z2], {((0,), (0,)): F(1, 2), ((1,), (1,)): F(1, 2)})
    assert conditional_entropy(corr, [0], [1]) == pytest.approx(0.0, abs=1e-12)
    indep = independent_joint(fair_bit(), fair_bit())
    assert conditional_entropy(indep, [0], [1]) == pytest.approx(LOG2, abs=1e-12)
    j = JointDist(
        [Z2, Z2],
        {((0,), (0,)): F(1, 2), ((0,), (1,)): F(1, 4), ((1,), (1,)): F(1, 4)},
    )
    # fibre at y=0 is deterministic; fibre at y=1 is a fair bit
    assert conditional_entropy(j, [0], [1]) == pytest.approx(0.5 * LOG2, abs=1e-12)


def test_conditional_entropy_overlap_rejected():
    j = independent_joint(fair_bit(), fair_bit())
    with pytest.raises(ValueError):
        conditional_entropy(j, [0], [0])


@pytest.mark.parametrize("signs", [[1], [1, -1, 1], [1, 0], [1, 2]], ids=["short", "long", "zero", "two"])
def test_sum_dist_refuses_bad_signs(signs):
    j = JointDist([Z, Z], {((0,), (1,)): F(1, 2), ((1,), (5,)): F(1, 2)})
    assert j.sum_dist([0, 1], signs=[1, -1]) == Dist.uniform(Z, [(-1,), (-4,)])
    with pytest.raises(ValueError, match="signs"):
        j.sum_dist([0, 1], signs=signs)


def test_condition_on_event():
    u = Dist.uniform(Z, [(i,) for i in range(4)])
    evens = u.condition(lambda e: e[0] % 2 == 0)
    assert evens == Dist.uniform(Z, [(0,), (2,)])
    assert u.condition(lambda e: True) == u
    p = Dist(Z, {(0,): F(1, 2), (1,): F(1, 4), (2,): F(1, 4)})
    tail = p.condition(lambda e: e[0] >= 1)
    assert tail == Dist.uniform(Z, [(1,), (2,)])
    j = independent_joint(u, u)
    cut = j.condition(0, lambda e: e[0] % 2 == 0)
    assert cut.dist(0) == evens
    with pytest.raises(PreconditionError):
        u.condition(lambda e: False)


# ---------------------------------------------------------------------------
# conditionally independent trials


def test_ci_trials_degenerate():
    corr = JointDist([Z2, Z2], {((0,), (0,)): F(1, 2), ((1,), (1,)): F(1, 2)})
    t = ci_trials(corr, 1)
    assert t.entropy() == pytest.approx(LOG2, abs=1e-12)
    assert t.entropy() == pytest.approx(2 * corr.entropy() - joint_entropy(corr, [1]), abs=1e-9)


def test_ci_trials_independent_case():
    indep = independent_joint(fair_bit(), fair_bit())
    t = ci_trials(indep, 1)
    assert is_independent(t, [0], [1])
    assert is_independent(t, [0], [2])
    assert is_independent(t, [1], [2])


def test_is_independent_refuses_what_check_coords_refuses():
    # is_independent tests the blocks inline and calls _check_coords only to
    # raise, so both must accept the same blocks and raise the same errors
    j = random_joint(random.Random(3), Z4, 6, 32, coords=3)
    blocks = [(), (0,), (1,), (2,), (3,), (-1,), (0, 0), (0, 1), (1, 2)]
    for a in blocks:
        for b in blocks:
            for given in ((), (0,), (2,), (5,), (2, 2)):
                try:
                    for block in (a, b, a + b + given):
                        j._check_coords(block)
                    want = None
                except ValueError as exc:
                    want = str(exc)
                try:
                    is_independent(j, a, b, given)
                    got = None
                except ValueError as exc:
                    got = str(exc)
                assert got == want, (a, b, given)


def test_ci_trials_entropy_identity_random():
    rng = random.Random(11)
    for _ in range(30):
        j = random_joint(rng, Z4, 6, 32)
        t = ci_trials(j, 1)
        expect = 2 * j.entropy() - joint_entropy(j, [1])
        assert t.entropy() == pytest.approx(expect, abs=1e-9)
        # both trials are distributed as the original block
        assert t.dist(0) == j.dist(0)
        assert t.dist(1) == j.dist(0)


# ---------------------------------------------------------------------------
# total variation and identity


def test_tv_examples():
    u8 = Dist.uniform(Z, [(i,) for i in range(8)])
    assert tv_distance(u8, u8) == 0.0
    disjoint = Dist.uniform(Z, [(100,), (101,)])
    assert tv_distance(u8, disjoint) == pytest.approx(2.0, abs=1e-12)
    evens = Dist.uniform(Z, [(i,) for i in range(0, 8, 2)])
    assert tv_distance(u8, evens) == pytest.approx(1.0, abs=1e-12)


def test_dist_equal_and_compare():
    rng = random.Random(2)
    p = random_dist(rng, Z, 5, 32)
    assert convolve(Dist.point(Z, (4,)), p, "+") == p.translate((4,))
    same_mass_z2 = fair_bit(Z2)
    same_mass_z4 = Dist.uniform(Z4, [(0,), (1,)])
    assert same_mass_z2 != same_mass_z4
    assert same_mass_z2.group != same_mass_z4.group


# ---------------------------------------------------------------------------
# invariants on a fuzz corpus


def _fuzz_joints(n, seed=0):
    rng = random.Random(seed)
    for _ in range(n):
        g = GroupSpec([0]) if rng.randrange(2) else Z8
        yield random_joint(rng, g, 6, 64)


def test_sum_upper_bound_dependent():
    for j in _fuzz_joints(150):
        s = j.sum_dist([0, 1])
        assert entropy(s) <= joint_entropy(j, [0]) + joint_entropy(j, [1]) + 1e-9
        d = j.sum_dist([0, 1], signs=[1, -1])
        assert entropy(d) <= joint_entropy(j, [0]) + joint_entropy(j, [1]) + 1e-9


def test_independent_lower_bound():
    rng = random.Random(9)
    for _ in range(100):
        p = random_dist(rng, Z8, 6, 64)
        q = random_dist(rng, Z8, 6, 64)
        s = convolve(p, q, "+")
        assert max(entropy(p), entropy(q)) <= entropy(s) + 1e-9


def test_chain_rule_identity():
    for j in _fuzz_joints(200, seed=4):
        lhs = conditional_entropy(j, [0], [1])
        rhs = j.entropy() - joint_entropy(j, [1])
        assert abs(lhs - rhs) <= 1e-9


def test_conditioning_reduces_entropy_iff_independent():
    rng = random.Random(6)
    for _ in range(150):
        if rng.randrange(2):
            j = random_joint(rng, Z4, 6, 64)
        else:
            j = independent_joint(random_dist(rng, Z4, 4, 16), random_dist(rng, Z4, 4, 16))
        hx = joint_entropy(j, [0])
        hxy = conditional_entropy(j, [0], [1])
        assert hxy <= hx + 1e-9
        assert (abs(hx - hxy) <= 1e-9) == is_independent(j, [0], [1])


def test_marginal_monotonicity_and_squeeze():
    # Ent(Y) <= Ent(X,Y); Ent(X) - Ent(Y) <= Ent(X|Y) <= Ent(X); and the
    # determined-variable squeeze Ent(f(X)|Z) <= Ent(X|Z)
    for j in _fuzz_joints(100, seed=8):
        hx = joint_entropy(j, [0])
        hy = joint_entropy(j, [1])
        hxy = j.entropy()
        hx_y = conditional_entropy(j, [0], [1])
        assert hx <= hxy + 1e-9 and hy <= hxy + 1e-9
        assert hx - hy - 1e-9 <= hx_y <= hx + 1e-9
        g = j.groups[0]
        pushed = j.push(lambda a: (g.add(a[0], a[0]), a[1]), [g, j.groups[1]])
        assert conditional_entropy(pushed, [0], [1]) <= hx_y + 1e-9
        assert joint_entropy(pushed, [0]) <= hx + 1e-9  # f(X) has no more entropy


def test_conditional_subadditivity():
    # Ent(X,Y|Z) <= Ent(X|Z) + Ent(Y|Z) on random three-coordinate joints
    rng = random.Random(13)
    for _ in range(80):
        j = random_joint(rng, Z4, 8, 64, coords=3)
        lhs = conditional_entropy(j, [0, 1], [2])
        rhs = conditional_entropy(j, [0], [2]) + conditional_entropy(j, [1], [2])
        assert lhs <= rhs + 1e-9


def test_normalisation_enforced():
    with pytest.raises(ValueError):
        Dist(Z, {(0,): F(1, 2), (1,): F(1, 4)})
    with pytest.raises(ValueError):
        JointDist([Z, Z], {((0,), (0,)): F(1, 2)})


def _assert_bounds_support_before_building(monkeypatch, build):
    # the support is bounded by min(pair count, box of sums) and the cap is
    # checked against that bound before any count is read
    from entsum import dists
    from entsum.errors import CapExceededError

    interval = Dist.uniform(Z, [(i,) for i in range(4)])  # sums span 0..6: box 7
    quad = Dist.uniform(Z8, [(0,), (1,), (2,), (5,)])  # 16 pairs, box 8
    spread = Dist.uniform(GroupSpec([0, 8]), [(0, 0), (0, 3), (5, 1), (5, 6)])  # 16 pairs, box 88
    cases = ((interval, 7), (quad, 8), (spread, 16))
    expected = [build(p) for p, _ in cases]
    for (p, bound), want in zip(cases, expected):
        monkeypatch.setattr(dists, "SUPPORT_CAP", bound)
        assert build(p) == want

    def never(*args):
        raise AssertionError("convolution work ran past the cap")

    monkeypatch.setattr(dists, "_Kronecker", never)
    monkeypatch.setattr(GroupSpec, "add", never)
    for p, bound in cases:
        monkeypatch.setattr(dists, "SUPPORT_CAP", bound - 1)
        with pytest.raises(CapExceededError):
            build(p)


def test_iterated_convolve_bounds_support_before_building(monkeypatch):
    from entsum import dists

    _assert_bounds_support_before_building(monkeypatch, lambda p: dists.iterated_convolve(p, 2))


def test_convolve_bounds_support_before_building(monkeypatch):
    from entsum import dists

    _assert_bounds_support_before_building(monkeypatch, lambda p: dists.convolve(p, p, "-"))
