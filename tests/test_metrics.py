"""Ruzsa distance, doubling, the sumset estimate suite, level sets."""

import math
import random
from fractions import Fraction as F

import pytest

from entsum.dists import Dist, convolve, entropy
from entsum.errors import IncompatibleGroupError, PreconditionError
from entsum.fuzz import random_dist
from entsum.groups import GroupSpec
from entsum.metrics import (
    check_ese_suite,
    check_lipschitz,
    density_level,
    doubling_constant,
    jensen_level_sets,
    ruzsa_distance,
    sumset_increase_lhs,
    sumset_increase_report,
    three_sum_bound,
)

Z = GroupSpec([0])
Z2 = GroupSpec([2])
Z4 = GroupSpec([4])
Z8 = GroupSpec([8])
LOG2 = math.log(2)


def test_ruzsa_examples():
    sub = Dist.uniform(Z4, [(0,), (2,)])
    assert ruzsa_distance(sub, sub) == pytest.approx(0.0, abs=1e-12)
    u01 = Dist.uniform(Z, [(0,), (1,)])
    # difference law (1/4, 1/2, 1/4): d_R = 1.5 log2 - log2
    assert ruzsa_distance(u01, u01) == pytest.approx(0.5 * LOG2, abs=1e-12)
    assert ruzsa_distance(Dist.point(Z, (0,)), Dist.point(Z, (5,))) == pytest.approx(
        0.0, abs=1e-12
    )
    with pytest.raises(IncompatibleGroupError):
        ruzsa_distance(u01, Dist.uniform(Z2, [(0,), (1,)]))


def test_doubling_examples():
    coset = Dist.uniform(Z4, [(1,), (3,)])
    assert doubling_constant(coset) == pytest.approx(1.0, abs=1e-12)
    u01 = Dist.uniform(Z, [(0,), (1,)])
    assert doubling_constant(u01) == pytest.approx(math.sqrt(2), abs=1e-9)


def test_doubling_at_least_one():
    rng = random.Random(21)
    for _ in range(100):
        p = random_dist(rng, Z8, 6, 64)
        assert doubling_constant(p) >= 1.0 - 1e-9


def test_ese_closed_form_instance():
    u01 = Dist.uniform(Z, [(0,), (1,)])
    reports = {r.name: r for r in check_ese_suite(u01, u01, u01, 1)}
    # closed forms: Ent(X+Y) = Ent(X-Y) = 1.5 log2, Ent(X) = log2
    assert reports["sum_vs_difference"].lhs == pytest.approx(1.5 * LOG2, abs=1e-9)
    assert reports["sum_vs_difference"].rhs == pytest.approx(4.5 * LOG2 - 2 * LOG2, abs=1e-9)
    assert reports["sum_vs_difference"].slack == pytest.approx(LOG2, abs=1e-9)
    assert reports["ruzsa_triangle"].slack == pytest.approx(0.5 * LOG2, abs=1e-9)
    for r in reports.values():
        assert r.slack >= -1e-9


def test_ese_subgroup_equality():
    u = Dist.uniform(Z2, [(0,), (1,)])
    for n in (1, 2):
        for r in check_ese_suite(u, u, u, n):
            if r.kind == "bound":
                assert abs(r.slack) <= 1e-9  # every entropy equals log 2


def test_ese_fuzz_no_violations():
    rng = random.Random(2024)
    for _ in range(150):
        g = Z if rng.randrange(2) else Z8
        p = random_dist(rng, g, 6, 64)
        q = random_dist(rng, g, 6, 64)
        r = random_dist(rng, g, 6, 64)
        for rep in check_ese_suite(p, q, r, 1 + rng.randrange(3)):
            assert not rep.violated(), rep.name


def test_ese_rejects_large_n():
    u = Dist.uniform(Z2, [(0,), (1,)])
    with pytest.raises(PreconditionError):
        check_ese_suite(u, u, u, 5)


def test_lipschitz_translation_invariance():
    rng = random.Random(5)
    p_x = random_dist(rng, Z4, 3, 16)
    p_y = random_dist(rng, Z4, 3, 16)
    reports = check_lipschitz(p_x, p_x.translate((1,)), p_y, p_y.translate((2,)))
    by_name = {r.name: r for r in reports}
    # translates transport for free, so both sides of the Lipschitz bound vanish
    assert by_name["ruzsa_transport_lipschitz"].lhs == pytest.approx(0.0, abs=1e-9)
    assert by_name["ruzsa_transport_lipschitz"].rhs == pytest.approx(0.0, abs=1e-9)
    assert by_name["doubling_negation_identity"].lhs <= 1e-9


def test_dubdub_identity_fair_bit():
    u01 = Dist.uniform(Z, [(0,), (1,)])
    assert math.log(doubling_constant(u01)) == pytest.approx(
        ruzsa_distance(u01, u01.negate()), abs=1e-12
    )
    assert math.log(doubling_constant(u01)) == pytest.approx(0.5 * LOG2, abs=1e-9)


def test_lipschitz_fuzz():
    rng = random.Random(77)
    for _ in range(25):
        dists = [random_dist(rng, Z4, 3, 16) for _ in range(4)]
        for rep in check_lipschitz(*dists):
            assert not rep.violated(), rep.name


# ---------------------------------------------------------------------------
# sumset increase formula


def test_sumset_increase_translate():
    rng = random.Random(1)
    p = random_dist(rng, Z, 5, 32)
    q = Dist.point(Z, (7,))
    assert sumset_increase_lhs(p, q) == pytest.approx(0.0, abs=1e-12)
    assert entropy(convolve(p, q, "+")) - entropy(p) == pytest.approx(0.0, abs=1e-12)


def test_sumset_increase_hand_value():
    u01 = Dist.uniform(Z, [(0,), (1,)])
    # 4-term enumeration gives L = (1/2) log 2 and the same entropy gap
    assert sumset_increase_lhs(u01, u01) == pytest.approx(0.5 * LOG2, abs=1e-12)
    rep = sumset_increase_report(u01, u01)
    assert rep.lhs == pytest.approx(0.0, abs=1e-9)


def test_sumset_increase_constant_one():
    rng = random.Random(31)
    for _ in range(200):
        g = Z if rng.randrange(2) else Z8
        p = random_dist(rng, g, 6, 64)
        q = random_dist(rng, g, 6, 64)
        rep = sumset_increase_report(p, q)
        assert rep.lhs <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# level sets


def test_density_level_thresholds():
    assert density_level(F(3, 2)) == 0
    assert density_level(F(2)) == 1
    assert density_level(F(4)) == 2
    assert density_level(F(15)) == 2
    assert density_level(F(16)) == 3


def test_jensen_uniform_all_level_zero():
    u = Dist.uniform(Z8, [(i,) for i in range(8)])
    rep = jensen_level_sets(u, [(i,) for i in range(8)], 1.0 + 1e-9)
    assert rep.levels == {}
    assert rep.weighted_sum == 0.0


def test_jensen_heavy_atom():
    g = GroupSpec([16])
    ambient = [(i,) for i in range(16)]
    mass = {(0,): F(1, 2)}
    mass.update({(i,): F(1, 30) for i in range(1, 16)})
    p = Dist(g, mass)
    deficit = math.log(16) - entropy(p)
    rep = jensen_level_sets(p, ambient, math.exp(deficit) * (1 + 1e-9))
    # the heavy atom has p|A| = 8, landing in level 2
    assert rep.levels == {2: ((0,),)}
    assert rep.weighted_sum <= rep.log_k
    assert rep.weighted_sum == pytest.approx(max(2 * LOG2 - 1, 0.0) * 0.5, abs=1e-9)


def test_jensen_precondition():
    g = GroupSpec([16])
    p = Dist.point(g, (0,))
    with pytest.raises(PreconditionError):
        jensen_level_sets(p, [(i,) for i in range(16)], 2.0)


@pytest.mark.parametrize("k", [float("nan"), 0, -1])
def test_jensen_refuses_nan_k(k):
    p = Dist.point(GroupSpec([64]), (0,))
    with pytest.raises(PreconditionError, match=f"got {k}"):
        jensen_level_sets(p, [(i,) for i in range(64)], k)


def test_jensen_fuzz_zero_violations():
    rng = random.Random(12)
    for _ in range(150):
        size = [8, 16, 32][rng.randrange(3)]
        g = GroupSpec([size])
        p = random_dist(rng, g, min(6, size), 64)
        deficit = math.log(size) - entropy(p)
        rep = jensen_level_sets(p, [(i,) for i in range(size)], math.exp(deficit) * (1 + 1e-9))
        assert rep.weighted_sum <= rep.log_k + 1e-9


# ---------------------------------------------------------------------------
# three-variable bound


def test_three_sum_bound_fuzz():
    rng = random.Random(99)
    for _ in range(100):
        g = Z if rng.randrange(2) else Z8
        x, y, z = (random_dist(rng, g, 5, 64) for _ in range(3))
        assert not three_sum_bound(x, y, z).violated()


def test_doubling_one_iff_coset_uniform_subsets():
    # exhaustive over uniform laws on every non-empty subset of Z/n, n <= 8
    from entsum.inverse import detect_coset_uniform

    for n in range(1, 9):
        g = GroupSpec([n])
        els = [(i,) for i in range(n)]
        for mask in range(1, 1 << n):
            subset = [els[i] for i in range(n) if mask >> i & 1]
            p = Dist.uniform(g, subset)
            sigma = doubling_constant(p)
            accepted = detect_coset_uniform(p).is_coset_uniform
            assert accepted == (abs(sigma - 1.0) <= 1e-9), (n, subset)


def test_ese_support_cap_error(monkeypatch):
    from entsum import dists
    from entsum.errors import CapExceededError

    wide = Dist.uniform(Z, [(7 * i,) for i in range(6)])
    monkeypatch.setattr(dists, "SUPPORT_CAP", 50)
    with pytest.raises(CapExceededError):
        check_ese_suite(wide, wide, wide, 4)
