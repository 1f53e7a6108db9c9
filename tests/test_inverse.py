"""Coset detection, effective supports, additive energy, structure fixtures."""

import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest

from entsum.dists import Dist, convolve
from entsum.errors import CapExceededError
from entsum.fuzz import random_dist
from entsum.groups import GroupSpec
from entsum.inverse import (
    additive_energy,
    detect_coset_uniform,
    effective_support,
    effective_support_search,
    verify_inverse_fixtures,
)
from entsum.metrics import doubling_constant
from entsum.torsionfree import binomial_dist

Z = GroupSpec([0])
Z4 = GroupSpec([4])


def test_detect_examples():
    accept = detect_coset_uniform(Dist.uniform(Z4, [(1,), (3,)]))
    assert accept.is_coset_uniform
    assert accept.subgroup == frozenset({(0,), (2,)})
    assert accept.doubling == pytest.approx(1.0, abs=1e-12)

    reject = detect_coset_uniform(
        Dist(Z4, {(0,): F(1, 2), (1,): F(1, 4), (2,): F(1, 4)})
    )
    assert not reject.is_coset_uniform
    assert reject.doubling > 1.0 + 1e-9

    z_reject = detect_coset_uniform(Dist.uniform(Z, [(0,), (1,)]))
    assert not z_reject.is_coset_uniform  # S + S = {0, 1, 2} is larger than S


def test_detect_point_mass():
    rep = detect_coset_uniform(Dist.point(Z, (7,)))
    assert rep.is_coset_uniform and rep.subgroup == frozenset({(0,)})


def test_detect_large_uniform_group_fast():
    # 4096**2 atom pairs: a detector quadratic in the support would take minutes
    g = GroupSpec([4096])
    p = Dist.uniform(g, [(i,) for i in range(4096)])
    t0 = time.perf_counter()
    rep = detect_coset_uniform(p)
    assert time.perf_counter() - t0 < 1.0
    assert rep.is_coset_uniform and rep.base == (0,)
    assert rep.subgroup == frozenset(p.support())
    assert rep.doubling == doubling_constant(p)


def _all_rational_dists(n, max_den):
    """Every distribution with denominator <= max_den supported in Z/n."""
    g = GroupSpec([n])
    seen = set()
    for den in range(1, max_den + 1):
        for parts in itertools.product(range(den + 1), repeat=n):
            if sum(parts) != den:
                continue
            key = tuple(F(p, den) for p in parts)
            if key in seen:
                continue
            seen.add(key)
            yield Dist(g, {(i,): F(p, den) for i, p in enumerate(parts) if p})


def test_detector_equivalence_small_exhaustive():
    # acceptance runs the full denominator<=6, n<=6 sweep; keep a fast slice here
    for n in (2, 3, 4):
        for p in _all_rational_dists(n, 4):
            sigma = doubling_constant(p)
            assert detect_coset_uniform(p).is_coset_uniform == (abs(sigma - 1.0) <= 1e-9)


def test_effective_support_uniform():
    u = Dist.uniform(Z, [(i,) for i in range(16)])
    rep = effective_support(u, 2.0)
    assert len(rep.core_set) == 16
    assert rep.mass == 1
    assert rep.log_size_gap == pytest.approx(0.0, abs=1e-12)
    assert not rep.c_too_small


def test_effective_support_binomial():
    rep = effective_support(binomial_dist(20), 4.0)
    assert rep.mass >= F(1, 2)
    assert abs(rep.log_size_gap) <= math.log(4.0) + 0.7


def test_effective_support_mixture_needs_search():
    # heavy atom plus a long thin tail: tiny C misses half the mass
    n = 64
    mass = {(0,): F(1, 2)}
    mass.update({(i,): F(1, 2 * n) for i in range(1, n + 1)})
    p = Dist(Z, mass)
    assert effective_support(p, 1.1).c_too_small
    rep = effective_support_search(p, 1.1)
    assert rep.mass >= F(1, 2)


def test_effective_support_refuses_nan_c():
    p = binomial_dist(4)
    for search in (effective_support, effective_support_search):
        with pytest.raises(ValueError, match="got nan"):
            search(p, float("nan"))


def test_additive_energy_examples():
    assert additive_energy({(0,), (1,), (2,)}, Z) == 19
    for m in (2, 3, 5):
        g = GroupSpec([m])
        assert additive_energy({(i,) for i in range(m)}, g) == m**3
    n = 100
    ap = {(i,) for i in range(n)}
    direct = additive_energy(ap, Z)
    assert direct == 2 * (n - 1) * n * (2 * n - 1) // 6 + n * n
    assert abs(direct - (2 / 3) * n**3) <= 2 * n**2


def test_additive_energy_upper_bound_and_cap():
    rng = random.Random(2)
    for _ in range(20):
        p = random_dist(rng, Z4, 4, 16)
        a = set(p.support())
        e = additive_energy(a, Z4)
        assert e <= len(a) ** 3
    with pytest.raises(CapExceededError):
        additive_energy({(i,) for i in range(2001)}, Z)


def test_energy_equality_iff_coset():
    # equality at |A|^3 exactly on subgroup cosets
    g = GroupSpec([8])
    coset = {(1,), (3,), (5,), (7,)}
    assert additive_energy(coset, g) == 4**3
    not_coset = {(0,), (1,), (2,)}
    assert additive_energy(not_coset, g) < 27


def test_fixture_corpus():
    u32 = Dist.uniform(Z, [(i,) for i in range(32)])
    bit = Dist.uniform(Z, [(0,), (1,)])
    g64 = GroupSpec([64])
    rng = random.Random(5)
    x64 = random_dist(rng, g64, 6, 64)
    noise = Dist(g64, {(0,): F(3, 4), (1,): F(1, 4)})
    corpus = [
        {"name": "interval_plus_bit", "kind": "factorised", "uniform": u32, "noise": bit},
        {"name": "self_pair", "kind": "paired", "x": x64, "y": x64},
        {"name": "noised_pair", "kind": "paired", "x": x64, "y": convolve(x64, noise, "+")},
    ]
    results = verify_inverse_fixtures(corpus)
    assert all(r.ok for r in results)
    by_name = {r.name: r for r in results}
    assert by_name["interval_plus_bit"].details["transport_cost"] <= math.log(2) + 1e-9


def test_paired_bound_fuzz():
    g = GroupSpec([64])
    rng = random.Random(11)
    corpus = []
    for i in range(15):
        x = random_dist(rng, g, 6, 64)
        y = random_dist(rng, g, 6, 64)
        corpus.append({"name": f"pair{i}", "kind": "paired", "x": x, "y": y})
    assert all(r.ok for r in verify_inverse_fixtures(corpus))


def test_energy_ratio_on_curated_small_doubling_family():
    # curated family with small doubling: window sets keep energy >= |A|^3/16
    fixtures = [
        Dist.uniform(Z, [(i,) for i in range(12)]),           # interval
        Dist.uniform(Z, [(2 * i,) for i in range(10)]),       # spaced interval
        Dist.uniform(GroupSpec([16]), [(i,) for i in range(16)]),  # full group
        binomial_dist(16),                                    # gaussian-like walk
        Dist.uniform(GroupSpec([8]), [(1,), (3,), (5,), (7,)]),    # coset
    ]
    for p in fixtures:
        rep = effective_support_search(p, 2.0)
        assert rep.mass >= F(1, 2)
        assert rep.energy_ratio >= 1.0 / 16.0, (p, rep.energy_ratio)
