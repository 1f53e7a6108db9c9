"""Transport oracle, certificates, flattening, and uniformisation."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from entsum.dists import Dist, entropy
from entsum.errors import (
    CapExceededError,
    CertificateError,
    NonProperError,
    PreconditionError,
)
from entsum.fuzz import random_dist
from entsum.groups import GroupSpec
from entsum.progressions import CosetProgression, uniform_on
from entsum.transport import (
    MAX_TABLE_ORDER,
    compose_certificates,
    flatten,
    identity_certificate,
    independent_noise_certificate,
    independent_pair_certificate,
    reverse_certificate,
    transport_exact,
    transport_split,
    translate_shift,
    uniformise_coset_progression,
    uniformise_group,
)

Z = GroupSpec([0])
Z2 = GroupSpec([2])
Z4 = GroupSpec([4])
LOG2 = math.log(2)


def fair_bit(g=Z):
    return Dist.uniform(g, [(0,), (1,)])


# ---------------------------------------------------------------------------
# exact oracle


def test_oracle_translate_is_free():
    p = Dist(Z, {(0,): F(1, 2), (1,): F(1, 3), (2,): F(1, 6)})
    cert = transport_exact(p, p.translate((3,)))
    assert cert.cost == pytest.approx(0.0, abs=1e-12)
    assert cert.noise() == Dist.point(Z, (3,))


def test_oracle_collapse_to_point():
    cert = transport_exact(fair_bit(), Dist.point(Z, (0,)))
    # feasibility forces Z = -X, a fair bit
    assert cert.cost == pytest.approx(LOG2, abs=1e-9)


def test_oracle_biased_to_uniform():
    p = Dist(Z2, {(0,): F(3, 4), (1,): F(1, 4)})
    cert = transport_exact(p, fair_bit(Z2))
    h = float(F(1, 4)) * math.log(4) + float(F(3, 4)) * math.log(F(4, 3))
    assert cert.cost == pytest.approx(h, abs=1e-9)
    assert cert.cost == pytest.approx(0.562335, abs=1e-6)


def test_oracle_cap():
    big = Dist.uniform(Z, [(i,) for i in range(7)])
    with pytest.raises(CapExceededError):
        transport_exact(big, big.translate((1,)), cap=24)
    # a one-atom side leaves one coupling, but the cap is checked first
    wide, point = Dist.uniform(Z, [(i,) for i in range(25)]), Dist.point(Z, (0,))
    for p, q, nvars in ((point, wide, 25), (wide, point, 625)):
        with pytest.raises(CapExceededError, match=f"^exact oracle refused: {nvars} coupling "
                           "variables exceed cap 24; use the constructive bounds instead$"):
            transport_exact(p, q, cap=24)


def test_oracle_refuses_nan_cap():
    # NaN compares false either way, so the refusal must not read `nvars > cap`
    z8 = GroupSpec([8])
    pair = Dist.uniform(z8, [(0,), (1,)])
    uniform = Dist.uniform(z8, [(i,) for i in range(8)])
    point = Dist.point(z8, (0,))
    for p, q, nvars in ((pair, uniform, 16), (point, uniform, 8), (uniform, point, 64)):
        for cap in (3, math.nan):
            with pytest.raises(CapExceededError, match=f"^exact oracle refused: {nvars} coupling"):
                transport_exact(p, q, cap=cap)


def test_oracle_lower_bound_and_validation():
    rng = random.Random(5)
    for _ in range(60):
        g = Z4 if rng.randrange(2) else Z
        p = random_dist(rng, g, 3, 32)
        q = random_dist(rng, g, 3, 32)
        cert = transport_exact(p, q, cap=40)
        cert.validate(p)
        assert cert.cost >= max(0.0, entropy(q) - entropy(p)) - 1e-9


def test_oracle_zero_iff_translate():
    rng = random.Random(8)
    wrap = Dist(Z4, {(0,): F(1, 3), (3,): F(2, 3)})
    pairs = [(wrap, wrap.translate((1,)))]  # the translate wraps 3 -> 0
    pairs += [(random_dist(rng, Z4, 3, 16), random_dist(rng, Z4, 3, 16)) for _ in range(60)]
    for p, q in pairs:
        cost = transport_exact(p, q).cost
        assert (cost <= 1e-12) == (translate_shift(p, q) is not None)


def test_oracle_beats_constructive_certificates():
    rng = random.Random(13)
    for _ in range(40):
        p = random_dist(rng, Z4, 3, 16)
        q = random_dist(rng, Z4, 3, 16)
        exact = transport_exact(p, q).cost
        indep = independent_pair_certificate(p, q)
        indep.validate(p)
        assert exact <= indep.cost + 1e-9


def test_oracle_symmetry_empirical():
    # reported property: the infimum is symmetric on tiny instances
    rng = random.Random(17)
    worst = 0.0
    for _ in range(40):
        p = random_dist(rng, Z4, 3, 16)
        q = random_dist(rng, Z4, 3, 16)
        worst = max(worst, abs(transport_exact(p, q).cost - transport_exact(q, p).cost))
    assert worst <= 1e-9


def test_composition_triangle():
    rng = random.Random(23)
    for _ in range(30):
        p = random_dist(rng, Z4, 3, 16)
        q = random_dist(rng, Z4, 3, 16)
        r = random_dist(rng, Z4, 3, 16)
        c1 = transport_exact(p, q)
        c2 = transport_exact(q, r)
        both = compose_certificates(c1, c2)
        both.validate(p)
        assert both.target == r
        assert both.cost <= c1.cost + c2.cost + 1e-9


def test_reverse_certificate():
    rng = random.Random(29)
    p = random_dist(rng, Z4, 3, 16)
    q = random_dist(rng, Z4, 3, 16)
    cert = transport_exact(p, q)
    back = reverse_certificate(cert)
    back.validate(q)
    assert back.target == p
    assert back.cost == pytest.approx(cert.cost, abs=1e-12)


# ---------------------------------------------------------------------------
# splitting


def test_split_single_piece():
    rng = random.Random(3)
    p = random_dist(rng, Z4, 3, 16)
    cert = transport_exact(p, p.translate((1,)))
    glued = transport_split([(F(1), cert)], selector_entropy=0.0)
    assert glued.cost == pytest.approx(cert.cost, abs=1e-12)


def test_split_two_translates():
    p0 = Dist.point(Z, (0,))
    p1 = Dist.point(Z, (10,))
    c0 = identity_certificate(p0, (1,))
    c1 = identity_certificate(p1, (2,))
    glued = transport_split([(F(1, 2), c0), (F(1, 2), c1)], selector_entropy=LOG2)
    glued.validate()
    assert glued.cost <= LOG2 + 1e-9


def test_split_evens_to_full_interval():
    n = 8
    evens = Dist.uniform(Z, [(i,) for i in range(0, n, 2)])
    bit = fair_bit()
    cert = independent_noise_certificate(evens, bit)
    assert cert.target == Dist.uniform(Z, [(i,) for i in range(n)])
    assert cert.cost == pytest.approx(LOG2, abs=1e-12)


def test_split_weight_check():
    p = Dist.point(Z, (0,))
    with pytest.raises(CertificateError):
        transport_split([(F(1, 2), identity_certificate(p))], selector_entropy=0.0)


def test_split_refuses_negative_weights():
    c0 = identity_certificate(Dist.point(Z, (0,)))
    c1 = identity_certificate(Dist.point(Z, (10,)), (2,))
    for pieces in ([(F(3, 2), c0), (F(-1, 2), c0)], [(F(3, 2), c0), (F(-1, 2), c1)]):
        with pytest.raises(CertificateError, match="negative"):
            transport_split(pieces, selector_entropy=0.0)
    # a zero weight is still a piece of the split
    assert transport_split([(F(1), c0), (F(0), c1)], selector_entropy=0.0).target == c0.target


def test_split_refuses_nan_selector_entropy():
    cert = identity_certificate(Dist.point(Z, (0,)))
    with pytest.raises(CertificateError, match="split bound nan"):
        transport_split([(F(1), cert)], selector_entropy=math.nan)


# ---------------------------------------------------------------------------
# flattening


def test_flatten_point_on_z2():
    out, trace, cert = flatten(Dist.point(Z2, (0,)), 1)
    assert out == fair_bit(Z2)
    assert trace.shifts == [(1,)]
    assert cert.cost <= LOG2 + 1e-12


def test_flatten_uniform_skips_rounds():
    u = Dist.uniform(Z4, [(i,) for i in range(4)])
    out, trace, cert = flatten(u, 3)
    assert out == u
    assert trace.shifts == []
    assert cert.cost == 0.0


def test_flatten_halving_invariant():
    p = Dist(Z4, {(0,): F(3, 4), (1,): F(1, 4)})
    out, trace, cert = flatten(p, 2)
    trace.verify()
    assert trace.sq_dists[2] <= trace.sq_dists[0] / 4
    cert.validate(p)
    assert cert.target == out


def test_flatten_exact_scan_fallback(monkeypatch):
    # a zero shift never halves the distance, so every round falls back to
    # the exact scan, which must still halve it
    from entsum import transport

    exact_scans = []
    pick_exact = transport._pick_shift_exact
    monkeypatch.setattr(transport, "_pick_shift", lambda ad, q: ad.zero())
    monkeypatch.setattr(
        transport, "_pick_shift_exact", lambda ad, q: exact_scans.append(q) or pick_exact(ad, q)
    )
    p = Dist(GroupSpec([8]), {(0,): F(5, 8), (1,): F(1, 4), (5,): F(1, 8)})
    out, trace, cert = flatten(p, 3)
    assert len(trace.shifts) == len(exact_scans) == 3
    trace.verify()
    cert.validate(p)
    assert cert.target == out


def test_small_group_scan_matches_numpy():
    # groups up to _LIST_TABLE_ORDER scan in a Python loop over the digit law
    # `add`; the numpy table and column sums of larger groups are the reference
    import numpy as np

    from entsum import transport

    rng = random.Random(8)
    z4 = GroupSpec([4])
    groups = [transport._spec_group(GroupSpec(m)) for m in ([2], [5], [8], [2, 2], [2, 4])]
    groups.append(transport._box_group(z4, ((0,), (2,)), (2,)))  # H = {0, 2} in Z/4, times Z/2
    for ad in groups:
        assert ad.size <= transport._LIST_TABLE_ORDER
        assert [[ad.add(a, b) for b in range(ad.size)] for a in range(ad.size)] == ad.table.tolist()
        for _ in range(300):
            den = rng.choice([8, 64, 1000])
            mass = {e: rng.randrange(den) for e in range(ad.size)}
            d = np.array([mass[e] / den for e in range(ad.size)]) - 1.0 / ad.size
            shifted = (d[:, None] * d[ad.table]).sum(axis=0)
            assert transport._pick_shift(ad, (den, mass)) == int(np.argmin(shifted[ad._neg]))


def test_negation_matches_the_table():
    # `_neg` composes the digits and reads no table, on either side of _LIST_TABLE_ORDER
    from entsum import transport

    z4 = GroupSpec([4])
    groups = [transport._spec_group(GroupSpec(m)) for m in ([1], [2], [8], [12], [64], [2, 2, 3], [8, 8])]
    groups.append(transport._box_group(z4, ((0,), (2,)), (2,)))
    groups.append(transport._box_group(GroupSpec([2, 2]), tuple(GroupSpec([2, 2]).elements()), (3, 5)))
    for ad in groups:
        assert ad._neg == (ad.table == ad.zero()).argmax(axis=1).tolist()


def test_uniformise_on_small_groups_imports_no_numpy():
    code = (
        "import sys; from fractions import Fraction as F; from entsum.dists import Dist; "
        "from entsum.groups import GroupSpec; from entsum.transport import uniformise_group; "
        "p = Dist(GroupSpec([8]), {(0,): F(5, 8), (1,): F(1, 4), (5,): F(1, 8)}); "
        "uniformise_group(p, 1e9).validate(p); assert 'numpy' not in sys.modules"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_flatten_needs_finite_group():
    with pytest.raises(PreconditionError):
        flatten(fair_bit(Z), 1)


def test_flatten_fuzz_certificates():
    rng = random.Random(41)
    for _ in range(20):
        g = GroupSpec([8]) if rng.randrange(2) else GroupSpec([2, 4])
        p = random_dist(rng, g, 5, 32)
        k = rng.randrange(1, 5)
        out, trace, cert = flatten(p, k)
        trace.verify()
        cert.validate(p)
        assert cert.target == out
        assert cert.cost <= k * LOG2 + 1e-9


def test_flatten_table_cap():
    # the smallest group over the cap fails before its addition table is built
    g = GroupSpec([MAX_TABLE_ORDER + 1])
    p = Dist(g, {(0,): F(1, 2), (1,): F(1, 2)})
    with pytest.raises(CapExceededError):
        flatten(p, 1)
    with pytest.raises(CapExceededError):
        uniformise_group(p, 1e9)
    # the coset-progression box H x Z/2NZ is capped by its order as well
    cp = CosetProgression(Z, [(0,)], (0,), [(1,)], [MAX_TABLE_ORDER // 2 + 1])
    with pytest.raises(CapExceededError):
        uniformise_coset_progression(fair_bit(), cp)
    # a uniform law and zero rounds need no table
    u = Dist.uniform(g, g.elements())
    assert uniformise_group(u, 10).cost == 0.0
    assert flatten(p, 0)[0] == p


def test_sigma_split_table_cap():
    # a law on Z/2049 this close to uniform takes no shift scan, and would
    # sigma-split into about a million independent pairs
    g = GroupSpec([MAX_TABLE_ORDER + 1])
    counts = [2**22 + 1] * 1024 + [2**22 - 1] * 1024 + [2**22]
    p = Dist(g, {(e,): F(n, 2**22 * g.order()) for e, n in enumerate(counts)})
    with pytest.raises(CapExceededError, match=r"^group order 2049 exceeds the table cap 2048$"):
        uniformise_group(p, 1e9)


def test_digit_law_above_the_table_cap(monkeypatch):
    from entsum import transport

    g = GroupSpec([2 * MAX_TABLE_ORDER])
    ad = transport._spec_group(g)
    monkeypatch.setattr(transport._IndexedGroup, "table", property(lambda self: pytest.fail("read the table")))
    rng = random.Random(4096)
    for a, b in [(0, 0), (4095, 1), (4095, 4095)] + [(rng.randrange(4096), rng.randrange(4096)) for _ in range(200)]:
        assert ad.elems[ad.add(a, b)] == g.add(ad.elems[a], ad.elems[b])
        assert ad.elems[ad.sub(a, b)] == g.sub(ad.elems[a], ad.elems[b])
        assert ad.elems[ad.neg(a)] == g.neg(ad.elems[a])


# ---------------------------------------------------------------------------
# uniformisation on groups


def test_uniformise_identity():
    u = Dist.uniform(Z4, [(i,) for i in range(4)])
    cert = uniformise_group(u, 10)
    assert cert.cost == pytest.approx(0.0, abs=1e-12)


def test_uniformise_biased_bit():
    p = Dist(Z2, {(0,): F(3, 4), (1,): F(1, 4)})
    cert = uniformise_group(p, 10)
    cert.validate(p)
    oracle = transport_exact(p, fair_bit(Z2)).cost
    assert cert.target == fair_bit(Z2)
    assert cert.cost >= oracle - 1e-9


def test_uniformise_precondition():
    g = GroupSpec([64])
    p = Dist.point(g, (0,))
    with pytest.raises(PreconditionError):
        uniformise_group(p, 10)  # deficit log 64 > log 10


def test_uniformise_small_k_treated_as_ten():
    p = Dist(Z2, {(0,): F(3, 4), (1,): F(1, 4)})
    cert = uniformise_group(p, 1.0)  # deficit ~0.13 <= log 10
    cert.validate(p)


@pytest.mark.parametrize("entry", ["group", "progression"])
def test_uniformise_k_below_ten_counts_as_ten(entry):
    # on 64 points, uniform on 4 has deficit log 16, above log 10, and
    # uniform on 8 has deficit log 8, below it
    g = GroupSpec([64]) if entry == "group" else Z
    cp = CosetProgression(Z, [(0,)], (0,), [(1,)], [64])

    def run(p, k):
        return uniformise_group(p, k) if entry == "group" else uniformise_coset_progression(p, cp, k)

    four = Dist.uniform(g, [(i,) for i in range(4)])
    eight = Dist.uniform(g, [(i,) for i in range(8)])
    refusal = r"entropy deficit 2\.772589 exceeds log K = 2\.302585"
    for k in (0.5, 1, 9.99, 10):
        with pytest.raises(PreconditionError, match=refusal):
            run(four, k)
        run(eight, k).validate(eight)
    run(four, 16).validate(four)


@pytest.mark.parametrize("entry", ["group", "progression"])
def test_uniformise_refuses_nan_k(entry):
    g = GroupSpec([64]) if entry == "group" else Z
    cp = CosetProgression(Z, [(0,)], (0,), [(1,)], [64])

    def run(p, k):
        return uniformise_group(p, k) if entry == "group" else uniformise_coset_progression(p, cp, k)

    point = Dist.point(g, (0,))
    with pytest.raises(PreconditionError, match="nan"):
        run(point, float("nan"))
    # +inf still means no bound
    run(point, float("inf")).validate(point)


def test_uniformise_corpus_z64():
    g = GroupSpec([64])
    uniform = Dist.uniform(g, [(i,) for i in range(64)])
    rng = random.Random(64)
    for _ in range(5):
        parts = [1] * 64
        extra = rng.randrange(32, 192)
        for _ in range(extra):
            parts[rng.randrange(16)] += 1
        den = 64 + extra
        p = Dist(g, {(i,): F(parts[i], den) for i in range(64)})
        deficit = math.log(64) - entropy(p)
        cert = uniformise_group(p, math.exp(deficit) + 1)
        cert.validate(p)
        assert cert.target == uniform
        assert cert.cost >= deficit - 1e-9  # entropy lower bound


# ---------------------------------------------------------------------------
# uniformisation on coset progressions


def test_coset_progression_uniform_is_free():
    cp = CosetProgression(Z, [(0,)], (0,), [(1,)], [5])
    cert = uniformise_coset_progression(uniform_on(cp), cp)
    assert cert.cost == pytest.approx(0.0, abs=1e-12)


def test_coset_progression_evens():
    cp = CosetProgression(Z, [(0,)], (0,), [(1,)], [8])
    p = Dist.uniform(Z, [(i,) for i in range(0, 8, 2)])
    cert = uniformise_coset_progression(p, cp)
    cert.validate(p)
    assert cert.target == uniform_on(cp)
    assert cert.cost >= LOG2 - 1e-9  # entropy-gap lower bound


def test_coset_progression_rank2_box():
    g2 = GroupSpec([0, 0])
    cp = CosetProgression(g2, [(0, 0)], (0, 0), [(1, 0), (0, 1)], [4, 4])
    # up-weight one row to create a mild entropy deficit
    mass = {}
    for i in range(4):
        for j in range(4):
            mass[(i, j)] = F(3, 72) if i == 0 else F(5, 72) * F(72, 60) * F(5, 6)
    total = sum(mass.values())
    mass = {k: v / total for k, v in mass.items()}
    p = Dist(g2, mass)
    cert = uniformise_coset_progression(p, cp)
    cert.validate(p)
    assert cert.target == uniform_on(cp)
    assert cert.cost >= (math.log(16) - entropy(p)) - 1e-9


def test_coset_progression_with_subgroup_part():
    g = GroupSpec([4, 0])
    cp = CosetProgression(g, [(0, 0), (2, 0)], (1, 0), [(0, 1)], [3])
    u = uniform_on(cp)
    assert entropy(u) == pytest.approx(math.log(6), abs=1e-12)
    biased = Dist(
        g,
        {e: (F(1, 4) if i == 0 else F(3, 20)) for i, e in enumerate(sorted(cp.enumerate()))},
    )
    cert = uniformise_coset_progression(biased, cp)
    cert.validate(biased)
    assert cert.target == u


def test_coset_progression_rejects_nonproper():
    cp = CosetProgression(Z4, [(0,)], (0,), [(2,)], [3])
    p = Dist.uniform(Z4, [(0,), (2,)])
    with pytest.raises(NonProperError):
        uniformise_coset_progression(p, cp)


def test_coset_progression_rejects_outside_support():
    cp = CosetProgression(Z, [(0,)], (0,), [(1,)], [4])
    p = Dist.uniform(Z, [(0,), (7,)])
    with pytest.raises(PreconditionError):
        uniformise_coset_progression(p, cp)
