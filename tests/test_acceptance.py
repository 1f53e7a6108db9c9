"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expected values are frozen from independent closed forms or stated
tolerances; the uniformisation costs are regression-pinned in
tests/data/uniformise_costs.json, and the certificates themselves by the
sha256 in tests/data/uniformise_certs.sha256.
"""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from entsum.bsg import BsgInstance, build_path_joint, factorization_exact, verify_bsg
from entsum.dists import (
    Dist,
    conditional_entropy,
    entropy,
    f_nats,
    f_prime,
    joint_entropy,
)
from entsum.fuzz import FuzzConfig, fuzz_run, random_dist, random_joint
from entsum.groups import GroupSpec
from entsum.metrics import check_ese_suite, doubling_constant
from entsum.progressions import CosetProgression, uniform_on
from entsum.torsionfree import (
    PiecewiseDensity,
    abbn_check,
    binomial_entropy_gap,
    bridge_entropy,
    continuous_entropy,
    doubling_experiment,
    smooth_shift_search,
)
from entsum.transport import (
    independent_pair_certificate,
    transport_exact,
    uniformise_coset_progression,
    uniformise_group,
)

Z = GroupSpec([0])
DATA = Path(__file__).parent / "data"


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


# ---------------------------------------------------------------------------


def test_criterion_01_exact_entropy_identities():
    ok = True
    for n in range(2, 1025):
        u = Dist.uniform(Z, [(i,) for i in range(n)])
        if abs(entropy(u) - math.log(n)) > 1e-12:
            ok = False
            break
    rng = random.Random(101)
    worst = 0.0
    for _ in range(10_000):
        g = Z if rng.randrange(2) else GroupSpec([8])
        j = random_joint(rng, g, 6, 64)
        diff = abs(conditional_entropy(j, [0], [1]) - (j.entropy() - joint_entropy(j, [1])))
        worst = max(worst, diff)
    ok = ok and worst <= 1e-9
    _report(1, f"uniform entropies exact to 1e-12; chain rule worst {worst:.2e} <= 1e-9", ok)


def test_criterion_02_ese_suite():
    rng = random.Random(202)
    violations = 0
    min_slack = math.inf
    for _ in range(10_000):
        g = Z if rng.randrange(2) else GroupSpec([8])
        p = random_dist(rng, g, 6, 64)
        q = random_dist(rng, g, 6, 64)
        r = random_dist(rng, g, 6, 64)
        n = 1 + rng.randrange(3)
        for rep in check_ese_suite(p, q, r, n):
            if rep.kind == "bound":
                min_slack = min(min_slack, rep.slack)
                if rep.violated():
                    violations += 1
    _report(2, f"10^4 sumset-suite instances, {violations} violations, min slack {min_slack:.2e}", violations == 0)


def test_criterion_03_bsg():
    rng = random.Random(303)
    violations = 0
    for _ in range(1_000):
        g = GroupSpec([4]) if rng.randrange(2) else Z
        j = random_joint(rng, g, 6, 64)
        inst = BsgInstance.from_joint(j)
        if not factorization_exact(build_path_joint(inst)):
            violations += 1
            continue
        for rep in verify_bsg(inst):
            if rep.violated():
                violations += 1
    _report(3, f"10^3 path-joint instances, {violations} violations, factorization exact", violations == 0)


def test_criterion_04_transport_oracle():
    # reference values first
    p = Dist(GroupSpec([2]), {(0,): F(3, 4), (1,): F(1, 4)})
    u2 = Dist.uniform(GroupSpec([2]), [(0,), (1,)])
    ok = abs(transport_exact(p, u2).cost - 0.562335) <= 1e-6
    u01 = Dist.uniform(Z, [(0,), (1,)])
    ok = ok and abs(transport_exact(u01, Dist.point(Z, (0,))).cost - math.log(2)) <= 1e-9

    rng = random.Random(404)
    checked = 0
    while checked < 500:
        g = GroupSpec([4]) if rng.randrange(2) else GroupSpec([8])
        cap = 4 if g.moduli[0] == 4 else 3
        psrc = random_dist(rng, g, cap, 64)
        if rng.randrange(4) == 0:
            qtgt = Dist.uniform(g, g.elements())
        else:
            qtgt = random_dist(rng, g, cap, 64)
        if len(psrc) * len({g.sub(y, x) for y in qtgt.support() for x in psrc.support()}) > 24:
            continue
        cert = transport_exact(psrc, qtgt)
        cert.validate(psrc)  # exact marginal + pushforward
        lower = max(0.0, entropy(qtgt) - entropy(psrc)) - 1e-9
        if cert.cost < lower:
            ok = False
        indep = independent_pair_certificate(psrc, qtgt)
        indep.validate(psrc)
        if cert.cost > indep.cost + 1e-9:
            ok = False
        if qtgt == Dist.uniform(g, g.elements()):
            constructive = uniformise_group(psrc, 1e9)
            constructive.validate(psrc)
            if cert.cost > constructive.cost + 1e-9:
                ok = False
        checked += 1
    _report(4, "500-instance oracle corpus: optimality, lower bounds, exact certificates", ok)


def _uniformise_corpus():
    """100 deterministic fixtures: 60 on Z/64, 40 on proper progressions."""
    fixtures = []
    g64 = GroupSpec([64])
    rng = random.Random(505)
    while len(fixtures) < 60:
        size = rng.randrange(16, 65)
        p = random_dist(rng, g64, size, 256)
        deficit = math.log(64) - entropy(p)
        if 0.5 <= deficit <= 3.0:
            fixtures.append((f"z64_{len(fixtures):02d}", "group", p, None))
    g2 = GroupSpec([0, 0])
    cp_shapes = [
        CosetProgression(Z, [(0,)], (0,), [(1,)], [16]),
        CosetProgression(Z, [(0,)], (5,), [(2,)], [12]),
        CosetProgression(g2, [(0, 0)], (0, 0), [(1, 0), (0, 1)], [4, 4]),
        CosetProgression(GroupSpec([8, 0]), [(0, 0), (4, 0)], (1, 0), [(0, 1)], [6]),
    ]
    count = 0
    while count < 40:
        cp = cp_shapes[count % len(cp_shapes)]
        elements = sorted(cp.enumerate())
        size = rng.randrange(max(4, len(elements) // 3), len(elements) + 1)
        support = sorted(rng.sample(elements, size))
        den = rng.randrange(size, 257)
        cuts = sorted(rng.sample(range(1, den), size - 1)) if size > 1 else []
        edges = [0] + cuts + [den]
        parts = [b - a for a, b in zip(edges, edges[1:])]
        p = Dist(cp.group, {e: F(n, den) for e, n in zip(support, parts)})
        deficit = math.log(len(elements)) - entropy(p)
        if 0.5 <= deficit <= 3.0:
            fixtures.append((f"prog_{count:02d}", "progression", p, cp))
            count += 1
    return fixtures


def _uniformise_costs() -> tuple[dict[str, float], str, bool]:
    """Cost of each fixture's certificate, the sha256 of their certificates, and
    whether all hit their targets.

    The digest covers one `json.dumps(cert.to_json(), sort_keys=True)` line per
    fixture, newline-terminated, in fixture order.
    """
    costs = {}
    digest = hashlib.sha256()
    ok = True
    for name, kind, p, cp in _uniformise_corpus():
        if kind == "group":
            deficit = math.log(64) - entropy(p)
            cert = uniformise_group(p, math.exp(deficit) + 1)
            target = Dist.uniform(p.group, p.group.elements())
        else:
            cert = uniformise_coset_progression(p, cp)
            target = uniform_on(cp)
        cert.validate(p)  # exact rational identity X + Z ≡ uniform
        if cert.target != target:
            ok = False
        costs[name] = cert.cost
        digest.update((json.dumps(cert.to_json(), sort_keys=True) + "\n").encode())
    return costs, digest.hexdigest(), ok


def test_criterion_05_uniformisation():
    pins = [DATA / "uniformise_costs.json", DATA / "uniformise_certs.sha256"]
    for path in pins:
        if not path.exists():
            _report(5, f"pin file {path} missing; see scripts/regen_uniformise_pins.py", False)
    pinned = json.loads(pins[0].read_text())
    costs, digest, ok = _uniformise_costs()
    for name, cost in costs.items():
        if abs(cost - pinned[name]) > 1e-6 * max(1.0, abs(pinned[name])):
            ok = False
    same_certs = digest == pins[1].read_text().strip()
    worst_ratio = max(
        costs[n] / (math.log(64) + 1.0) for n in costs if n.startswith("z64")
    )
    _report(
        5,
        f"100 uniformisation fixtures exact; certificates pinned: {same_certs}; "
        f"measured c0 <= {worst_ratio:.3f}",
        ok and same_certs,
    )


def test_criterion_05_missing_pin_fails(tmp_path, monkeypatch):
    # a gate must never pass, or rewrite its reference, when the pin is missing
    monkeypatch.setitem(globals(), "DATA", tmp_path)
    with pytest.raises(AssertionError, match="criterion 5 failed"):
        test_criterion_05_uniformisation()
    assert not any(tmp_path.iterdir())


def test_criterion_05_changed_certificate_fails(tmp_path, monkeypatch):
    # equal costs are not enough: a certificate whose bytes differ must fail
    corpus = _uniformise_corpus()[:2]
    (tmp_path / "uniformise_costs.json").write_text((DATA / "uniformise_costs.json").read_text())
    monkeypatch.setitem(globals(), "_uniformise_corpus", lambda: corpus)
    monkeypatch.setitem(globals(), "DATA", tmp_path)
    _, digest, _ = _uniformise_costs()
    (tmp_path / "uniformise_certs.sha256").write_text(digest + "\n")
    test_criterion_05_uniformisation()
    (tmp_path / "uniformise_certs.sha256").write_text(digest[::-1] + "\n")
    with pytest.raises(AssertionError, match="criterion 5 failed"):
        test_criterion_05_uniformisation()


def test_criterion_06_coset_equivalence():
    from entsum.inverse import detect_coset_uniform

    ok = True
    tested = 0
    for n in range(1, 7):
        g = GroupSpec([n])
        seen = set()
        for den in range(1, 7):
            for parts in itertools.product(range(den + 1), repeat=n):
                if sum(parts) != den:
                    continue
                key = tuple(F(c, den) for c in parts)
                if key in seen:
                    continue
                seen.add(key)
                p = Dist(g, {(i,): F(c, den) for i, c in enumerate(parts) if c})
                sigma = doubling_constant(p)
                accepted = detect_coset_uniform(p).is_coset_uniform
                if accepted != (abs(sigma - 1.0) <= 1e-9):
                    ok = False
                tested += 1
    _report(6, f"detector equivalence exhaustive over {tested} distributions", ok)


def test_criterion_07_sqrt2_experiment():
    sigma = doubling_experiment(1000)
    gap = binomial_entropy_gap(1000)
    ok = abs(sigma - math.sqrt(2)) <= 0.005 and abs(gap) <= 0.01
    _report(7, f"sigma[X_1000] = {sigma:.6f} (|err| <= 0.005), gap(1000) = {gap:.2e} (<= 0.01)", ok)


def test_criterion_08_bridge_and_continuous():
    rng = random.Random(808)
    ok = True
    for _ in range(1_000):
        p = random_dist(rng, Z, 8, 64)
        _, ent = bridge_entropy(p)  # raises beyond 1e-9 internally
        if abs(ent - entropy(p)) > 1e-9:
            ok = False
    tri = PiecewiseDensity([0, 1, 2], [(0, 1), (2, -1)])
    ok = ok and continuous_entropy(tri) == 0.5
    min_slack = math.inf
    for i in range(200):
        srng = random.Random(9000 + i)

        def rand_step():
            pieces = srng.randrange(1, 6)
            den = srng.randrange(pieces, 64 + pieces)
            cuts = sorted(srng.sample(range(1, den), pieces - 1)) if pieces > 1 else []
            edges = [0] + cuts + [den]
            lo = srng.randrange(-4, 5)
            return PiecewiseDensity(
                range(lo, lo + pieces + 1),
                [(F(b - a, den), 0) for a, b in zip(edges, edges[1:])],
            )

        rep = abbn_check(rand_step(), rand_step())
        min_slack = min(min_slack, rep.slack)
    ok = ok and min_slack >= -1e-6
    _report(8, f"bridge exact on 10^3 laws; triangle entropy 0.5; min convolution slack {min_slack:.3f}", ok)


def test_criterion_09_fourier_smoothness():
    u16 = Dist.uniform(Z, [(i,) for i in range(16)])
    rep = smooth_shift_search(u16, 0.1)
    ok = abs(rep.realized_tv - 0.125) <= 1e-9
    fixtures = [
        rep,
        smooth_shift_search(Dist.uniform(Z, [(2 * i,) for i in range(8)]), 0.1, box=[16]),
        smooth_shift_search(
            Dist.uniform(GroupSpec([0, 0]), [(i, j) for i in range(4) for j in range(4)]),
            0.3,
        ),
    ]
    rng = random.Random(909)
    for _ in range(5):
        try:
            fixtures.append(smooth_shift_search(random_dist(rng, Z, 6, 32), 0.3))
        except Exception:
            pass
    parseval_worst = max(abs(r.parseval_lhs - r.parseval_rhs) for r in fixtures)
    ok = ok and parseval_worst <= 1e-9
    _report(9, f"shift-TV = {rep.realized_tv} (0.125 +- 1e-9); Parseval worst {parseval_worst:.2e}", ok)


def test_criterion_10_scalar_suite():
    rng = random.Random(1010)
    inv_e = 1.0 / math.e
    violations = 0

    def rand_rational():
        den = rng.randrange(1, 10_000)
        return F(rng.randrange(1, den + 1), den)

    for _ in range(100_000):
        x = float(rand_rational())
        y = float(rand_rational())
        fx, fy = f_nats(x), f_nats(y)
        if fx > inv_e + 1e-12:
            violations += 1
        if fy > fx + f_prime(x) * (y - x) + 1e-12:
            violations += 1
        if f_nats(x + y) > fx + fy + 1e-12:
            violations += 1
        a, b = x * inv_e, y * inv_e  # scaled into (0, 1/e]
        if abs(f_nats(a) - f_nats(b)) > f_nats(abs(a - b)) + 1e-12:
            violations += 1
        if f_nats(a * b) > 2.0 * f_nats(a) * f_nats(b) + 1e-12:
            violations += 1
        # exact form of the tangent-line defect
        defect = fx + f_prime(x) * (y - x) - fy
        if y >= x:
            if abs(defect - (y * math.log(y / x) + x - y)) > 1e-12:
                violations += 1
        elif not -1e-12 <= defect <= x + 1e-12:
            violations += 1
    _report(10, f"scalar suite on 10^5 rationals, {violations} violations", violations == 0)


def test_criterion_11_determinism(tmp_path):
    cfg = dict(seed=2026, instance_count=4)
    fuzz_run(FuzzConfig(**cfg), tmp_path / "a")
    fuzz_run(FuzzConfig(**cfg), tmp_path / "b")
    fuzz_run(FuzzConfig(**cfg, workers=4), tmp_path / "c")
    a = (tmp_path / "a/results.jsonl").read_bytes()
    ok = a == (tmp_path / "b/results.jsonl").read_bytes()
    ok = ok and a == (tmp_path / "c/results.jsonl").read_bytes()
    _report(11, "fuzz reports byte-identical across runs and worker counts", ok)
