"""Differential test of `check_ese_suite` against its Ruzsa-distance body.

`_check_ese_suite_reference` is the suite as it was before it built each sum
law once: it calls `ruzsa_distance` four times, convolving p - (-q) beside
p + q and p - q twice, and re-evaluates the entropies of the inputs each
time.  It is kept here unchanged as the reference.  Both must give the same
reports, every lhs and rhs bitwise, and raise `CapExceededError` on the same
inputs.

`_increase_lhs_reference` and `_jensen_level_sets_reference` are the
truncated-log sum and the density-level partition as they were over
`Fraction` masses, before they read the counts; both must give bitwise-equal
floats and the same levels.  `_jensen_level_sets_counts_reference` is the
partition over counts as it was before `density_levels` served it and the
uniformisation alike; it must give the same report, bit for bit.
"""

import math
import random
from fractions import Fraction

import pytest

from entsum import dists
from entsum.dists import Dist, convolve, entropy, iterated_convolve
from entsum.errors import CapExceededError, IncompatibleGroupError, PreconditionError
from entsum.fileio import dump_dist
from entsum.groups import GroupSpec
from entsum.fuzz import random_dist
from entsum.metrics import (
    LevelSetReport,
    MetricReport,
    _increase_lhs,
    check_ese_suite,
    density_level,
    density_levels,
    jensen_level_sets,
    ruzsa_distance,
)


def _check_ese_suite_reference(p: Dist, q: Dist, r: Dist, n: int) -> list[MetricReport]:
    """Sumset estimate suite on a triple of independent distributions.

    Reports: the Ruzsa triangle inequality on (p, q, r); the 3x negation bound
    and the sum-vs-difference bound on (p, q); the (2n+1)-fold iterated sum
    bound; and the doubling-chain bound Ent(p^{*(2n+2)}) <= Ent(p) +
    (2n+1) log sigma[p].  A "measured" report records the realized iterated
    constant without ever counting as a violation.
    """
    if not (p.group == q.group == r.group):
        raise IncompatibleGroupError("suite needs a common group")
    if n < 1 or n > 4:
        raise PreconditionError("n must be in 1..4 (convolution blow-up cap)")
    w = {"p": dump_dist(p), "q": dump_dist(q), "r": dump_dist(r), "n": n}

    hp, hq = entropy(p), entropy(q)
    d_pq = ruzsa_distance(p, q)
    reports = [
        MetricReport(
            "ruzsa_triangle",
            ruzsa_distance(p, r),
            d_pq + ruzsa_distance(q, r),
            w,
        ),
        MetricReport(
            "ruzsa_negation_3x",
            ruzsa_distance(p, q.negate()),
            3.0 * d_pq,
            w,
        ),
    ]
    pq_sum = convolve(p, q, "+")
    pq_diff = convolve(p, q, "-")
    h_sum = entropy(pq_sum)
    reports.append(
        MetricReport(
            "sum_vs_difference",
            h_sum,
            3.0 * entropy(pq_diff) - hp - hq,
            w,
        )
    )
    iterated = iterated_convolve(pq_sum, n + 1)
    reports.append(
        MetricReport(
            "iterated_sum_bound",
            entropy(iterated),
            (2 * n + 1) * h_sum - n * (hp + hq),
            w,
        )
    )
    chain = convolve(p, p, "+")  # gives log sigma and starts the (2n+2)-fold chain
    log_sigma = entropy(chain) - hp
    for _ in range(2 * n):
        chain = convolve(chain, p, "+")
    h_chain = entropy(chain)
    reports.append(
        MetricReport(
            "doubling_chain_bound",
            h_chain,
            hp + (2 * n + 1) * log_sigma,
            w,
        )
    )
    if log_sigma > 1e-12:
        # realized constant for the (n+m)-fold estimate; informational only
        reports.append(
            MetricReport(
                "doubling_chain_ratio",
                0.0,
                (h_chain - hp) / ((2 * n + 1) * log_sigma),
                w,
                kind="measured",
            )
        )
    return reports


def _increase_lhs_reference(p: Dist, q: Dist, s: Dist) -> float:
    """sumset_increase_lhs with the sum law s = p * q already built."""
    g = p.group
    terms = []
    for y, qy in q.mass.items():
        for x, px in p.mass.items():
            z = g.add(x, y)
            ratio = px / s.mass[z]
            if ratio > 1:
                terms.append(float(qy) * float(px) * math.log(ratio))
    return math.fsum(terms)


def _jensen_level_sets_reference(p: Dist, ambient, k_bound: float) -> LevelSetReport:
    ambient_set = {p.group.reduce(e) for e in ambient}
    if not set(p.mass) <= ambient_set:
        raise PreconditionError("distribution must be supported inside the ambient set")
    size = len(ambient_set)
    log_k = math.log(k_bound)
    ent = entropy(p)
    if ent < math.log(size) - log_k - 1e-12:
        raise PreconditionError(
            f"entropy {ent:.6f} below log|A| - log K = {math.log(size) - log_k:.6f}"
        )
    levels = {}
    level_mass = {}
    for e, v in p.mass.items():
        k = density_level(v * size)
        if k >= 1:
            levels.setdefault(k, []).append(e)
            level_mass[k] = level_mass.get(k, Fraction(0)) + v
    weighted = math.fsum(
        max(2 ** (k - 1) * math.log(2) - 1.0, 0.0) * float(m)
        for k, m in sorted(level_mass.items())
    )
    classic = math.fsum(2**k * float(m) for k, m in sorted(level_mass.items()))
    if weighted > log_k + 1e-9:
        raise AssertionError(
            f"level-set bound violated: {weighted} > log K = {log_k}"
        )
    return LevelSetReport(
        levels={k: tuple(v) for k, v in sorted(levels.items())},
        weighted_sum=weighted,
        classic_weighted_sum=classic,
        log_k=log_k,
    )


def _jensen_level_sets_counts_reference(p: Dist, ambient, k_bound: float) -> LevelSetReport:
    ambient_set = {p.group.reduce(e) for e in ambient}
    if not set(p.counts) <= ambient_set:
        raise PreconditionError("distribution must be supported inside the ambient set")
    size = len(ambient_set)
    if not k_bound > 0:  # negated, so that a NaN K is refused
        raise PreconditionError(f"K must be > 0, got {k_bound}")
    log_k = math.log(k_bound)
    ent = entropy(p)
    if ent < math.log(size) - log_k - 1e-12:
        raise PreconditionError(
            f"entropy {ent:.6f} below log|A| - log K = {math.log(size) - log_k:.6f}"
        )
    den = p.den
    levels: dict = {}
    level_counts: dict = {}
    for e, n in p.counts.items():
        k = density_level(n * size // den)
        if k >= 1:
            levels.setdefault(k, []).append(e)
            level_counts[k] = level_counts.get(k, 0) + n
    level_mass = [(k, c / den) for k, c in sorted(level_counts.items())]
    weighted = math.fsum(max(2 ** (k - 1) * math.log(2) - 1.0, 0.0) * m for k, m in level_mass)
    classic = math.fsum(2**k * m for k, m in level_mass)
    if weighted > log_k + 1e-9:
        raise AssertionError(
            f"level-set bound violated: {weighted} > log K = {log_k}"
        )
    return LevelSetReport(
        levels={k: tuple(v) for k, v in sorted(levels.items())},
        weighted_sum=weighted,
        classic_weighted_sum=classic,
        log_k=log_k,
    )


# ---------------------------------------------------------------------------
# seeded triples

GROUPS = {
    "Z": GroupSpec([0]),
    "Z/8": GroupSpec([8]),
    "Z/2xZ/4": GroupSpec([2, 4]),
    "Z^2": GroupSpec([0, 0]),
}


def _law(rng: random.Random, g: GroupSpec, size: int, reach: int = 3) -> Dist:
    """A law on at most `size` atoms with masses over a random denominator;
    coordinates on Z lie in [-reach, reach]."""
    els = sorted({
        tuple(rng.randrange(m) if m else rng.randrange(-reach, reach + 1) for m in g.moduli)
        for _ in range(size)
    })
    weights = [rng.randrange(1, rng.choice([2, 9, 2**40])) for _ in els]
    return Dist(g, {e: Fraction(w, sum(weights)) for e, w in zip(els, weights)})


def _triples(seed: int, per_case: int):
    rng = random.Random(seed)
    for g in GROUPS.values():
        for n in range(1, 5):
            for _ in range(per_case):
                p, q, r = (_law(rng, g, rng.randrange(1, 5)) for _ in range(3))
                yield p, q, rng.choice([r, p]), n


def _key(reports):
    return [(rep.name, rep.lhs.hex(), rep.rhs.hex(), rep.kind, rep.witness) for rep in reports]


# ---------------------------------------------------------------------------
# tests


def test_seeded_triples_match_reference():
    kinds = set()
    for p, q, r, n in _triples(1, 30):
        new = check_ese_suite(p, q, r, n)
        assert _key(new) == _key(_check_ese_suite_reference(p, q, r, n))
        kinds.add(len(new))
    # with and without the measured doubling-chain ratio
    assert kinds == {5, 6}


def test_cap_raised_on_the_same_triples(monkeypatch):
    monkeypatch.setattr(dists, "SUPPORT_CAP", 24)
    outcomes = set()
    for p, q, r, n in _triples(2, 10):
        try:
            expected = _key(_check_ese_suite_reference(p, q, r, n))
        except CapExceededError:
            with pytest.raises(CapExceededError):
                check_ese_suite(p, q, r, n)
            outcomes.add("cap")
            continue
        assert _key(check_ese_suite(p, q, r, n)) == expected
        outcomes.add("reports")
    assert outcomes == {"cap", "reports"}


# ---------------------------------------------------------------------------
# count readers

SAMPLED = {"Z": GroupSpec([0]), "Z/8": GroupSpec([8]), "Z/4xZ/4": GroupSpec([4, 4])}


def test_increase_lhs_matches_reference():
    rng = random.Random(12)
    positive = 0
    for _ in range(600):
        g = SAMPLED[rng.choice(sorted(SAMPLED))]
        den_cap = rng.choice([6, 64, 720_720, 2**62])
        p, q = (random_dist(rng, g, rng.randrange(1, 8), den_cap) for _ in range(2))
        s = convolve(p, q, "+")
        new = _increase_lhs(p, q, s)
        assert new.hex() == _increase_lhs_reference(p, q, s).hex()
        positive += new > 0
    assert 100 < positive < 600


def test_jensen_level_sets_match_reference():
    rng = random.Random(13)
    levels = set()
    for _ in range(600):
        size = rng.choice([8, 16, 32, 256])
        g = GroupSpec([size])
        ambient = [(i,) for i in range(size)]
        p = random_dist(rng, g, min(rng.randrange(1, 9), size), rng.choice([6, 64, 720_720, 2**62]))
        # K with log K a hair above the entropy deficit, as the fuzz check takes it
        k_bound = math.exp(math.log(size) - entropy(p)) * (1 + 1e-9)
        new = jensen_level_sets(p, ambient, k_bound)
        old = _jensen_level_sets_reference(p, ambient, k_bound)
        assert new.levels == old.levels
        assert new.weighted_sum.hex() == old.weighted_sum.hex()
        assert new.classic_weighted_sum.hex() == old.classic_weighted_sum.hex()
        assert new.log_k.hex() == old.log_k.hex()
        levels.update(new.levels)
    assert levels >= {1, 2, 3}
    with pytest.raises(PreconditionError):
        jensen_level_sets(Dist.point(GroupSpec([8]), (9,)), [(0,)], 2.0)


def _seeded_level_laws():
    """600 seeded (law, ambient size) pairs on Z/8 to Z/256 and Z/4 x Z/6."""
    rng = random.Random("density levels")
    for _ in range(600):
        g = rng.choice([GroupSpec([8]), GroupSpec([16]), GroupSpec([256]), GroupSpec([4, 6])])
        size = g.order()
        yield random_dist(rng, g, min(rng.randrange(1, 13), size), rng.choice([6, 64, 720_720, 2**62])), size


def test_density_levels_place_each_atom_once():
    seen = set()
    for p, size in _seeded_level_laws():
        levels = density_levels(p.den, p.counts, size)
        assert list(levels) == sorted(levels) and all(levels.values())
        placed = [(e, n, k) for k, atoms in levels.items() for e, n in atoms.items()]
        assert sorted(placed) == sorted((e, n, density_level(n * size // p.den)) for e, n in p.counts.items())
        order = list(p.counts)
        for atoms in levels.values():
            assert [order.index(e) for e in atoms] == sorted(order.index(e) for e in atoms)
        seen.update(levels)
    assert seen >= {0, 1, 2, 3}


def test_jensen_level_sets_match_the_counts_loop():
    for p, size in _seeded_level_laws():
        ambient = list(p.group.elements())
        k_bound = math.exp(math.log(size) - entropy(p)) * (1 + 1e-9)
        new = jensen_level_sets(p, ambient, k_bound)
        old = _jensen_level_sets_counts_reference(p, ambient, k_bound)
        assert new.levels == old.levels and list(new.levels) == list(old.levels)
        assert new.weighted_sum.hex() == old.weighted_sum.hex()
        assert new.classic_weighted_sum.hex() == old.classic_weighted_sum.hex()
        assert new.log_k.hex() == old.log_k.hex()
