"""Inverse-theorem diagnostics: exact coset detection, effective supports,
additive energy, and the curated fixture checks for the structural results."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .dists import Dist, convolve, entropy
from .errors import CapExceededError
from .groups import Element, GroupSpec
from .metrics import doubling_constant, ruzsa_distance

ENERGY_CAP = 2000  # largest set additive_energy sums over, |A|^2 sums
MAX_DOUBLINGS = 40  # effective_support_search tries c0 * 2**i for i < MAX_DOUBLINGS


class CosetReport(NamedTuple):
    is_coset_uniform: bool
    subgroup: frozenset | None
    base: Element | None
    doubling: float


def detect_coset_uniform(p: Dist) -> CosetReport:
    """Exact detector: accepts iff p is uniform on a coset of a finite subgroup.

    A finite set S is a coset of a finite subgroup iff |S + S| = |S| (then the
    subgroup is S - s0 for any s0 in S), and S + S is the support of p * p, the
    convolution `doubling` needs anyway.  All masses must also be equal, which
    is tested on the exact counts.
    """
    g = p.group
    pp = convolve(p, p, "+")
    doubling = math.exp(entropy(pp) - entropy(p))  # doubling_constant(p)
    if len(pp) != len(p) or len(set(p.counts.values())) != 1:
        return CosetReport(False, None, None, doubling)
    base = p.support()[0]
    return CosetReport(True, frozenset(g.sub(s, base) for s in p.counts), base, doubling)


class CoreReport(NamedTuple):
    core_set: tuple[Element, ...]
    mass: Fraction
    log_size_gap: float
    energy_ratio: float
    c_value: float
    c_too_small: bool = False


def effective_support(p: Dist, c: float = 2.0) -> CoreReport:
    """Density window around exp(-Ent): A = {x: e^-H / C <= p(x) <= C e^-H}.

    When the window captures less than half the mass the report flags C as
    too small; callers typically double C and retry (see
    effective_support_search).
    """
    if not c >= 1:  # negated, so that a NaN C is refused
        raise ValueError(f"C must be >= 1, got {c}")
    h = entropy(p)
    lo, hi = math.exp(-h) / c, math.exp(-h) * c
    den = p.den
    core = tuple(x for x, n in p.counts.items() if lo <= n / den <= hi)
    mass = Fraction(sum(p.counts[x] for x in core), den)
    if core:
        gap = math.log(len(core)) - h
        ratio = additive_energy(set(core), p.group) / len(core) ** 3
    else:
        gap = -h
        ratio = 0.0
    return CoreReport(core, mass, gap, ratio, c, c_too_small=mass < Fraction(1, 2))


def effective_support_search(p: Dist, c0: float = 2.0) -> CoreReport:
    """Geometric search for the smallest tried C whose window holds half the mass."""
    c = c0
    for _ in range(MAX_DOUBLINGS):
        rep = effective_support(p, c)
        if not rep.c_too_small:
            return rep
        c *= 2.0
    return effective_support(p, c)


def additive_energy(a_set: Iterable[Element], group: GroupSpec) -> int:
    """Number of quadruples with a1 + a2 = a3 + a4, as sum of squared sum-counts."""
    els = list(a_set)
    if len(els) > ENERGY_CAP:
        raise CapExceededError(f"additive energy cap {ENERGY_CAP} exceeded: {len(els)}")
    counts: dict[Element, int] = {}
    for x in els:
        for y in els:
            s = group.add(x, y)
            counts[s] = counts.get(s, 0) + 1
    return sum(r * r for r in counts.values())


# ---------------------------------------------------------------------------
# curated fixtures for the structural conclusions


class FixtureResult(NamedTuple):
    name: str
    kind: str
    ok: bool
    details: dict


def verify_inverse_fixtures(corpus: Sequence[dict]) -> list[FixtureResult]:
    """Check structural conclusions on a curated fixture corpus.

    Two fixture kinds:
      * "factorised": {"uniform": Dist, "noise": Dist} with X = U + Z built by
        independent convolution; exhibits an explicit transport certificate
        from X back to U by reversing the noise coupling and records its cost.
      * "paired": {"x": Dist, "y": Dist}; checks the doubling bound
        log sigma[X] <= 4 d_R(X, Y) that follows from the metric suite.
    """
    from .transport import independent_noise_certificate, reverse_certificate

    results = []
    for fx in corpus:
        name = fx.get("name", "fixture")
        kind = fx["kind"]
        if kind == "factorised":
            u: Dist = fx["uniform"]
            z: Dist = fx["noise"]
            fwd = independent_noise_certificate(u, z)  # U -> X = U + Z
            x = fwd.target
            back = reverse_certificate(fwd)  # X -> U
            back.validate(x)
            ok = back.target == u
            results.append(
                FixtureResult(
                    name,
                    kind,
                    ok,
                    {
                        "transport_cost": back.cost,
                        "noise_entropy": entropy(z),
                        "x_entropy": entropy(x),
                        "uniform_entropy": entropy(u),
                    },
                )
            )
        elif kind == "paired":
            x: Dist = fx["x"]
            y: Dist = fx["y"]
            log_sigma = math.log(doubling_constant(x))
            bound = 4.0 * ruzsa_distance(x, y)
            results.append(
                FixtureResult(
                    name,
                    kind,
                    log_sigma <= bound + 1e-9,
                    {"log_sigma": log_sigma, "four_ruzsa": bound},
                )
            )
        else:
            raise ValueError(f"unknown fixture kind {kind!r}")
    return results
