"""Ruzsa distance, doubling constant, and the sumset inequality suite.

Every check returns a MetricReport carrying both sides of the inequality and
the witness inputs, so a fuzz run can persist violations for replay.  Slack
is rhs - lhs; a report violates at tolerance tol when slack < -tol.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from .dists import Dist, convolve, entropy, iterated_convolve
from .errors import IncompatibleGroupError, PreconditionError
from .fileio import dump_dist
from .groups import Element

DEFAULT_TOL = 1e-9


class MetricReport(NamedTuple):
    """One inequality evaluation: lhs <= rhs expected, slack = rhs - lhs."""

    name: str
    lhs: float
    rhs: float
    witness: dict = {}  # one shared default, which nothing writes
    kind: str = "bound"  # "bound" reports can violate; "measured" never do

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def violated(self, tol: float = DEFAULT_TOL) -> bool:
        return self.kind == "bound" and self.slack < -tol

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "kind": self.kind,
            "witness": self.witness,
        }


def ruzsa_distance(p: Dist, q: Dist) -> float:
    """Ent(X' - Y') - Ent(X')/2 - Ent(Y')/2 for independent copies."""
    if p.group != q.group:
        raise IncompatibleGroupError("Ruzsa distance needs a common group")
    return entropy(convolve(p, q, "-")) - 0.5 * entropy(p) - 0.5 * entropy(q)


def doubling_constant(p: Dist) -> float:
    """exp(Ent(X1 + X2) - Ent(X)) for independent copies; always >= 1."""
    return math.exp(entropy(convolve(p, p, "+")) - entropy(p))


def check_ese_suite(p: Dist, q: Dist, r: Dist, n: int) -> list[MetricReport]:
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

    # one convolution and one entropy per distinct law, each distance in
    # ruzsa_distance's own expression; d(p, -q) reads p + q, since p - (-q)
    # is that law and Ent(-q) = Ent(q)
    hp, hq, hr = entropy(p), entropy(q), entropy(r)
    h_diff = entropy(convolve(p, q, "-"))
    d_pq = h_diff - 0.5 * hp - 0.5 * hq
    d_pr = entropy(convolve(p, r, "-")) - 0.5 * hp - 0.5 * hr
    d_qr = entropy(convolve(q, r, "-")) - 0.5 * hq - 0.5 * hr
    pq_sum = convolve(p, q, "+")
    h_sum = entropy(pq_sum)
    reports = [
        MetricReport("ruzsa_triangle", d_pr, d_pq + d_qr, w),
        MetricReport("ruzsa_negation_3x", h_sum - 0.5 * hp - 0.5 * hq, 3.0 * d_pq, w),
        MetricReport("sum_vs_difference", h_sum, 3.0 * h_diff - hp - hq, w),
    ]
    iterated = iterated_convolve(pq_sum, n + 1)
    reports.append(
        MetricReport(
            "iterated_sum_bound",
            entropy(iterated),
            (2 * n + 1) * h_sum - n * (hp + hq),
            w,
        )
    )
    log_sigma = entropy(convolve(p, p, "+")) - hp
    h_chain = entropy(iterated_convolve(p, 2 * n + 2))
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


def check_lipschitz(
    p_x: Dist,
    p_x2: Dist,
    p_y: Dist,
    p_y2: Dist,
) -> list[MetricReport]:
    """Transport-Lipschitz bounds for the Ruzsa distance and doubling constant.

    The transports are certified by the exact oracle, so the supports must be
    small enough for vertex enumeration.
    """
    from .transport import transport_exact

    t_x = transport_exact(p_x, p_x2).cost
    t_y = transport_exact(p_y, p_y2).cost
    w = {
        "p_x": dump_dist(p_x),
        "p_x2": dump_dist(p_x2),
        "p_y": dump_dist(p_y),
        "p_y2": dump_dist(p_y2),
    }
    log_sigma_x = math.log(doubling_constant(p_x))
    reports = [
        MetricReport(
            "ruzsa_transport_lipschitz",
            abs(ruzsa_distance(p_x2, p_y2) - ruzsa_distance(p_x, p_y)),
            1.5 * (t_x + t_y),
            w,
        ),
        MetricReport(
            "doubling_transport_lipschitz",
            abs(log_sigma_x - math.log(doubling_constant(p_x2))),
            3.0 * t_x,
            w,
        ),
        # identity: log sigma[X] equals the Ruzsa distance from X to -X
        MetricReport(
            "doubling_negation_identity",
            abs(log_sigma_x - ruzsa_distance(p_x, p_x.negate())),
            0.0,
            w,
        ),
    ]
    return reports


def sumset_increase_lhs(p: Dist, q: Dist) -> float:
    """Truncated-log transport sum approximating Ent(X+Y) - Ent(X).

    Returns L = sum_y q(y) sum_z p(z-y) log_+(p(z-y) / (p*q)(z)); the gap
    |L - (Ent(p*q) - Ent(p))| is at most 1 (in fact at most 1/e).
    """
    if p.group != q.group:
        raise IncompatibleGroupError("needs a common group")
    return _increase_lhs(p, q, convolve(p, q, "+"))


def _increase_lhs(p: Dist, q: Dist, s: Dist) -> float:
    """sumset_increase_lhs with the sum law s = p * q already built."""
    g = p.group
    pd, qd, sd, sc = p.den, q.den, s.den, s.counts
    terms = []
    for y, qn in q.counts.items():
        for x, pn in p.counts.items():
            # p(x) / s(z) = num / den; int / int rounds as float(Fraction) does
            num, den = pn * sd, sc[g.add(x, y)] * pd
            if num > den:
                terms.append(qn / qd * (pn / pd) * math.log(num / den))
    return math.fsum(terms)


def sumset_increase_report(p: Dist, q: Dist) -> MetricReport:
    s = convolve(p, q, "+")
    lhs = _increase_lhs(p, q, s)
    gap = entropy(s) - entropy(p)
    return MetricReport(
        "sumset_increase_formula",
        abs(lhs - gap),
        1.0,
        {"p": dump_dist(p), "q": dump_dist(q), "L": lhs, "gap": gap},
    )


class LevelSetReport(NamedTuple):
    """Doubly exponential density levels of a near-uniform distribution."""

    levels: dict[int, tuple[Element, ...]]
    weighted_sum: float          # sharpened exact bound, must be <= log_k
    classic_weighted_sum: float  # sum of 2^k P(A_k), reported only
    log_k: float


def density_level(p_times_a) -> int:
    """Level index k >= 1 with 2^(2^(k-1)) <= p|A| < 2^(2^k); 0 below.

    The thresholds are integers, so the floor of p|A| gives the same level.
    """
    if p_times_a < 2:
        return 0
    k = 1
    while p_times_a >= 2 ** (2**k):
        k += 1
    return k


def jensen_level_sets(
    p: Dist, ambient: Iterable[Element], k_bound: float
) -> LevelSetReport:
    """Partition the ambient box by density level and bound the excess mass.

    Requires Ent(p) >= log|A| - log K.  The sharpened form
    sum_k max(2^(k-1) log 2 - 1, 0) P(A_k) <= log K is exact and is verified
    here; the classic 2^k-weighted sum is reported without assertion.
    """
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
    levels: dict[int, list[Element]] = {}
    level_counts: dict[int, int] = {}
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


def jensen_level_report(p: Dist, ambient: Sequence[Element], k_bound: float) -> MetricReport:
    rep = jensen_level_sets(p, ambient, k_bound)
    return MetricReport(
        "jensen_level_sets",
        rep.weighted_sum,
        rep.log_k,
        {"p": dump_dist(p), "ambient_size": len(tuple(ambient)), "K": k_bound},
    )


def three_sum_bound(x: Dist, y: Dist, z: Dist) -> MetricReport:
    """Ent(X+Y+Z) <= (Ent(X+Y) + Ent(Y+Z) + Ent(Z+X)) / 2 for independent triples."""
    xy = convolve(x, y, "+")
    lhs = entropy(convolve(xy, z, "+"))
    rhs = 0.5 * (
        entropy(xy)
        + entropy(convolve(y, z, "+"))
        + entropy(convolve(z, x, "+"))
    )
    return MetricReport(
        "three_sum_bound",
        lhs,
        rhs,
        {"x": dump_dist(x), "y": dump_dist(y), "z": dump_dist(z)},
    )
