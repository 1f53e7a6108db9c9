"""Differential test of `check_ese_suite` against its Ruzsa-distance body.

`_check_ese_suite_reference` is the suite as it was before it built each sum
law once: it calls `ruzsa_distance` four times, convolving p - (-q) beside
p + q and p - q twice, and re-evaluates the entropies of the inputs each
time.  It is kept here unchanged as the reference.  Both must give the same
reports, every lhs and rhs bitwise, and raise `CapExceededError` on the same
inputs.
"""

import random
from fractions import Fraction

import pytest

from entsum import dists
from entsum.dists import Dist, convolve, entropy, iterated_convolve
from entsum.errors import CapExceededError, IncompatibleGroupError, PreconditionError
from entsum.fileio import dump_dist
from entsum.groups import GroupSpec
from entsum.metrics import MetricReport, check_ese_suite, ruzsa_distance


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
