"""Differential test of `convolve` against its former pair-loop body.

`_convolve_reference` is `convolve` as it was before the integer kernel: it
sums the products of integer counts pair by pair with `GroupSpec.add` and
builds the result through `Dist.__init__`, whose normaliser re-sums and sorts
the `Fraction` masses.  It is kept here unchanged, with the common-denominator
helper it used, as the reference.  Both paths are exact, so the laws must be
equal, atom order included, and their entropies bitwise equal.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from entsum import dists
from entsum.dists import Dist, convolve, entropy
from entsum.errors import IncompatibleGroupError
from entsum.groups import GroupSpec


def _common_denominator(mass):
    """Integer counts over the least common denominator of Fraction masses."""
    den = 1
    for v in mass.values():
        den = den * v.denominator // math.gcd(den, v.denominator)
    return den, {e: v.numerator * (den // v.denominator) for e, v in mass.items()}


def _convolve_reference(p: Dist, q: Dist, sign: str = "+") -> Dist:
    """Exact law of X ± Y for independent X ~ p, Y ~ q on the same group."""
    if p.group != q.group:
        raise IncompatibleGroupError("convolution needs a common ambient group")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    g = p.group
    dp, np_ = _common_denominator(p.mass)
    dq, nq = _common_denominator(q.mass)
    if sign == "-":
        nq = {g.neg(e): n for e, n in nq.items()}
    acc = {}
    for ex, nx in np_.items():
        for ey, ny in nq.items():
            s = g.add(ex, ey)
            acc[s] = acc.get(s, 0) + nx * ny
    den = dp * dq
    return Dist(g, {e: Fraction(n, den) for e, n in acc.items()})


# ---------------------------------------------------------------------------
# seeded laws

Z = GroupSpec([0])
GROUPS = {
    "Z": Z,
    "Z/8": GroupSpec([8]),
    "Z/2xZ/4": GroupSpec([2, 4]),
    "Z^2": GroupSpec([0, 0]),
}


def _law(rng: random.Random, g: GroupSpec, size: int, den_cap: int, reach: int = 8) -> Dist:
    """A law with at most `size` atoms and masses over a denominator up to
    den_cap; coordinates on Z lie in [-reach, reach]."""
    els = sorted({
        tuple(rng.randrange(m) if m else rng.randrange(-reach, reach + 1) for m in g.moduli)
        for _ in range(size)
    })
    den = rng.randrange(len(els), max(den_cap, len(els)) + 1)
    cuts = set()
    while len(cuts) < len(els) - 1:
        cuts.add(rng.randrange(1, den))
    edges = [0, *sorted(cuts), den]
    return Dist(g, {e: Fraction(b - a, den) for e, a, b in zip(els, edges, edges[1:])})


def _corpus(seed: int, count: int, reach: int = 8):
    rng = random.Random(seed)
    for _ in range(count):
        g = GROUPS[rng.choice(sorted(GROUPS))]
        caps = [rng.choice([2, 64, 2**20, 2**64]) for _ in range(2)]
        p = _law(rng, g, rng.randrange(1, 9), caps[0], reach)
        q = _law(rng, g, rng.randrange(1, 9), caps[1], reach)
        yield g, p, q, rng.choice("+-")


def _assert_same(p: Dist, q: Dist, sign: str) -> None:
    new = convolve(p, q, sign)
    old = _convolve_reference(p, q, sign)
    assert new == old
    assert list(new.mass) == list(old.mass)
    assert entropy(new).hex() == entropy(old).hex()


# ---------------------------------------------------------------------------
# tests


def test_corpus_covers_every_group_sign_and_denominator():
    seen = {(g, sign) for g, _, _, sign in _corpus(1, 400)}
    assert seen == {(g, s) for g in GROUPS.values() for s in "+-"}
    dens = [max(v.denominator for v in d.mass.values())
            for _, p, q, _ in _corpus(1, 400) for d in (p, q)]
    assert max(dens) > 2**60


@pytest.mark.parametrize("dense_slots", [0, None, 10**9], ids=["pair-loop", "default", "dense"])
def test_seeded_laws_match_reference(monkeypatch, dense_slots):
    # 0 sends every rank-1 pair through the pair loop, 10**9 through the
    # Kronecker product; None keeps the dense/sparse rule
    if dense_slots is not None:
        monkeypatch.setattr(dists, "_DENSE_SLOTS_PER_PAIR", dense_slots)
    for _, p, q, sign in _corpus(1, 400):
        _assert_same(p, q, sign)


def test_iterated_powers_match_reference():
    # convolution powers grow the span, the support and the denominator
    for _, p, _, sign in _corpus(2, 60):
        out_new = out_old = p
        for _ in range(4):
            out_new = convolve(out_new, p, sign)
            out_old = _convolve_reference(out_old, p, sign)
            assert out_new == out_old
            assert entropy(out_new).hex() == entropy(out_old).hex()


def test_wide_sparse_spans_match_reference():
    rng = random.Random(3)
    for g in (Z, GroupSpec([1_000_003]), GroupSpec([0, 0])):
        for _ in range(40):
            p = _law(rng, g, rng.randrange(1, 7), 2**64, reach=10**6)
            q = _law(rng, g, rng.randrange(1, 7), 64, reach=10**6)
            _assert_same(p, q, rng.choice("+-"))


def test_wide_two_atom_law_takes_the_pair_loop():
    # a dense pack of {0, 10**6} would cost two million slots
    p = Dist.uniform(Z, [(0,), (10**6,)])
    t0 = time.perf_counter()
    out = convolve(p, p)
    assert time.perf_counter() - t0 < 0.1
    assert out == _convolve_reference(p, p)
