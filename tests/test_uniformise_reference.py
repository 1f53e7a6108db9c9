"""Differential test of the integer uniformisation kernel against the Fraction pipeline.

Everything from `_cert` down to `_uniformise_coset_progression_reference` is
the constructive side of `entsum.transport` as it was before it moved to
integer counts over one common denominator and index-encoded elements, kept
here unchanged as the reference: flattening, the sigma-split, the density-level
pipeline and the box push-forward, all in exact `Fraction` arithmetic over
tuple elements.  The tests compare `to_json()` of the public certificates,
the flatten traces, and the kernel operations one by one.

The `_kernel_*_reference` functions are the integer kernel's identity and
uniformisation as they were while the pipeline composed right to left: each
flatten stage built its own certificate q ⊗ z, or an identity when it took
no round, the sigma-split was composed after it (flat ∘ split), and the
pipeline ended in glued ∘ tail.  The kernel now extends the certificate
built so far stage by stage, (glued ∘ flat) ∘ split.  Composition multiplies
Markov kernels, so it is associative, and every `_RawCert` is in lowest
terms, so both orders must give equal raw certificates.

`_cert_with_elems` is the exit of `uniformise_group` and `flatten` as it was
before `transport._emit`: it decoded each atom by `elems`, built the laws
through `_with_counts`, which sorts the decoded tuples, and ran the public
`validate`.  `_emit` checks in index arithmetic first and sorts index pairs
once; the tests below compare the two exits, check the digit law `add`, with
`sub` and `neg`, against the addition table on every pair, and show that the
check refuses tampered kernel output without reading that table.
"""

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entsum import dists, transport
from entsum.dists import Dist, JointDist, entropy
from entsum.errors import CertificateError, EntsumError, PreconditionError
from entsum.fuzz import random_dist
from entsum.groups import Element, GroupSpec
from entsum.metrics import density_level
from entsum.progressions import CosetProgression, box_embedding
from entsum.transport import (
    FlattenTrace,
    TransportCertificate,
    flatten,
    identity_certificate,
    uniformise_coset_progression,
    uniformise_group,
)

SIGMA_MIN = Fraction(1, 2**20)
_MAX_FLATTEN_ROUNDS = 400


class WraparoundError(EntsumError):
    """Internal invariant failure: a transport shift left the embedding box."""


def _cert(g: GroupSpec, raw: "_RawCert") -> TransportCertificate:
    return TransportCertificate(JointDist([g, g], raw.coupling), Dist(g, raw.target))



class _SpecAdapter:
    def __init__(self, g: GroupSpec):
        self.add, self.neg, self.sub, self.zero = g.add, g.neg, g.sub, g.zero
        self.elems = sorted(g.elements())
        self.size = len(self.elems)


class _SubgroupBoxAdapter:
    """Direct product of a finite subgroup H (ambient elements) with cyclic boxes."""

    def __init__(self, ambient: GroupSpec, subgroup: Sequence[Element], mods: Sequence[int]):
        self.ambient = ambient
        self.subgroup = tuple(sorted(subgroup))
        self.mods = tuple(int(m) for m in mods)
        self.elems = [
            (h, ns)
            for h in self.subgroup
            for ns in itertools.product(*(range(m) for m in self.mods))
        ]
        self.elems.sort()
        self.size = len(self.elems)

    def zero(self):
        return (self.ambient.zero(), (0,) * len(self.mods))

    def add(self, a, b):
        return (
            self.ambient.add(a[0], b[0]),
            tuple((x + y) % m for x, y, m in zip(a[1], b[1], self.mods)),
        )

    def neg(self, a):
        return (
            self.ambient.neg(a[0]),
            tuple((-x) % m for x, m in zip(a[1], self.mods)),
        )

    def sub(self, a, b):
        return self.add(a, self.neg(b))


@dataclass
class _RawCert:
    coupling: dict  # (x, z) -> Fraction
    target: dict  # x -> Fraction


def _raw_source(c: _RawCert) -> dict:
    out: dict = {}
    for (x, _), v in c.coupling.items():
        out[x] = out.get(x, Fraction(0)) + v
    return out


def _raw_validate(ad, c: _RawCert, source: dict | None = None) -> None:
    push: dict = {}
    for (x, z), v in c.coupling.items():
        y = ad.add(x, z)
        push[y] = push.get(y, Fraction(0)) + v
    if push != c.target:
        raise CertificateError("raw pushforward mismatch")
    if source is not None and _raw_source(c) != source:
        raise CertificateError("raw source mismatch")


def _raw_identity(ad, q: dict, c: Element | None = None) -> _RawCert:
    """Deterministic shift by c, or by zero when c is None; cost 0."""
    if c is None:
        c = ad.zero()
        return _RawCert({(x, c): v for x, v in q.items()}, dict(q))
    return _RawCert({(x, c): v for x, v in q.items()}, {ad.add(x, c): v for x, v in q.items()})


def _raw_independent_pair(ad, qp: dict, qm: dict) -> _RawCert:
    atoms: dict = {}
    for x, vx in qp.items():
        for y, vy in qm.items():
            key = (x, ad.sub(y, x))
            atoms[key] = atoms.get(key, Fraction(0)) + vx * vy
    return _RawCert(atoms, dict(qm))


def _raw_noise(ad, q: dict, z: dict) -> _RawCert:
    atoms: dict = {}
    tgt: dict = {}
    for x, vx in q.items():
        for zz, vz in z.items():
            atoms[(x, zz)] = atoms.get((x, zz), Fraction(0)) + vx * vz
            y = ad.add(x, zz)
            tgt[y] = tgt.get(y, Fraction(0)) + vx * vz
    return _RawCert(atoms, tgt)


def _raw_reverse(ad, c: _RawCert) -> _RawCert:
    atoms: dict = {}
    for (x, z), v in c.coupling.items():
        key = (ad.add(x, z), ad.neg(z))
        atoms[key] = atoms.get(key, Fraction(0)) + v
    return _RawCert(atoms, _raw_source(c))


def _raw_compose(ad, c1: _RawCert, c2: _RawCert) -> _RawCert:
    w_mass = c1.target
    if _raw_source(c2) != w_mass:
        raise CertificateError("second certificate does not start at the first's target")
    by_w: dict = {}
    for (w, z2), v in c2.coupling.items():
        by_w.setdefault(w, []).append((z2, v))
    atoms: dict = {}
    for (x, z1), v1 in c1.coupling.items():
        w = ad.add(x, z1)
        pw = w_mass[w]
        for z2, v2 in by_w[w]:
            key = (x, ad.add(z1, z2))
            atoms[key] = atoms.get(key, Fraction(0)) + v1 * v2 / pw
    return _RawCert(atoms, dict(c2.target))


def _raw_mix(pieces: Sequence[tuple[Fraction, _RawCert]]) -> _RawCert:
    atoms: dict = {}
    tgt: dict = {}
    for w, cert in pieces:
        if w == 0:
            continue
        for key, v in cert.coupling.items():
            atoms[key] = atoms.get(key, Fraction(0)) + w * v
        for e, v in cert.target.items():
            tgt[e] = tgt.get(e, Fraction(0)) + w * v
    return _RawCert(atoms, tgt)


# -- flattening rounds -------------------------------------------------------


def _sq_to_uniform(ad, mass: dict) -> Fraction:
    u = Fraction(1, ad.size)
    off = ad.size - len(mass)
    return sum(((v - u) ** 2 for v in mass.values()), Fraction(0)) + off * u * u


def _sub_table(ad) -> np.ndarray:
    tbl = getattr(ad, "_sub_table", None)
    if tbl is None:
        idx = {e: i for i, e in enumerate(ad.elems)}
        n = ad.size
        tbl = np.empty((n, n), dtype=np.int64)
        for i, x in enumerate(ad.elems):
            for j, h in enumerate(ad.elems):
                tbl[i, j] = idx[ad.sub(x, h)]
        ad._sub_table = tbl
    return tbl


def _pick_shift(ad, mass: dict) -> Element:
    """Shift h minimizing the post-average squared distance to uniform.

    Scans with floats for speed; the caller re-verifies the halving invariant
    exactly and falls back to an exact scan if rounding misled the choice.
    """
    u = 1.0 / ad.size
    d = np.array([float(mass.get(e, 0)) - u for e in ad.elems])
    tbl = _sub_table(ad)
    autocorr = (d[:, None] * d[tbl]).sum(axis=0)
    return ad.elems[int(np.argmin(autocorr))]


def _pick_shift_exact(ad, mass: dict) -> Element:
    u = Fraction(1, ad.size)
    d = {e: mass.get(e, Fraction(0)) - u for e in ad.elems}
    best_h = None
    best = None
    for h in ad.elems:
        s = sum((d[x] * d[ad.sub(x, h)] for x in ad.elems), Fraction(0))
        if best is None or s < best:
            best, best_h = s, h
    return best_h


def _shift_mix(ad, mass: dict, h: Element) -> dict:
    out: dict = {}
    half = Fraction(1, 2)
    for x, v in mass.items():
        out[x] = out.get(x, Fraction(0)) + half * v
        y = ad.add(x, h)
        out[y] = out.get(y, Fraction(0)) + half * v
    return {k: v for k, v in out.items() if v != 0}


def _raw_flatten(
    ad,
    mass: dict,
    max_rounds: int,
    stop: Callable[[dict, Fraction], bool],
) -> tuple[dict, list[Element], list[Fraction]]:
    """Run mixing rounds until `stop(mass, sq)` or the round budget ends.

    Returns (final mass, chosen shifts, squared distances incl. initial).
    Each executed round exactly halves (or better) the squared distance.
    """
    cur = dict(mass)
    sq = _sq_to_uniform(ad, cur)
    shifts: list[Element] = []
    sqs = [sq]
    for _ in range(max_rounds):
        if sq == 0 or stop(cur, sq):
            break
        h = _pick_shift(ad, cur)
        nxt = _shift_mix(ad, cur, h)
        nsq = _sq_to_uniform(ad, nxt)
        if 2 * nsq > sq:
            h = _pick_shift_exact(ad, cur)
            nxt = _shift_mix(ad, cur, h)
            nsq = _sq_to_uniform(ad, nxt)
            if 2 * nsq > sq:
                raise AssertionError("flattening failed to halve the squared norm")
        cur, sq = nxt, nsq
        shifts.append(h)
        sqs.append(sq)
    return cur, shifts, sqs


def _shift_noise(ad, shifts: Sequence[Element]) -> dict:
    z = {ad.zero(): Fraction(1)}
    for h in shifts:
        z = _shift_mix(ad, z, h)
    return z


def _sigma_excess(ad, mass: dict) -> Fraction:
    u = Fraction(1, ad.size)
    return sum((v - u for v in mass.values() if v > u), Fraction(0))



def _flatten_reference(p: Dist, k: int) -> tuple[Dist, FlattenTrace, TransportCertificate]:
    """k mixing rounds toward uniform on a finite group.

    Each round convolves with a fair two-point shift chosen by exhaustive
    scan, halving the squared l2 distance to uniform; rounds are skipped once
    the distance is exactly zero.  The certificate couples X with the
    independent sum of the chosen shift variables, so its cost is at most
    k log 2.
    """
    if not p.group.is_finite():
        raise PreconditionError("flattening needs a finite group")
    if k < 0:
        raise ValueError("k must be >= 0")
    ad = _SpecAdapter(p.group)
    _, raw, trace = _raw_flatten_cert(ad, dict(p.mass), k, lambda m, s: False)
    trace.verify()
    cert = _cert(p.group, raw)
    cert.validate(p)
    return cert.target, trace, cert


# -- uniformisation ----------------------------------------------------------


def _raw_flatten_cert(ad, q: dict, max_rounds: int, stop) -> tuple[dict, _RawCert, FlattenTrace]:
    """Flatten q and couple it with the independent sum of the chosen shifts."""
    final, shifts, sqs = _raw_flatten(ad, q, max_rounds, stop)
    cert = _raw_noise(ad, q, _shift_noise(ad, shifts)) if shifts else _raw_identity(ad, q)
    if cert.target != final:
        raise CertificateError("flatten certificate does not reach the flattened law")
    return final, cert, FlattenTrace(shifts, sqs)


def _uniform_mass(ad) -> dict:
    u = Fraction(1, ad.size)
    return {e: u for e in ad.elems}


def _raw_to_uniform(ad, q: dict, depth: int = 0) -> _RawCert:
    """Iterated sigma-split: flatten, peel the positive excess, recurse.

    The sigma target tightens with depth and bottoms out at SIGMA_MIN, where
    the remaining excess is moved by the independent coupling at cost at most
    sigma_min * log|G|.
    """
    u = _uniform_mass(ad)
    target_sigma = max(SIGMA_MIN, Fraction(1, 2 ** (10 * (depth + 1))))
    cur, flat_cert, _ = _raw_flatten_cert(
        ad, q, _MAX_FLATTEN_ROUNDS, lambda m, s: _sigma_excess(ad, m) <= target_sigma
    )
    if cur == u:
        return flat_cert
    uu = Fraction(1, ad.size)
    sigma = _sigma_excess(ad, cur)
    q_plus = {e: (v - uu) / sigma for e, v in cur.items() if v > uu}
    q_minus = {
        e: (uu - cur.get(e, Fraction(0))) / sigma
        for e in ad.elems
        if cur.get(e, Fraction(0)) < uu
    }
    mu = {
        e: (min(cur.get(e, Fraction(0)), uu)) / (1 - sigma)
        for e in ad.elems
        if min(cur.get(e, Fraction(0)), uu) > 0
    }
    if sigma <= SIGMA_MIN:
        piece = _raw_independent_pair(ad, q_plus, q_minus)
    else:
        up = _raw_to_uniform(ad, q_plus, depth + 1)
        um = _raw_to_uniform(ad, q_minus, depth + 1)
        piece = _raw_compose(ad, up, _raw_reverse(ad, um))
    split = _raw_mix([(sigma, piece), (1 - sigma, _raw_identity(ad, mu))])
    return _raw_compose(ad, flat_cert, split)


def _raw_uniformise(ad, q: dict) -> _RawCert:
    """Full pipeline: density-level partition, per-level flattening, sigma-splits."""
    u = _uniform_mass(ad)
    if q == u:
        return _raw_identity(ad, q)
    size = ad.size
    levels: dict[int, dict] = {}
    weights: dict[int, Fraction] = {}
    for e, v in q.items():
        k = density_level(v * size)
        levels.setdefault(k, {})[e] = v
        weights[k] = weights.get(k, Fraction(0)) + v
    pieces: list[tuple[Fraction, _RawCert]] = []
    sq_bound = Fraction(1, size)  # matches ||q_k - u||_2 <= 1/sqrt|G|
    for k in sorted(levels):
        w = weights[k]
        cond = {e: v / w for e, v in levels[k].items()}
        if k == 0:
            pieces.append((w, _raw_identity(ad, cond)))
        else:
            _, cert, _ = _raw_flatten_cert(
                ad, cond, _MAX_FLATTEN_ROUNDS, lambda m, s: s <= sq_bound
            )
            pieces.append((w, cert))
    glued = _raw_mix(pieces)
    tail = _raw_to_uniform(ad, glued.target, depth=0)
    out = _raw_compose(ad, glued, tail)
    if out.target != u:
        raise CertificateError("uniformisation failed to reach the uniform law")
    return out


def _uniformise_group_reference(p: Dist, k_bound: float) -> TransportCertificate:
    """Exact certificate transporting p to the uniform law on its finite group.

    Requires Ent(p) >= log|G| - log K; values of K below 10 are accepted and
    treated as 10.  The certificate is exact; its cost is reported, not
    bounded a priori.
    """
    if not p.group.is_finite():
        raise PreconditionError("uniformisation needs a finite group")
    k_bound = max(float(k_bound), 10.0)
    size = p.group.order()
    deficit = math.log(size) - entropy(p)
    if deficit > math.log(k_bound) + 1e-9:
        raise PreconditionError(
            f"entropy deficit {deficit:.6f} exceeds log K = {math.log(k_bound):.6f}"
        )
    ad = _SpecAdapter(p.group)
    raw = _raw_uniformise(ad, dict(p.mass))
    _raw_validate(ad, raw, dict(p.mass))
    cert = _cert(p.group, raw)
    cert.validate(p)
    return cert


def _pull(emb, p: Dist) -> dict:
    """The former `BoxEmbedding.pull`: p's Fraction masses keyed by box point."""
    out = {}
    for e, v in p.mass.items():
        if e not in emb.backward:
            raise PreconditionError(f"support element {e} lies outside the progression")
        out[emb.backward[e]] = v
    return out


def _uniformise_coset_progression_reference(
    p: Dist, cp: CosetProgression, k_bound: float | None = None
) -> TransportCertificate:
    """Certificate transporting p to the uniform law on a proper H + P.

    Pulls p back to the box H x prod [0, Ni), embeds it in H x prod Z/2NiZ,
    uniformises there, and pushes the composed transport forward; every shift
    used must come from a box difference (no wraparound), which is checked.
    """
    emb = box_embedding(cp)
    g = cp.group
    hp = frozenset(emb.backward)
    target = Dist.uniform(g, hp)
    if k_bound is not None:
        deficit = math.log(len(hp)) - entropy(p)
        if deficit > math.log(max(float(k_bound), 10.0)) + 1e-9:
            raise PreconditionError("entropy deficit exceeds log K")
    if p == target:
        return identity_certificate(p)
    box_mass = _pull(emb, p)  # raises if support leaves H+P
    lengths = cp.lengths
    ad = _SubgroupBoxAdapter(g, cp.subgroup, tuple(2 * n for n in lengths))
    box_uniform = {
        (h, ns): Fraction(1, len(hp))
        for h in cp.subgroup
        for ns in itertools.product(*(range(n) for n in lengths))
    }
    c1 = _raw_uniformise(ad, box_mass)
    c2 = _raw_uniformise(ad, box_uniform)
    raw = _raw_compose(ad, c1, _raw_reverse(ad, c2))
    _raw_validate(ad, raw, box_mass)

    atoms: dict = {}
    for (x, z), v in raw.coupling.items():
        y = ad.add(x, z)
        if y not in raw.target:
            raise WraparoundError(f"composed atom leaves the box at {y}")
        dns = []
        for xi, yi, n in zip(x[1], y[1], lengths):
            di = yi - xi
            if not -n < di < n:
                raise WraparoundError(f"shift coordinate {di} outside (-{n}, {n})")
            dns.append(di)
        shift = g.sub(y[0], x[0])
        for d, r in zip(dns, cp.steps):
            shift = g.add(shift, g.scalar(d, r))
        key = (emb.forward[x], shift)
        atoms[key] = atoms.get(key, Fraction(0)) + v
    cert = TransportCertificate(JointDist([g, g], atoms), target)
    cert.validate(p)
    return cert


# ---------------------------------------------------------------------------

Z = GroupSpec([0])
# criterion 5's four progression shapes
CP_SHAPES = [
    CosetProgression(Z, [(0,)], (0,), [(1,)], [16]),
    CosetProgression(Z, [(0,)], (5,), [(2,)], [12]),
    CosetProgression(GroupSpec([0, 0]), [(0, 0)], (0, 0), [(1, 0), (0, 1)], [4, 4]),
    CosetProgression(GroupSpec([8, 0]), [(0, 0), (4, 0)], (1, 0), [(0, 1)], [6]),
]
# steps that wrap in a finite ambient factor, and a rank-2 box with a nontrivial H
WRAP_SHAPES = [
    CosetProgression(GroupSpec([10]), [(0,)], (7,), [(3,)], [3]),
    CosetProgression(GroupSpec([12]), [(0,), (6,)], (1,), [(5,)], [3]),
    CosetProgression(GroupSpec([4, 6]), [(0, 0), (2, 3)], (1, 1), [(1, 0), (0, 1)], [2, 3]),
]


def _json(cert: TransportCertificate) -> dict:
    return cert.to_json()


def _count_splits(monkeypatch) -> tuple[list[int], list[int]]:
    """Record each reference sigma-split depth and each independent-pair fallback."""
    depths: list[int] = []
    fallbacks: list[int] = []
    to_uniform, pair = _raw_to_uniform, _raw_independent_pair

    def counted_to_uniform(ad, q, depth=0):
        depths.append(depth)
        return to_uniform(ad, q, depth)

    def counted_pair(ad, qp, qm):
        fallbacks.append(len(qp))
        return pair(ad, qp, qm)

    monkeypatch.setitem(globals(), "_raw_to_uniform", counted_to_uniform)
    monkeypatch.setitem(globals(), "_raw_independent_pair", counted_pair)
    return depths, fallbacks


def test_uniformise_group_matches_reference(monkeypatch):
    depths, fallbacks = _count_splits(monkeypatch)
    cases = []
    for mods, cap, den_cap in [([8], 6, 64), ([2, 4], 6, 64), ([16], 12, 128), ([12], 8, 64)]:
        rng = random.Random(sum(mods))
        cases += [random_dist(rng, GroupSpec(mods), cap, den_cap) for _ in range(6)]
    rng = random.Random(1)
    z64 = [random_dist(rng, GroupSpec([64]), 48, 256) for _ in range(8)]
    cases += [z64[0], z64[7]]  # the second one needs the sigma-split recursion
    for p in cases:
        assert _json(uniformise_group(p, 1e9)) == _json(_uniformise_group_reference(p, 1e9))
    assert max(depths) >= 1 and fallbacks


def test_uniformise_coset_progression_matches_reference(monkeypatch):
    depths, fallbacks = _count_splits(monkeypatch)
    rng = random.Random(3)
    for cp in CP_SHAPES * 2 + WRAP_SHAPES:
        elements = sorted(cp.enumerate())
        size = rng.randrange(min(max(4, len(elements) // 3), len(elements)), len(elements) + 1)
        support = sorted(rng.sample(elements, size))
        den = rng.randrange(size, 257)
        edges = [0] + sorted(rng.sample(range(1, den), size - 1)) + [den]
        p = Dist(cp.group, {e: Fraction(b - a, den) for e, a, b in zip(support, edges, edges[1:])})
        new = uniformise_coset_progression(p, cp)
        assert _json(new) == _json(_uniformise_coset_progression_reference(p, cp))
    assert max(depths) >= 1 and fallbacks


def test_flatten_matches_reference():
    rng = random.Random(11)
    for mods in ([8], [2, 4], [6], [16], [3, 3]):
        g = GroupSpec(mods)
        for k in range(7):
            p = random_dist(rng, g, 5, 48)
            out, trace, cert = flatten(p, k)
            ref_out, ref_trace, ref_cert = _flatten_reference(p, k)
            assert out == ref_out
            assert (trace.shifts, trace.sq_dists) == (ref_trace.shifts, ref_trace.sq_dists)
            assert _json(cert) == _json(ref_cert)


KERNEL_GROUPS = [GroupSpec([8]), GroupSpec([2, 4]), GroupSpec([6]), GroupSpec([12])]


@st.composite
def _kernel_case(draw):
    g = draw(st.sampled_from(KERNEL_GROUPS))
    elems = list(g.elements())

    def law():
        w = draw(st.dictionaries(st.sampled_from(elems), st.integers(1, 40), min_size=1, max_size=6))
        total = sum(w.values())
        return {e: Fraction(v, total) for e, v in w.items()}

    return g, law(), law(), law(), draw(st.integers(0, 8))


@settings(max_examples=150, deadline=None)
@given(_kernel_case())
def test_kernel_operations_match_reference(case):
    g, p, z, r, w = case
    ad, ref = transport._spec_group(g), _SpecAdapter(g)

    def decoded(c):
        coupling = {(ad.elems[x], ad.elems[zz]): Fraction(n, c.den) for (x, zz), n in c.coupling.items()}
        return coupling, {ad.elems[y]: Fraction(n, c.den) for y, n in c.target.items()}

    def same(c, c_ref):
        return decoded(c) == (c_ref.coupling, c_ref.target)

    def encode(mass):
        law = Dist(g, mass)
        return transport._index_law(ad, law.den, law.counts)

    noise = transport._raw_noise(ad, encode(p), encode(z))
    noise_ref = _raw_noise(ref, p, z)
    assert same(noise, noise_ref)
    pair = transport._raw_independent_pair(ad, (noise.den, noise.target), encode(r))
    pair_ref = _raw_independent_pair(ref, noise_ref.target, r)
    assert same(pair, pair_ref)
    for c, c_ref in [(noise, noise_ref), (pair, pair_ref)]:
        assert same(transport._raw_reverse(ad, c), _raw_reverse(ref, c_ref))
    composed = transport._raw_compose(ad, noise, pair)
    assert same(composed, _raw_compose(ref, noise_ref, pair_ref))
    back = transport._raw_compose(ad, pair, transport._raw_reverse(ad, pair))
    assert same(back, _raw_compose(ref, pair_ref, _raw_reverse(ref, pair_ref)))
    mixed = transport._raw_mix(8, [(w, composed), (8 - w, back)])
    weight = Fraction(w, 8)
    mixed_ref = _raw_mix([(weight, _raw_compose(ref, noise_ref, pair_ref)),
                          (1 - weight, _raw_compose(ref, pair_ref, _raw_reverse(ref, pair_ref)))])
    assert same(mixed, mixed_ref)
    # the float scan must choose exactly the reference's shift, ties included
    for q in (p, z, r, decoded(composed)[1]):
        assert ad.elems[transport._pick_shift(ad, encode(q))] == _pick_shift(ref, q)
        assert ad.elems[transport._pick_shift_exact(ad, encode(q))] == _pick_shift_exact(ref, q)


# -- the right-to-left integer pipeline ----------------------------------------


def _kernel_identity_reference(ad, q, c=None) -> transport._RawCert:
    """Deterministic shift by c, or by zero when c is None; cost 0."""
    den, mass = q
    if c is None:
        c = ad.zero()
        return transport._RawCert(den, {(x, c): n for x, n in mass.items()}, dict(mass))
    add = ad.add
    return transport._RawCert(
        den, {(x, c): n for x, n in mass.items()}, {add(x, c): n for x, n in mass.items()}
    )


def _kernel_flatten_cert_reference(ad, q, max_rounds: int, stop):
    final, shifts, _ = transport._raw_flatten(ad, q, max_rounds, stop)
    if shifts:
        cert = transport._raw_noise(ad, q, transport._shift_noise(ad, shifts))
    else:
        cert = _kernel_identity_reference(ad, q)
    if not transport._same_law((cert.den, cert.target), final):
        raise CertificateError("flatten certificate does not reach the flattened law")
    return final, cert


def _kernel_to_uniform_reference(ad, q, depth: int = 0) -> transport._RawCert:
    n = ad.size
    bits = min(transport.SIGMA_MIN_BITS, 10 * (depth + 1))  # target sigma 2**-bits
    cur, flat_cert = _kernel_flatten_cert_reference(
        ad, q, _MAX_FLATTEN_ROUNDS, lambda c, sq: transport._sigma_excess(ad, c) << bits <= n * c[0]
    )
    if transport._is_uniform(ad, cur):
        return flat_cert
    den, mass = cur
    s = transport._sigma_excess(ad, cur)
    lowest = transport._lowest_terms
    q_plus = lowest(s, {e: n * v - den for e, v in mass.items() if n * v > den})
    q_minus = lowest(s, {e: den - n * mass.get(e, 0) for e in range(n) if n * mass.get(e, 0) < den})
    mu = lowest(n * den - s, {e: min(n * v, den) for e, v in mass.items()})
    if s << transport.SIGMA_MIN_BITS <= n * den:
        piece = transport._raw_independent_pair(ad, q_plus, q_minus)
    else:
        up = _kernel_to_uniform_reference(ad, q_plus, depth + 1)
        um = _kernel_to_uniform_reference(ad, q_minus, depth + 1)
        piece = transport._raw_compose(ad, up, transport._raw_reverse(ad, um))
    split = transport._raw_mix(n * den, [(s, piece), (n * den - s, _kernel_identity_reference(ad, mu))])
    return transport._raw_compose(ad, flat_cert, split)


def _kernel_uniformise_reference(ad, q) -> transport._RawCert:
    if transport._is_uniform(ad, q):
        return _kernel_identity_reference(ad, q)
    den, mass = q
    size = ad.size
    levels: dict[int, dict] = {}
    weights: dict[int, int] = {}
    for e, v in mass.items():
        k = density_level(v * size // den)
        levels.setdefault(k, {})[e] = v
        weights[k] = weights.get(k, 0) + v
    pieces = []
    for k in sorted(levels):
        w = weights[k]
        cond = transport._lowest_terms(w, levels[k])
        if k == 0:
            pieces.append((w, _kernel_identity_reference(ad, cond)))
        else:
            _, cert = _kernel_flatten_cert_reference(
                ad, cond, _MAX_FLATTEN_ROUNDS, lambda c, sq: sq[0] * size <= sq[1]
            )
            pieces.append((w, cert))
    glued = transport._raw_mix(den, pieces)
    tail = _kernel_to_uniform_reference(ad, transport._lowest_terms(glued.den, glued.target))
    out = transport._raw_compose(ad, glued, tail)
    if not transport._is_uniform(ad, (out.den, out.target)):
        raise CertificateError("uniformisation failed to reach the uniform law")
    return out


def _count_kernel_splits(monkeypatch) -> list[int]:
    """Record the depth of each right-to-left sigma-split recursion."""
    depths: list[int] = []
    to_uniform = _kernel_to_uniform_reference

    def counted(ad, q, depth=0):
        depths.append(depth)
        return to_uniform(ad, q, depth)

    monkeypatch.setitem(globals(), "_kernel_to_uniform_reference", counted)
    return depths


def _criterion_5_kernel_laws():
    """(group, law) for criterion 5's 100 laws, a progression law on its box
    together with that box's uniform law, as the two entry points pass them."""
    from test_acceptance import _uniformise_corpus

    out = []
    box_uniform = {}
    for _, kind, p, cp in _uniformise_corpus():
        if kind == "group":
            ad = transport._spec_group(p.group)
            out.append((ad, transport._index_law(ad, p.den, p.counts)))
            continue
        emb = box_embedding(cp)
        ad = transport._box_group(cp.group, cp.subgroup, tuple(2 * n for n in cp.lengths))
        out.append((ad, transport._index_law(ad, p.den, emb.pull(p))))
        if cp not in box_uniform:
            box_uniform[cp] = (ad, (len(emb.forward), {ad.index[key]: 1 for key in emb.forward}))
    return out + list(box_uniform.values())


def _recorded(fn, seen: list):
    def recorded(*args):
        out = fn(*args)
        seen.append((args, out))
        return out
    return recorded


@pytest.fixture(scope="module")
def criterion_5_pass():
    """The kernel's certificate of each of criterion 5's 104 laws, and the
    (arguments, result) of every call of the shift scan and of the packed
    products that the kernel made to build them."""
    laws = _criterion_5_kernel_laws()
    calls: dict = {"_pick_shift": [], "_raw_extend": [], "_packed_rows": []}
    with pytest.MonkeyPatch.context() as mp:
        for name, seen in calls.items():
            mp.setattr(transport, name, _recorded(getattr(transport, name), seen))
        certs = [transport._raw_uniformise(ad, law) for ad, law in laws]
    return laws, certs, calls


def test_left_to_right_matches_right_to_left_on_criterion_5(monkeypatch, criterion_5_pass):
    depths = _count_kernel_splits(monkeypatch)
    laws, certs, _ = criterion_5_pass
    assert len(laws) == 104  # 60 on Z/64, 40 on the four boxes, and each box's uniform law
    for (ad, law), cert in zip(laws, certs):
        assert cert == _kernel_uniformise_reference(ad, law)
    assert max(depths) >= 1


def test_packed_products_match_byte_slices_on_criterion_5(monkeypatch, criterion_5_pass):
    # with no native word every slot is written and read by byte slices, as
    # before word-sized slots: the same counts, in the same order
    _, _, calls = criterion_5_pass
    monkeypatch.setattr(dists, "_WORDS", {})
    for args, out in calls["_raw_extend"]:
        new = transport._raw_extend(*args)
        assert new.den == out.den and list(new.coupling.items()) == list(out.coupling.items())
        assert list(new.target.items()) == list(out.target.items())
    for args, out in calls["_packed_rows"]:
        assert list(transport._packed_rows(*args).items()) == list(out.items())
    assert len(calls["_raw_extend"]) > 100 and len(calls["_packed_rows"]) > 50


def _shift_scan_loop(ad, q) -> list[float]:
    """The float autocorrelation at each shift that `_pick_shift` scans, as
    its loop branch adds it: term by term, each column row after row."""
    den, mass = q
    n = ad.size
    rows = ad.table.tolist()
    d = [mass.get(e, 0) / den - 1.0 / n for e in range(n)]
    shifted = []
    for h in ad._neg:
        s = 0.0
        for x in range(n):
            s += d[x] * d[rows[x][h]]
        shifted.append(s)
    return shifted


def _assert_scan_is_the_loop(ad, q, h: int) -> None:
    """numpy's column sums in `_pick_shift` are the loop's floats bit for bit,
    so every choice among exact ties, and with it every pin, is the loop's;
    h, the shift `_pick_shift` chose, is the loop's first least one."""
    den, mass = q
    d = np.array([mass.get(e, 0) / den for e in range(ad.size)]) - 1.0 / ad.size
    scanned = (d[:, None] * d[ad.table]).sum(axis=0)[ad._neg].tolist()  # `_pick_shift`'s numpy branch
    loop = _shift_scan_loop(ad, q)
    assert [s.hex() for s in scanned] == [s.hex() for s in loop]
    assert h == loop.index(min(loop))


def test_shift_scan_matches_the_loop_on_criterion_5(criterion_5_pass):
    _, _, calls = criterion_5_pass
    scans = calls["_pick_shift"]
    assert len(scans) > 2000 and min(ad.size for (ad, _), _ in scans) > transport._LIST_TABLE_ORDER
    for (ad, q), h in scans:
        _assert_scan_is_the_loop(ad, q, h)


def test_shift_scan_matches_the_loop_on_small_groups(monkeypatch):
    # groups of order <= _LIST_TABLE_ORDER scan by the loop itself, so their
    # choice is checked again with numpy's scan forced
    rng = random.Random(13)
    z4 = GroupSpec([4])
    groups = [transport._spec_group(GroupSpec(m)) for m in ([2], [3], [5], [8], [2, 2], [2, 4], [2, 2, 2])]
    groups.append(transport._box_group(z4, ((0,), (2,)), (2,)))  # H = {0, 2} in Z/4, times Z/2
    laws = [(ad, _seeded_law(rng, ad.size, i % 2 == 1)) for ad in groups for i in range(60)]
    for ad, q in laws:
        assert ad.size <= transport._LIST_TABLE_ORDER
        _assert_scan_is_the_loop(ad, q, transport._pick_shift(ad, q))
    monkeypatch.setattr(transport, "_LIST_TABLE_ORDER", 0)
    for ad, q in laws:
        _assert_scan_is_the_loop(ad, q, transport._pick_shift(ad, q))


def _seeded_law(rng, size: int, near_uniform: bool):
    """A random law, or one within about 2**-9 of uniform, whose sigma-split
    on a group as small as Z/2 x Z/4 still recurses before flattening ends it."""
    if near_uniform:
        counts = {e: 4096 + rng.randrange(-8, 9) for e in range(size)}
    else:
        support = rng.sample(range(size), rng.randrange(1, size + 1))
        counts = {e: rng.randrange(1, 60) for e in sorted(support)}
    return transport._lowest_terms(sum(counts.values()), counts)


SEEDED_GROUPS = {
    "Z/2xZ/4": lambda: transport._spec_group(GroupSpec([2, 4])),
    # the noise extension packs on a rank-2 Kronecker box here
    "Z/8xZ/8": lambda: transport._spec_group(GroupSpec([8, 8])),
    # 3^4 padded slots for 16 elements: the noise extension composes
    "(Z/2)^4": lambda: transport._spec_group(GroupSpec([2] * 4)),
    # H = {0, 2} x {0, 3} inside Z/4 x Z/6, boxed as H x Z/4 x Z/2
    "H-box": lambda: transport._box_group(GroupSpec([4, 6]), ((0, 0), (0, 3), (2, 0), (2, 3)), (4, 2)),
}


@pytest.mark.parametrize("name", SEEDED_GROUPS)
def test_left_to_right_matches_right_to_left_on_seeded_laws(monkeypatch, name):
    ad = SEEDED_GROUPS[name]()
    depths = _count_kernel_splits(monkeypatch)
    rng = random.Random(f"left to right:{name}")
    laws = [_seeded_law(rng, ad.size, i % 2 == 1) for i in range(40)]
    laws.append((ad.size, dict.fromkeys(range(ad.size), 1)))  # already uniform
    for law in laws:
        assert transport._raw_uniformise(ad, law) == _kernel_uniformise_reference(ad, law)
    assert max(depths) >= 1


@pytest.mark.parametrize("mods", [[0], [0, 0], [6]], ids=["Z", "Z^2", "Z/6"])
def test_identity_certificate_matches_kernel_reference(mods):
    g = GroupSpec(mods)
    rng = random.Random(f"identity:{g.moduli}")
    for _ in range(20):
        p = random_dist(rng, g, 5, 30)
        for shift in (None, tuple(rng.randrange(-9, 10) for _ in g.moduli)):
            c = None if shift is None else g.reduce(shift)
            ref = _kernel_identity_reference(g, (p.den, p.counts), c)
            new = identity_certificate(p, shift)
            assert transport._raw(new) == ref
            assert new.to_json() == transport._cert(g, ref).to_json()


# -- the checked exit ----------------------------------------------------------


def _cert_with_elems(p: Dist, ad, raw: transport._RawCert) -> TransportCertificate:
    """The exit as it was: decode by `elems`, build through `_with_counts`, and
    check the decoded certificate with the public `validate`."""
    g, elems = p.group, ad.elems
    coupling = {(elems[x], elems[z]): n for (x, z), n in raw.coupling.items()}
    target = {elems[y]: n for y, n in raw.target.items()}
    cert = TransportCertificate(
        JointDist._with_counts((g, g), raw.den, coupling), Dist._with_counts(g, raw.den, target)
    )
    cert.validate(p)
    return cert


def _spec(mods):
    g = GroupSpec(mods)
    return lambda: (transport._spec_group(g), g.add)


def _box(ambient: GroupSpec, subgroup: tuple, mods: tuple):
    """H x prod Z/mZ, with the law of its elements (h, ns): H's in `ambient`, ns by digits."""
    def law(a, b):
        return ambient.add(a[0], b[0]), tuple((x + y) % m for x, y, m in zip(a[1], b[1], mods))
    return lambda: (transport._box_group(ambient, subgroup, mods), law)


def _cp_box(cp: CosetProgression):
    return _box(cp.group, cp.subgroup, tuple(2 * n for n in cp.lengths))


# (group, law of its elements): criterion 5's group and four boxes, the groups
# of `test_small_group_scan_matches_numpy`, and three more
INDEX_ADD_GROUPS = {
    "Z/64": _spec([64]),
    "Z/4xZ/6": _spec([4, 6]),
    "Z/2xZ/2xZ/8": _spec([2, 2, 8]),
    "H-box": _box(GroupSpec([4, 6]), ((0, 0), (0, 3), (2, 0), (2, 3)), (4, 2)),
    # criterion 5's box with H = {0, 4} x {0} inside Z/8 x Z
    "H-box Z/8xZ": _cp_box(CP_SHAPES[3]),
    "box Z/32": _cp_box(CP_SHAPES[0]),
    "box Z/24": _cp_box(CP_SHAPES[1]),
    "box Z/8xZ/8": _cp_box(CP_SHAPES[2]),
    "Z/2": _spec([2]),
    "Z/5": _spec([5]),
    "Z/8": _spec([8]),
    "Z/2xZ/2": _spec([2, 2]),
    "Z/2xZ/4": _spec([2, 4]),
    "H-box Z/4xZ/2": _box(GroupSpec([4]), ((0,), (2,)), (2,)),
}


@pytest.mark.parametrize("name", INDEX_ADD_GROUPS)
def test_index_add_matches_the_table(name):
    # the kernel builds certificates with `add` and `_emit` checks them with it,
    # so the one law is checked here on every pair: against the numpy table,
    # which composes the factors on its own, and against the elements' own law
    ad, law = INDEX_ADD_GROUPS[name]()
    n, elems, table = ad.size, ad.elems, ad.table.tolist()
    neg = [row.index(ad.zero()) for row in table]
    assert [ad.neg(a) for a in range(n)] == neg
    for a in range(n):
        assert [ad.add(a, b) for b in range(n)] == table[a]
        assert [ad.sub(a, b) for b in range(n)] == [table[a][neg[b]] for b in range(n)]
        assert all(elems[ad.add(a, b)] == law(elems[a], elems[b]) for b in range(n))


def _uniformise_route(p: Dist):
    ad = transport._spec_group(p.group)
    return ad, transport._raw_uniformise(ad, transport._index_law(ad, p.den, p.counts))


def _flatten_route(p: Dist, k: int):
    ad = transport._spec_group(p.group)
    law = transport._index_law(ad, p.den, p.counts)
    return ad, transport._raw_stage(ad, None, law, k, lambda q, sq: False)[0]


def _exit_laws():
    """Criterion 5's 60 laws on Z/64 and 30 seeded laws on Z/4 x Z/6 and Z/2 x Z/2 x Z/8."""
    from test_acceptance import _uniformise_corpus

    laws = [p for _, kind, p, _ in _uniformise_corpus() if kind == "group"]
    assert len(laws) == 60
    rng = random.Random("checked exit")
    for g in (GroupSpec([4, 6]), GroupSpec([2, 2, 8])):
        laws += [random_dist(rng, g, rng.randrange(1, g.order() + 1), 256) for _ in range(15)]
    return laws


def test_emit_matches_the_decode_and_validate_exit():
    for p in _exit_laws():
        routes = [(uniformise_group(p, 1e9), _uniformise_route(p))]
        routes += [(flatten(p, k)[2], _flatten_route(p, k)) for k in (0, 3)]
        for cert, (ad, raw) in routes:
            ref = _cert_with_elems(p, ad, raw)
            assert cert.to_json() == ref.to_json()
            assert (cert.coupling, cert.target) == (ref.coupling, ref.target)
            cert.validate(p)


def test_emit_reads_no_addition_table(monkeypatch):
    def refuse(self):
        raise AssertionError("the kernel read the addition table")

    for g in (GroupSpec([64]), GroupSpec([4, 6])):
        p = random_dist(random.Random(f"no table:{g.moduli}"), g, 12, 128)
        ad, raw = _uniformise_route(p)  # the kernel's shift scan reads the table
        fresh = transport._IndexedGroup(ad.elems, ad._h_table, ad._mods, g.zero())
        with monkeypatch.context() as m:
            m.setattr(transport._IndexedGroup, "table", property(refuse))
            cert = transport._emit(p, fresh, raw)
        assert cert.to_json() == _cert_with_elems(p, ad, raw).to_json()
    # groups of order <= _LIST_TABLE_ORDER are uniformised with no table at all
    for g in (GroupSpec([8]), GroupSpec([2, 4])):
        p = random_dist(random.Random(f"no table:{g.moduli}"), g, 6, 128)
        with monkeypatch.context() as m:
            m.setattr(transport._IndexedGroup, "table", property(refuse))
            cert = uniformise_group(p, 1e9)
        assert cert.to_json() == _cert_with_elems(p, *_uniformise_route(p)).to_json()


def _tampered(raw: transport._RawCert, how: str, ad) -> transport._RawCert:
    """raw with one count moved between atoms of different sums, a target atom
    dropped, or an extra atom of count 0 that changes no sum, set on a copy
    so that `_RawCert` takes out no common factor."""
    coupling, target = dict(raw.coupling), dict(raw.target)
    if how == "moved":
        (x, z), n = next(iter(coupling.items()))
        other = next(a for a in coupling if ad.add(*a) != ad.add(x, z))
        coupling[x, z] -= 1
        coupling[other] += 1
        if n == 1:
            del coupling[x, z]
    elif how == "dropped":
        del target[next(iter(target))]
    else:
        rows = [x for x, _ in coupling] + list(range(ad.size))  # a source row, if one has room
        coupling[next((x, z) for x in rows for z in range(ad.size) if (x, z) not in coupling)] = 0
    return raw._replace(coupling=coupling, target=target)  # `_replace` skips the reduction


@pytest.mark.parametrize("how", ["moved", "dropped", "zero"])
def test_tampered_kernel_output_is_refused(monkeypatch, how):
    rng = random.Random(f"tamper:{how}")
    for g in (GroupSpec([16]), GroupSpec([2, 4])):
        p = random_dist(rng, g, 6, 64)
        uniformise, stage = transport._raw_uniformise, transport._raw_stage

        def tampered_stage(ad, *args):
            cert, *rest = stage(ad, *args)
            return (_tampered(cert, how, ad), *rest)

        with monkeypatch.context() as m:
            m.setattr(transport, "_raw_uniformise", lambda ad, q: _tampered(uniformise(ad, q), how, ad))
            with pytest.raises(CertificateError):
                uniformise_group(p, 1e9)
        with monkeypatch.context() as m:
            m.setattr(transport, "_raw_stage", tampered_stage)
            with pytest.raises(CertificateError):
                flatten(p, 3)
