"""Differential test of the count-based laws against their former Fraction bodies.

`Dist` and `JointDist` used to hold `Fraction` masses, and every marginal,
sum, condition, product, trial joint, fibre entropy, path joint and
certificate check re-summed those masses and rebuilt the law through a
normaliser that summed and sorted `Fraction`s.  Those bodies are kept here,
over plain mass dicts, as the reference.  Both paths are exact, so every
mass dict must be equal, atom order included, and every entropy bitwise
equal.  A property test checks that each law, on whatever path it was
built, is in its canonical count form.

The fuzz generators `random_dist` and `random_joint`, `JointDist.push`, the
serialisers `dump_dist` and `dump_joint` and `inverse.effective_support`
read and build counts too; their `Fraction` bodies are kept here as well.
The generators must draw the same numbers and give equal laws, the
serialisers the same JSON text, and the core reports equal fields.

`mod_fiber_decomposition`, `bridge_entropy`, `smooth_shift_search`,
`BoxEmbedding.pull`, `TransportCertificate.to_json` and the loaders
`load_dist` and `load_joint` read counts as well.  Their `Fraction` bodies are
the last references here: laws must be equal, floats and the character table
bitwise equal, JSON text identical, and a malformed file must fail the same way.
"""

import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entsum import fileio, transport
from entsum.bsg import BsgInstance, build_path_joint, factorization_exact
from entsum.dists import (
    Dist,
    JointDist,
    ci_trials,
    convolve,
    fibre_entropy,
    independent_joint,
    is_independent,
    tv_distance,
)
from entsum.errors import CertificateError, PreconditionError, SchemaError, SearchExhaustedError
from entsum.fileio import dump_dist, dump_joint
from entsum.fuzz import _composition, random_dist, random_joint
from entsum.groups import GroupSpec
from entsum.inverse import CoreReport, additive_energy, effective_support
from entsum.progressions import CosetProgression, box_embedding
from entsum.torsionfree import (
    PiecewiseDensity,
    SpectrumReport,
    bridge_entropy,
    continuous_entropy,
    mod_fiber_decomposition,
    smooth_shift_search,
)
from entsum.transport import uniformise_coset_progression

GROUPS = {
    "Z": GroupSpec([0]),
    "Z/8": GroupSpec([8]),
    "Z/2xZ/4": GroupSpec([2, 4]),
    "Z^2": GroupSpec([0, 0]),
}
# composite denominators make many masses share factors with the denominator,
# where an entropy term taken on the unreduced pair can move by an ulp
DEN_CAPS = (6, 64, 720_720, 2**64)


# ---------------------------------------------------------------------------
# the former Fraction bodies


def _normalise(mass, reduce):
    atoms = {}
    total = Fraction(0)
    for key, v in mass.items():
        if v == 0:
            continue
        key = reduce(key)
        atoms[key] = atoms.get(key, Fraction(0)) + v
        total += v
    assert total == 1
    return {key: atoms[key] for key in sorted(atoms)}


def _push(mass, key):
    out = {}
    for atom, v in mass.items():
        k = key(atom)
        out[k] = out[k] + v if k in out else v
    return out


def _joint_reduce(groups):
    return lambda atom: tuple(g.reduce(x) for g, x in zip(groups, atom))


def _f_nats(v):
    num, den = v.numerator, v.denominator
    return -(num / den) * (math.log(num) - math.log(den))


def _entropy(mass):
    return math.fsum(_f_nats(v) for v in mass.values())


def _condition(mass, keep):
    kept = {a: v for a, v in mass.items() if keep(a)}
    total = sum(kept.values(), Fraction(0))
    return {a: v / total for a, v in kept.items()}


def _marginal(j, coords):
    groups = [j.groups[c] for c in coords]
    return _normalise(_push(j.mass, lambda a: tuple(a[c] for c in coords)), _joint_reduce(groups))


def _dist(j, coord):
    return _normalise(_push(j.mass, lambda a: a[coord]), j.groups[coord].reduce)


def _sum_dist(j, coords, signs):
    g = j.groups[coords[0]]

    def signed_sum(atom):
        s = g.zero()
        for c, sg in zip(coords, signs):
            s = g.add(s, atom[c] if sg > 0 else g.neg(atom[c]))
        return s

    return _normalise(_push(j.mass, signed_sum), g.reduce)


def _independent_joint(*dists):
    atoms = {(): Fraction(1)}
    for d in dists:
        nxt = {}
        for prefix, v in atoms.items():
            for e, w in d.mass.items():
                nxt[prefix + (e,)] = v * w
        atoms = nxt
    return _normalise(atoms, _joint_reduce([d.group for d in dists]))


def _ci_trials(j, pivot):
    rest = [c for c in range(j.k) if c != pivot]
    blocks = {}
    for atom, v in j.mass.items():
        blocks.setdefault(atom[pivot], []).append((tuple(atom[c] for c in rest), v))
    pivot_mass = _push(j.mass, lambda a: a[pivot])
    out = {}
    for y, blk in blocks.items():
        py = pivot_mass[y]
        for x1, v1 in blk:
            for x2, v2 in blk:
                out[x1 + x2 + (y,)] = v1 * v2 / py
    groups = [j.groups[c] for c in rest] * 2 + [j.groups[pivot]]
    return _normalise(out, _joint_reduce(groups))


def _fibre_entropy(mass, key):
    pairs = _push(mass, key)
    weights = _push(pairs, lambda k: k[0])
    fibres = {}
    for (gkey, _), v in pairs.items():
        fibres.setdefault(gkey, []).append(_f_nats(v / weights[gkey]))
    return math.fsum(float(w) * math.fsum(fibres[gkey]) for gkey, w in weights.items())


def _is_independent(j, coords_a, coords_b):
    a, b = _marginal(j, coords_a), _marginal(j, coords_b)
    ab = _marginal(j, tuple(coords_a) + tuple(coords_b))
    ka = len(coords_a)
    if len(ab) != len(a) * len(b):
        return False
    return all(v == a[atom[:ka]] * b[atom[ka:]] for atom, v in ab.items())


def _tv_distance(p, q):
    keys = set(p.mass) | set(q.mass)
    return float(sum(abs(p.mass.get(k, Fraction(0)) - q.mass.get(k, Fraction(0))) for k in keys))


def _build_path_joint(j):
    g = j.groups[0]
    px = _push(j.mass, lambda a: a[0])
    by_x = {}
    for (x, y), v in j.mass.items():
        by_x.setdefault(x, []).append((y, v))
    atoms = {}
    for (x1, x2, y), base in _ci_trials(j, 1).items():
        for yp, v3 in by_x[x1]:
            atoms[(x1, x2, y, yp)] = base * v3 / px[x1]
    return _normalise(atoms, _joint_reduce([g] * 4))


def _factorization_exact(mass):
    cond = {}
    for (x1, x2, y, yp), v in mass.items():
        cell = cond.setdefault((x1, y), {"w": Fraction(0), "x2": {}, "yp": {}, "atoms": {}})
        cell["w"] += v
        cell["x2"][x2] = cell["x2"].get(x2, Fraction(0)) + v
        cell["yp"][yp] = cell["yp"].get(yp, Fraction(0)) + v
        cell["atoms"][(x2, yp)] = cell["atoms"].get((x2, yp), Fraction(0)) + v
    for cell in cond.values():
        if len(cell["atoms"]) != len(cell["x2"]) * len(cell["yp"]):
            return False
        w = cell["w"]
        for (x2, yp), v in cell["atoms"].items():
            if v * w != cell["x2"][x2] * cell["yp"][yp]:
                return False
    return True


def _validates(cert, source):
    """The former `TransportCertificate.validate`, as a bool."""
    mass, add = cert.coupling.mass, cert.target.group.add
    if _push(mass, lambda a: add(*a)) != cert.target.mass:
        return False
    return source.group == cert.target.group and _push(mass, lambda a: a[0]) == source.mass


def _rand_elements(rng, g, count):
    seen = set()
    tries = 0
    while len(seen) < count and tries < 400:
        coord = tuple(
            rng.randrange(m) if m > 0 else rng.randrange(-8, 9) for m in g.moduli
        )
        seen.add(coord)
        tries += 1
    return sorted(seen)


def _random_dist(rng, g, support_cap, den_cap):
    size = rng.randrange(1, support_cap + 1)
    els = _rand_elements(rng, g, size)
    size = len(els)
    den = rng.randrange(size, max(den_cap, size) + 1)
    parts = _composition(rng, den, size)
    return Dist(g, {e: Fraction(n, den) for e, n in zip(els, parts)})


def _random_joint(rng, g, support_cap, den_cap, coords=2):
    size = rng.randrange(1, support_cap + 1)
    atoms = set()
    tries = 0
    while len(atoms) < size and tries < 400:
        atom = tuple(
            tuple(rng.randrange(m) if m > 0 else rng.randrange(-4, 5) for m in g.moduli)
            for _ in range(coords)
        )
        atoms.add(atom)
        tries += 1
    atoms = sorted(atoms)
    den = rng.randrange(len(atoms), max(den_cap, len(atoms)) + 1)
    parts = _composition(rng, den, len(atoms))
    return JointDist([g] * coords, {a: Fraction(n, den) for a, n in zip(atoms, parts)})


def _joint_push(j, fn, groups):
    """The former `JointDist.push`, over the `mass` view."""
    return JointDist(groups, _push(j.mass, fn))


def _dump_dist(p):
    return {
        "group": list(p.group.moduli),
        "atoms": [
            {"x": list(e), "num": v.numerator, "den": v.denominator}
            for e, v in p.mass.items()
        ],
    }


def _dump_joint(j):
    return {
        "groups": [list(g.moduli) for g in j.groups],
        "atoms": [
            {"xs": [list(x) for x in atom], "num": v.numerator, "den": v.denominator}
            for atom, v in j.mass.items()
        ],
    }


def _effective_support(p, c=2.0):
    if c < 1:
        raise ValueError("C must be >= 1")
    h = p.entropy()
    lo, hi = math.exp(-h) / c, math.exp(-h) * c
    core = tuple(x for x, v in p.mass.items() if lo <= float(v) <= hi)
    mass = sum((p.mass[x] for x in core), Fraction(0))
    if core:
        gap = math.log(len(core)) - h
        ratio = additive_energy(set(core), p.group) / len(core) ** 3
    else:
        gap = -h
        ratio = 0.0
    return CoreReport(core, mass, gap, ratio, c, c_too_small=mass < Fraction(1, 2))


# ---------------------------------------------------------------------------
# seeded laws and joints


def _element(rng, g, reach=4):
    return tuple(rng.randrange(m) if m else rng.randrange(-reach, reach + 1) for m in g.moduli)


def _parts(rng, den, size):
    cuts = set()
    while len(cuts) < size - 1:
        cuts.add(rng.randrange(1, den))
    edges = [0, *sorted(cuts), den]
    return [b - a for a, b in zip(edges, edges[1:])]


def _law(rng, g):
    els = sorted({_element(rng, g) for _ in range(rng.randrange(1, 8))})
    den = rng.randrange(len(els), max(rng.choice(DEN_CAPS), len(els)) + 1)
    return Dist(g, {e: Fraction(n, den) for e, n in zip(els, _parts(rng, den, len(els)))})


def _joint(rng, g, k=2):
    atoms = sorted({tuple(_element(rng, g, 2) for _ in range(k)) for _ in range(rng.randrange(1, 10))})
    den = rng.randrange(len(atoms), max(rng.choice(DEN_CAPS), len(atoms)) + 1)
    return JointDist([g] * k, {a: Fraction(n, den) for a, n in zip(atoms, _parts(rng, den, len(atoms)))})


def _corpus(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield rng, GROUPS[rng.choice(sorted(GROUPS))]


def _assert_same(law, ref_mass):
    assert law.mass == ref_mass
    assert list(law.mass) == list(ref_mass)
    assert law.entropy().hex() == _entropy(ref_mass).hex()


# ---------------------------------------------------------------------------
# tests


def test_corpus_reaches_every_group_and_unreduced_terms():
    groups, unreduced = set(), 0
    for rng, g in _corpus(1, 200):
        groups.add(g)
        p = _law(rng, g)
        unreduced += sum(math.gcd(n, p.den) > 1 for n in p.counts.values())
    assert groups == set(GROUPS.values())
    assert unreduced > 100


def test_dist_operations_match_reference():
    for rng, g in _corpus(2, 300):
        p, q = _law(rng, g), _law(rng, g)
        c = _element(rng, g, 9)
        _assert_same(p.translate(c), _normalise({g.add(e, c): v for e, v in p.mass.items()}, g.reduce))
        _assert_same(p.negate(), _normalise({g.neg(e): v for e, v in p.mass.items()}, g.reduce))
        cut = rng.choice(p.support())
        keep = lambda e: e <= cut  # noqa: E731
        _assert_same(p.condition(keep), _normalise(_condition(p.mass, keep), g.reduce))
        assert tv_distance(p, q).hex() == _tv_distance(p, q).hex()
        r = _law(rng, g)
        _assert_same(independent_joint(p, q, r), _independent_joint(p, q, r))


def test_joint_operations_match_reference():
    for rng, g in _corpus(3, 300):
        j = _joint(rng, g, k=3)
        for coords in ((0,), (2, 0), (1, 2), (0, 1, 2)):
            _assert_same(j.marginal(coords), _marginal(j, coords))
        for c in range(3):
            _assert_same(j.dist(c), _dist(j, c))
        signs = [rng.choice((1, -1)) for _ in range(3)]
        _assert_same(j.sum_dist([0, 1, 2], signs), _sum_dist(j, [0, 1, 2], signs))
        cut = rng.choice(list(j.mass))[1]
        _assert_same(j.condition(1, lambda x: x >= cut),
                     _normalise(_condition(j.mass, lambda a: a[1] >= cut), _joint_reduce(j.groups)))
        for pivot in range(3):
            _assert_same(ci_trials(j, pivot), _ci_trials(j, pivot))
        key = lambda a: (a[0], g.add(a[1], a[2]))  # noqa: E731
        assert fibre_entropy(j, key).hex() == _fibre_entropy(j.mass, key).hex()
        for a, b in (((0,), (1,)), ((0, 1), (2,)), ((2,), (0,))):
            assert is_independent(j, a, b) == _is_independent(j, a, b)


def test_product_joints_are_independent_in_both():
    for rng, g in _corpus(4, 100):
        j = independent_joint(_law(rng, g), _law(rng, g))
        assert is_independent(j, [0], [1]) and _is_independent(j, (0,), (1,))


def test_path_joint_and_factorization_match_reference():
    outcomes = set()
    for rng, g in _corpus(5, 200):
        j = _joint(rng, g)
        if j.groups[0] != j.groups[1]:
            continue
        path = build_path_joint(BsgInstance(j, 0.0))
        _assert_same(path, _build_path_joint(j))
        assert factorization_exact(path) and _factorization_exact(path.mass)
        other = _joint(rng, g, k=4)
        outcomes.add(factorization_exact(other))
        assert factorization_exact(other) == _factorization_exact(other.mass)
    assert outcomes == {True, False}


def test_certificate_checks_match_reference():
    outcomes = set()
    for rng, g in _corpus(6, 200):
        p, q = _law(rng, g), _law(rng, g)
        certs = [
            transport.identity_certificate(p, _element(rng, g)),
            transport.independent_noise_certificate(p, q),
            transport.independent_pair_certificate(p, q),
        ]
        certs.append(transport.reverse_certificate(certs[2]))
        for cert in certs:
            atoms = dict(cert.coupling.mass)
            (x, z), v = next(iter(atoms.items()))
            del atoms[(x, z)]
            moved = (x, g.add(z, g.reduce((1,) * g.dim)))
            atoms[moved] = atoms.get(moved, Fraction(0)) + v
            tampered = transport.TransportCertificate(JointDist([g, g], atoms), cert.target)
            for c in (cert, tampered):
                for source in (p, q, cert.source()):
                    want = _validates(c, source)
                    try:
                        c.validate(source)
                        got = True
                    except CertificateError:
                        got = False
                    assert got == want
                    outcomes.add(got)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# the canonical form


def _assert_canonical(law):
    keys = list(law.counts)
    assert keys == sorted(keys)
    assert all(type(n) is int and n > 0 for n in law.counts.values())
    assert sum(law.counts.values()) == law.den
    assert math.gcd(law.den, *law.counts.values()) == 1
    if isinstance(law, Dist):
        assert all(law.group.reduce(e) == e for e in keys)
    else:
        assert all(tuple(g.reduce(x) for g, x in zip(law.groups, a)) == a for a in keys)
    assert law.mass == {e: Fraction(n, law.den) for e, n in law.counts.items()}
    assert list(law.mass) == keys
    # the public constructor reads the same law back, so == and hash agree with it
    same = type(law)(law.group if isinstance(law, Dist) else law.groups, law.mass)
    assert same == law and hash(same) == hash(law)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(sorted(GROUPS)))
def test_every_path_builds_canonical_laws(seed, name):
    rng, g = random.Random(seed), GROUPS[name]
    p, q = _law(rng, g), _law(rng, g)
    j = _joint(rng, g, k=3)
    laws = [
        p, Dist.uniform(g, [_element(rng, g) for _ in range(5)]), Dist.point(g, _element(rng, g, 20)),
        convolve(p, q, "+"), convolve(p, q, "-"), p.translate(_element(rng, g, 20)), p.negate(),
        p.condition(lambda e: e != p.support()[0]) if len(p) > 1 else p,
        j, j.marginal([2, 0]), j.dist(1), j.sum_dist([0, 2], [1, -1]),
        j.condition(0, lambda x: x == next(iter(j.counts))[0]),
        j.push(lambda a: (a[0], g.add(a[1], a[2])), [g, g]),
        independent_joint(p, q), ci_trials(j, 1),
        build_path_joint(BsgInstance(j.marginal([0, 1]), 0.0)),
    ]
    certs = [transport.independent_pair_certificate(p, q), transport.independent_noise_certificate(p, q)]
    shift = transport.identity_certificate(q, _element(rng, g))
    certs.append(transport.compose_certificates(certs[0], shift))
    if g.is_finite():
        u = Dist.uniform(g, g.elements())
        two = Dist.uniform(g, [_element(rng, g), _element(rng, g)])
        certs += [transport.uniformise_group(p, 1e9), transport.transport_exact(two, u)]
    for cert in certs:
        laws += [cert.coupling, cert.target, cert.noise()]
    for law in laws:
        _assert_canonical(law)


# ---------------------------------------------------------------------------
# generators, pushforwards, serialisers and cores read from counts

SAMPLED = {"Z": GroupSpec([0]), "Z/8": GroupSpec([8]), "Z/4xZ/4": GroupSpec([4, 4])}


def _twin(rng):
    twin = random.Random()
    twin.setstate(rng.getstate())
    return twin


def _same_law(new, old):
    assert new == old and hash(new) == hash(old)
    assert list(new.counts) == list(old.counts)
    assert new.entropy().hex() == old.entropy().hex()


def _drawn(seed, count):
    """(rng, group, support cap, den cap) over the sampled groups, with
    denominators from fuzz-sized to 2**62, the widest `_composition` samples."""
    rng = random.Random(seed)
    for _ in range(count):
        name = rng.choice(sorted(SAMPLED))
        yield rng, SAMPLED[name], rng.randrange(1, 9), rng.choice([1, 6, 64, 720_720, 2**62])


def test_generators_match_reference():
    sizes = set()
    for rng, g, support_cap, den_cap in _drawn(7, 600):
        twin = _twin(rng)
        _same_law(random_dist(rng, g, support_cap, den_cap), _random_dist(twin, g, support_cap, den_cap))
        assert rng.getstate() == twin.getstate()
        for coords in (2, 3):
            j = random_joint(rng, g, support_cap, den_cap, coords)
            _same_law(j, _random_joint(twin, g, support_cap, den_cap, coords))
            assert rng.getstate() == twin.getstate()
            sizes.add(len(j))
    assert sizes == set(range(1, 9))


def test_push_matches_reference():
    z2 = GroupSpec([2])
    for rng, g, support_cap, den_cap in _drawn(8, 300):
        j = random_joint(rng, g, support_cap, den_cap, coords=rng.choice((2, 3)))
        unreduced = lambda a: (tuple(x + y for x, y in zip(a[0], a[-1])), a[1])  # noqa: E731
        for fn, groups in (
            (unreduced, [g, g]),  # sums past the modulus, reduced by the target group
            (lambda a: (a[-1][:1], a[0]), [z2, g]),  # a coarser group merges atoms
            (lambda a: (a[0],) * 4, [g] * 4),
        ):
            _same_law(j.push(fn, groups), _joint_push(j, fn, groups))
        for bad in ([g], [g, g, g]):
            with pytest.raises(ValueError, match="coordinates"):
                j.push(unreduced, bad)
            with pytest.raises(ValueError, match="coordinates"):
                _joint_push(j, unreduced, bad)


def test_serialisers_match_reference():
    for rng, g, support_cap, den_cap in _drawn(9, 400):
        p = random_dist(rng, g, support_cap, den_cap)
        assert json.dumps(dump_dist(p)) == json.dumps(_dump_dist(p))
        j = random_joint(rng, g, support_cap, den_cap, coords=rng.choice((2, 3)))
        assert json.dumps(dump_joint(j)) == json.dumps(_dump_joint(j))


def test_effective_support_matches_reference():
    flags = set()
    for rng, g, support_cap, den_cap in _drawn(10, 300):
        p = random_dist(rng, g, support_cap, den_cap)
        for c in (1.0, 1.1, 2.0, 8.0):
            new, old = effective_support(p, c), _effective_support(p, c)
            assert new.core_set == old.core_set
            assert new.mass == old.mass and type(new.mass) is Fraction
            assert new.log_size_gap.hex() == old.log_size_gap.hex()
            assert new.energy_ratio.hex() == old.energy_ratio.hex()
            assert (new.c_value, new.c_too_small) == (old.c_value, old.c_too_small)
            flags.add((bool(new.core_set), new.c_too_small))
    assert flags == {(True, True), (True, False), (False, True)}


# ---------------------------------------------------------------------------
# fibres, the bridge, the shift search, box pulls, certificates and loaders
# read counts too; their former `Fraction` bodies follow


def _mod_fiber_decomposition(p, m):
    z, zm = GroupSpec([0]), GroupSpec([m])
    w_mass, fibres = {}, {}
    for (x,), v in p.mass.items():
        w = x % m
        w_mass[(w,)] = w_mass.get((w,), Fraction(0)) + v
        fibres.setdefault(w, {})[((x - w) // m,)] = v
    out = {w: Dist(z, {e: v / w_mass[(w,)] for e, v in atoms.items()}) for w, atoms in fibres.items()}
    return Dist(zm, w_mass), out


def _bridge_entropy(p):
    atoms = sorted((x, v) for (x,), v in p.mass.items())
    breaks = [Fraction(atoms[0][0])]
    pieces = []
    for x, v in atoms:
        if x > breaks[-1]:
            breaks.append(Fraction(x))
            pieces.append((0, 0))
        breaks.append(Fraction(x + 1))
        pieces.append((v, 0))
    dens = PiecewiseDensity(breaks, pieces)
    ent = continuous_entropy(dens)
    assert abs(ent - p.entropy()) <= 1e-9
    return dens, ent


def _smooth_shift_search(p, mu, box=None):
    d = p.group.dim
    mins = [min(x[i] for x in p.mass) for i in range(d)]
    p0 = p.translate(tuple(-m for m in mins))
    sizes = [max(x[i] for x in p0.mass) + 1 for i in range(d)]
    if box is not None:
        sizes = [int(n) for n in box]
    dims = tuple(3 * n for n in sizes)
    total = math.prod(dims)
    arr = np.zeros(dims, dtype=float)
    for x, v in p0.mass.items():
        arr[x] = float(v)
    coeffs = np.fft.fftn(arr)
    parseval_lhs = float(np.sum(np.abs(coeffs) ** 2))
    parseval_rhs = total * float(sum(float(v) ** 2 for v in p0.mass.values()))
    mags = np.abs(coeffs)
    spectrum = tuple(tuple(int(c) for c in idx) for idx in np.argwhere(mags >= mu))

    def char_dist(r):
        worst = 0.0
        for t in spectrum:
            theta = 2.0 * math.pi * math.fsum((t[i] * r[i]) / dims[i] for i in range(d))
            worst = max(worst, 2.0 * abs(math.sin(theta / 2.0)))
        return worst

    radius = min(max(s - 1 for s in sizes), math.ceil(d * mu**-3))
    best_r, best_m, chosen, chosen_m = None, math.inf, None, math.inf
    for rho in range(1, radius + 1):
        for r in itertools.product(*(range(min(n, rho + 1)) for n in sizes)):
            if max(r) != rho:
                continue
            m = char_dist(r)
            if m < best_m:
                best_m, best_r = m, r
            if m <= mu * mu:
                chosen, chosen_m = r, m
                break
        if chosen is not None:
            break
    relaxed = chosen is None
    if relaxed:
        if best_r is None:
            raise SearchExhaustedError(f"no nonzero shift exists within radius {radius}", spectrum)
        chosen, chosen_m = best_r, best_m
    conv = convolve(p0, p0, "+")
    realized_tv = tv_distance(conv, conv.translate(chosen))
    return SpectrumReport(mu, dims, coeffs, spectrum, chosen, chosen_m, relaxed, realized_tv,
                          parseval_lhs, parseval_rhs)


def _pull(emb, p):
    out = {}
    for e, v in p.mass.items():
        if e not in emb.backward:
            raise PreconditionError(f"support element {e} lies outside the progression")
        out[emb.backward[e]] = v
    return out


def _to_json(cert):
    return {
        "group": list(cert.target.group.moduli),
        "cost": cert.cost,
        "coupling": [
            {"x": list(x), "z": list(z), "num": v.numerator, "den": v.denominator}
            for (x, z), v in cert.coupling.mass.items()
        ],
        "target": dump_dist(cert.target)["atoms"],
    }


def _load_dist(obj):
    group = fileio._group(obj["group"])
    mass = {}
    for atom in fileio._atoms(obj):
        fileio._known(atom, {"x", "num", "den"}, "atom")
        key = fileio._element(atom.get("x", ()), group, atom)
        mass[key] = mass.get(key, Fraction(0)) + fileio._fraction(atom)
    total = sum(mass.values(), Fraction(0))
    if total != 1:
        raise SchemaError(f"masses sum to {total}, exact 1 required")
    return Dist(group, mass)


def _load_joint(obj):
    groups = [fileio._group(g) for g in obj["groups"]]
    mass = {}
    for atom in fileio._atoms(obj):
        fileio._known(atom, {"xs", "num", "den"}, "atom")
        xs = atom.get("xs")
        if not isinstance(xs, list) or len(xs) != len(groups):
            raise SchemaError(f"atom {atom!r} does not match the coordinate count")
        key = tuple(fileio._element(x, g, atom) for g, x in zip(groups, xs))
        mass[key] = mass.get(key, Fraction(0)) + fileio._fraction(atom)
    total = sum(mass.values(), Fraction(0))
    if total != 1:
        raise SchemaError(f"masses sum to {total}, exact 1 required")
    return JointDist(groups, mass)


# Z, Z^2 and Z/m, and criterion 5's four progression shapes
READ_GROUPS = {"Z": GroupSpec([0]), "Z^2": GroupSpec([0, 0]), "Z/6": GroupSpec([6]), "Z/16": GroupSpec([16])}
CP_SHAPES = [
    CosetProgression(GroupSpec([0]), [(0,)], (0,), [(1,)], [16]),
    CosetProgression(GroupSpec([0]), [(0,)], (5,), [(2,)], [12]),
    CosetProgression(GroupSpec([0, 0]), [(0, 0)], (0, 0), [(1, 0), (0, 1)], [4, 4]),
    CosetProgression(GroupSpec([8, 0]), [(0, 0), (4, 0)], (1, 0), [(0, 1)], [6]),
]


def _law_on(rng, g, elements):
    """A law on a random subset of `elements`, with a random denominator."""
    support = sorted(rng.sample(elements, rng.randrange(1, min(len(elements), 12) + 1)))
    den = rng.randrange(len(support), max(rng.choice(DEN_CAPS), len(support)) + 1)
    return Dist(g, {e: Fraction(n, den) for e, n in zip(support, _parts(rng, den, len(support)))})


def _outcome(fn, *args):
    """fn(*args), or the type of the entsum error it raised."""
    try:
        return fn(*args)
    except (SchemaError, PreconditionError, SearchExhaustedError) as exc:
        return type(exc)


def test_mod_fibres_and_bridge_match_reference():
    z = GroupSpec([0])
    for rng, _ in _corpus(11, 300):
        p = _law(rng, z)
        for m in (1, 2, 3, rng.randrange(4, 12)):
            (w, fibres), (w_ref, fibres_ref) = mod_fiber_decomposition(p, m), _mod_fiber_decomposition(p, m)
            _same_law(w, w_ref)
            assert list(fibres) == list(fibres_ref)
            for key, fibre in fibres.items():
                _same_law(fibre, fibres_ref[key])
        (dens, ent), (dens_ref, ent_ref) = bridge_entropy(p), _bridge_entropy(p)
        assert (dens.breakpoints, dens.pieces) == (dens_ref.breakpoints, dens_ref.pieces)
        assert ent.hex() == ent_ref.hex()


def test_smooth_shift_search_matches_reference():
    # the reference keeps the search's best/chosen loop with its double break, which
    # one running best replaced; the laws reach the strict, relaxed and radius-0 outcomes
    outcomes = set()
    for rng, _ in _corpus(12, 100):
        g = READ_GROUPS[rng.choice(("Z", "Z^2"))]
        p = _law(rng, g)
        mu = rng.choice((0.3, 0.5, 0.8))
        box = None
        if rng.random() < 0.3:
            box = [max(x[i] for x in p.counts) - min(x[i] for x in p.counts) + 1 + rng.randrange(3)
                   for i in range(g.dim)]
        new, old = _outcome(smooth_shift_search, p, mu, box), _outcome(_smooth_shift_search, p, mu, box)
        if isinstance(old, type):
            assert new is old
            outcomes.add(old.__name__)
            continue
        assert np.array_equal(new.coeffs, old.coeffs)
        for field in ("mu", "dims", "spectrum", "shift", "relaxed"):
            assert getattr(new, field) == getattr(old, field)
        for field in ("max_char_dist", "realized_tv", "parseval_lhs", "parseval_rhs"):
            assert getattr(new, field).hex() == getattr(old, field).hex()
        outcomes.add(old.relaxed)
    assert outcomes == {True, False, "SearchExhaustedError"}


def test_pull_and_certificates_match_reference():
    rng = random.Random(13)
    for cp in CP_SHAPES * 3:
        emb = box_embedding(cp)
        p = _law_on(rng, cp.group, sorted(emb.backward))
        box = emb.pull(p)
        assert {b: Fraction(n, p.den) for b, n in box.items()} == _pull(emb, p)
        assert list(box) == list(_pull(emb, p))
        for cert in (uniformise_coset_progression(p, cp),
                     transport.independent_pair_certificate(p, Dist.uniform(cp.group, emb.backward))):
            assert json.dumps(cert.to_json()) == json.dumps(_to_json(cert))
        outside = p.translate(cp.group.reduce((100,) * cp.group.dim))  # every shape has a bounded Z side
        assert _outcome(emb.pull, outside) is _outcome(_pull, emb, outside) is PreconditionError
    for rng, _ in _corpus(14, 200):
        g = READ_GROUPS[rng.choice(sorted(READ_GROUPS))]
        p, q = _law(rng, g), _law(rng, g)
        pair = transport.independent_pair_certificate(p, q)
        certs = [pair, transport.reverse_certificate(pair), transport.independent_noise_certificate(p, q),
                 transport.compose_certificates(pair, transport.identity_certificate(q, _element(rng, g)))]
        if g.is_finite():
            certs.append(transport.uniformise_group(p, 1e9))
        for cert in certs:
            assert json.dumps(cert.to_json()) == json.dumps(_to_json(cert))


def _atoms_variant(rng, atoms, moduli):
    """The same law's atoms reshuffled: unreduced num/den pairs, split and
    zero-mass atoms, unreduced coordinates on Z/m, in a random order."""
    out = []
    for atom in atoms:
        num, den = atom["num"], atom["den"]
        k = rng.choice((1, 1, 2, 6))
        num, den = num * k, den * k
        if num > 1 and rng.random() < 0.3:
            cut = rng.randrange(1, num)
            out += [{**atom, "num": cut, "den": den}, {**atom, "num": num - cut, "den": den}]
        else:
            out.append({**atom, "num": num, "den": den})
    if rng.random() < 0.2:
        out.append({**rng.choice(atoms), "num": 0, "den": 7})
    for atom in out:
        for coords in atom["xs"] if "xs" in atom else [atom["x"]]:
            for i, m in enumerate(moduli):
                if m and rng.random() < 0.3:
                    coords[i] += m
    rng.shuffle(out)
    if rng.random() < 0.15:  # a total above 1
        out[0] = {**out[0], "num": out[0]["num"] + 1}
    return out


def test_loaders_match_reference():
    outcomes = set()
    for rng, _ in _corpus(15, 400):
        g = READ_GROUPS[rng.choice(sorted(READ_GROUPS))]
        obj = json.loads(json.dumps(dump_dist(_law(rng, g))))
        obj["atoms"] = _atoms_variant(rng, obj["atoms"], g.moduli)
        new, old = _outcome(fileio.load_dist, obj), _outcome(_load_dist, json.loads(json.dumps(obj)))
        if isinstance(old, type):
            assert new is old
        else:
            _same_law(new, old)
        outcomes.add(old is SchemaError)
        obj = json.loads(json.dumps(dump_joint(_joint(rng, g, k=rng.choice((2, 3))))))
        obj["atoms"] = _atoms_variant(rng, obj["atoms"], g.moduli)
        new, old = _outcome(fileio.load_joint, obj), _outcome(_load_joint, json.loads(json.dumps(obj)))
        if isinstance(old, type):
            assert new is old
        else:
            _same_law(new, old)
        outcomes.add(old is SchemaError)
    assert outcomes == {True, False}
