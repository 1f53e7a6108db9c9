"""Differential test of the certificate operations against their former bodies.

The six `_*_reference` functions are the public identity, independent-noise,
independent-pair, reverse, compose and split certificates as they were
before those operations were rebuilt on the mass-dict core in
`entsum.transport`, kept here unchanged as the reference: each builds its
coupling atom by atom over `TransportCertificate` and `Dist`.

`_raw_compose_reference` is the integer kernel's compose as it was before
dense products were packed into ints: it sums every atom pair.  The kernel
tests run `transport._raw_compose` and `transport._raw_extend` on both sides
of their gates, forced through the cost rule `_packs`, and compare the raw
certificates; their pairs include flatten stages started from a law
(`_raw_stage`).  On a product of cyclic factors, when it packs,
`_raw_extend` composes a certificate with independent noise by convolution
instead, one packed product per row; the noise tests compare it with the
generic compose with the product coupling q ⊗ z that `_raw_noise` builds,
whose target is the pushforward of its atoms, and with the pair loop.
"""

import math
import random
from fractions import Fraction
from typing import Sequence

import pytest

from entsum import transport
from entsum.dists import Dist, JointDist, convolve
from entsum.errors import CertificateError, IncompatibleGroupError
from entsum.fuzz import random_dist
from entsum.groups import Element, GroupSpec
from entsum.transport import (
    TransportCertificate,
    compose_certificates,
    identity_certificate,
    independent_noise_certificate,
    independent_pair_certificate,
    reverse_certificate,
    transport_split,
)


def _identity_certificate_reference(p: Dist, shift: Element | None = None) -> TransportCertificate:
    """Deterministic shift certificate; cost 0."""
    g = p.group
    c = g.zero() if shift is None else g.reduce(shift)
    coupling = JointDist([g, g], {(x, c): v for x, v in p.mass.items()})
    return TransportCertificate(coupling, p.translate(c))


def _independent_noise_certificate_reference(p: Dist, z: Dist) -> TransportCertificate:
    """Certificate p -> p * z with Z independent of X."""
    if p.group != z.group:
        raise IncompatibleGroupError("noise must live in the same group")
    g = p.group
    atoms = {}
    for x, vx in p.mass.items():
        for zz, vz in z.mass.items():
            atoms[(x, zz)] = vx * vz
    return TransportCertificate(JointDist([g, g], atoms), convolve(p, z, "+"))


def _independent_pair_certificate_reference(p: Dist, q: Dist) -> TransportCertificate:
    """Always-feasible certificate p -> q from the product coupling of (X, Y)."""
    if p.group != q.group:
        raise IncompatibleGroupError("endpoints must share a group")
    g = p.group
    atoms: dict = {}
    for x, vx in p.mass.items():
        for y, vy in q.mass.items():
            key = (x, g.sub(y, x))
            atoms[key] = atoms.get(key, Fraction(0)) + vx * vy
    return TransportCertificate(JointDist([g, g], atoms), q)


def _reverse_certificate_reference(c: TransportCertificate) -> TransportCertificate:
    """Explicit reversal: atoms ((x, z), m) become ((x+z, -z), m).

    The result transports the old target back to the old source at equal cost
    (negation permutes the Z-support), and is re-checkable exactly.
    """
    g = c.target.group
    atoms: dict = {}
    for (x, z), v in c.coupling.mass.items():
        key = (g.add(x, z), g.neg(z))
        atoms[key] = atoms.get(key, Fraction(0)) + v
    return TransportCertificate(JointDist([g, g], atoms), c.source())


def _compose_certificates_reference(
    c1: TransportCertificate, c2: TransportCertificate
) -> TransportCertificate:
    """Glue X -> W and W -> Y into X -> Y with Z = Z1 + Z2.

    Z2 is drawn conditionally on W = X + Z1 from the second coupling, so the
    composed coupling is exact whenever c2's source equals c1's target.
    """
    if c2.source() != c1.target:
        raise CertificateError("second certificate does not start at the first's target")
    g = c1.target.group
    w_mass = c1.target.mass
    by_w: dict = {}
    for (w, z2), v in c2.coupling.mass.items():
        by_w.setdefault(w, []).append((z2, v))
    atoms: dict = {}
    for (x, z1), v1 in c1.coupling.mass.items():
        w = g.add(x, z1)
        pw = w_mass[w]
        for z2, v2 in by_w[w]:
            key = (x, g.add(z1, z2))
            atoms[key] = atoms.get(key, Fraction(0)) + v1 * v2 / pw
    return TransportCertificate(JointDist([g, g], atoms), c2.target)


def _transport_split_reference(
    pieces: Sequence[tuple[Fraction, TransportCertificate]],
    selector_entropy: float,
) -> TransportCertificate:
    """Glue per-fibre certificates into one mixture certificate.

    The glued cost never exceeds selector_entropy + weighted piece costs
    (grouping bound); that is asserted, with a small float tolerance.
    """
    if not pieces:
        raise ValueError("need at least one piece")
    weights = [Fraction(w) for w, _ in pieces]
    if sum(weights, Fraction(0)) != 1:
        raise CertificateError("piece weights must sum to exactly 1")
    g = pieces[0][1].target.group
    atoms: dict = {}
    tgt: dict = {}
    bound = selector_entropy
    for w, cert in pieces:
        if cert.target.group != g:
            raise CertificateError("pieces live in different groups")
        if w == 0:
            continue
        bound += float(w) * cert.cost
        for key, v in cert.coupling.mass.items():
            atoms[key] = atoms.get(key, Fraction(0)) + w * v
        for e, v in cert.target.mass.items():
            tgt[e] = tgt.get(e, Fraction(0)) + w * v
    out = TransportCertificate(JointDist([g, g], atoms), Dist(g, tgt))
    if out.cost > bound + 1e-9:
        raise CertificateError(
            f"glued cost {out.cost} exceeds split bound {bound}"
        )
    return out


GROUPS = [GroupSpec([0]), GroupSpec([4]), GroupSpec([2, 4])]


def _same(new: TransportCertificate, ref: TransportCertificate) -> bool:
    return (
        new.coupling == ref.coupling
        and new.target == ref.target
        and new.to_json() == ref.to_json()
    )


def test_operations_match_reference():
    rng = random.Random(606)
    for i in range(210):
        g = GROUPS[i % 3]
        p, q = (random_dist(rng, g, 4, 24) for _ in range(2))
        r = random_dist(rng, g, 3, 24)
        shift = tuple(rng.randrange(-9, 10) for _ in g.moduli)
        assert _same(identity_certificate(p), _identity_certificate_reference(p))
        assert _same(identity_certificate(p, shift), _identity_certificate_reference(p, shift))
        assert _same(independent_noise_certificate(p, r), _independent_noise_certificate_reference(p, r))
        pq = _independent_pair_certificate_reference(p, q)
        assert _same(independent_pair_certificate(p, q), pq)
        qr = _independent_noise_certificate_reference(q, r)
        for c in (pq, qr, _identity_certificate_reference(q, shift)):
            assert _same(reverse_certificate(c), _reverse_certificate_reference(c))
        assert _same(compose_certificates(pq, qr), _compose_certificates_reference(pq, qr))
        back = _reverse_certificate_reference(pq)
        assert _same(compose_certificates(pq, back), _compose_certificates_reference(pq, back))
        w = Fraction(rng.randrange(1, 8), 8)
        pieces = [(w, pq), (1 - w, qr), (Fraction(0), back)]
        sel = 0.7
        assert _same(transport_split(pieces, sel), _transport_split_reference(pieces, sel))


def test_operations_reject_mismatched_inputs():
    z, z4 = GROUPS[0], GROUPS[1]
    point_z, point_z4 = Dist.point(z, (0,)), Dist.point(z4, (0,))
    for op in (independent_noise_certificate, independent_pair_certificate,
               _independent_noise_certificate_reference, _independent_pair_certificate_reference):
        with pytest.raises(IncompatibleGroupError):
            op(point_z, point_z4)
    # equal mass dicts in different groups: only the group tells them apart
    c_z = identity_certificate(point_z)
    c_z4 = identity_certificate(point_z4)
    for compose in (compose_certificates, _compose_certificates_reference):
        with pytest.raises(CertificateError):
            compose(c_z, c_z4)
        with pytest.raises(CertificateError):
            compose(c_z, identity_certificate(Dist.point(z, (1,))))
    for split in (transport_split, _transport_split_reference):
        with pytest.raises(CertificateError):
            split([(Fraction(1, 2), c_z), (Fraction(1, 2), c_z4)], 0.0)
        with pytest.raises(CertificateError):
            split([(Fraction(1, 2), c_z)], 0.0)
        with pytest.raises(CertificateError):
            split([(Fraction(1, 2), c_z), (Fraction(1, 2), identity_certificate(point_z, (3,)))], 0.0)


def _raw_compose_reference(ad, c1, c2):
    src = transport._raw_source(c2)
    if not transport._same_law((c2.den, src), (c1.den, c1.target)):
        raise CertificateError("second certificate does not start at the first's target")
    by_w: dict = {}
    for (w, z2), n in c2.coupling.items():
        by_w.setdefault(w, []).append((z2, n))
    # Z2 given W = w has masses n / src[w]; put them all over m, the lcm of
    # their denominators in lowest terms, so each atom is n1 * n2 / (den1 * m)
    m = math.lcm(*(src[w] // math.gcd(src[w], *(n for _, n in row)) for w, row in by_w.items()))
    cond = {w: [(z2, n * m // src[w]) for z2, n in row] for w, row in by_w.items()}
    atoms: dict = {}
    add = ad.add
    for (x, z1), n1 in c1.coupling.items():
        for z2, n2 in cond[add(x, z1)]:
            key = (x, add(z1, z2))
            atoms[key] = atoms.get(key, 0) + n1 * n2
    den = math.lcm(c1.den * m, c2.den)
    return transport._RawCert(
        den, transport._scaled(atoms, den // (c1.den * m)), transport._scaled(c2.target, den // c2.den)
    )


def _validate(ad, c, source=None):
    """The exact pushforward and source checks of a raw certificate."""
    transport._check_coupling(ad.add, (c.den, c.coupling), (c.den, c.target), source)


@pytest.fixture(params=["pairs", "packed"])
def gate(request, monkeypatch):
    """Force one side of the compose and extend gates; yields whether they pack."""
    packs = request.param == "packed"
    monkeypatch.setattr(transport, "_packs", lambda *args, **kw: packs)
    calls = []
    packed_rows = transport._packed_rows

    def counted(*args):
        calls.append(1)
        return packed_rows(*args)

    monkeypatch.setattr(transport, "_packed_rows", counted)
    yield packs
    assert bool(calls) == packs


def _random_law(rng, size, den_cap):
    """(den, counts) on a random subset of range(size), in lowest terms."""
    els = rng.sample(range(size), rng.randrange(1, min(size, 12) + 1))
    counts = {e: rng.randrange(1, den_cap) for e in sorted(els)}
    return transport._lowest_terms(sum(counts.values()), counts)


def _kernel_pairs(ad, rng):
    """Certificate pairs (c1, c2) with c2 starting at c1's target, of several kinds."""
    p = _random_law(rng, ad.size, 50)
    c1 = rng.choice([
        lambda: transport._raw_independent_pair(ad, p, _random_law(rng, ad.size, 50)),
        lambda: transport._raw_noise(ad, p, _random_law(rng, ad.size, 9)),
        lambda: transport._raw_stage(ad, None, p, 3, lambda q, sq: False)[0],
    ])()
    w = (c1.den, c1.target)
    c2 = rng.choice([
        lambda: transport._raw_independent_pair(ad, w, _random_law(rng, ad.size, 50)),
        lambda: transport._raw_noise(ad, w, _random_law(rng, ad.size, 9)),
        lambda: transport._raw_stage(ad, None, w, 2, lambda q, sq: False)[0],
        lambda: transport._raw_reverse(ad, c1),
    ])()
    return c1, c2


KERNEL_GROUPS = {
    "Z/64": lambda: transport._spec_group(GroupSpec([64])),
    "Z/2xZ/4": lambda: transport._spec_group(GroupSpec([2, 4])),
    # H = {0, 2} x {0, 3} inside Z/4 x Z/6, boxed as H x Z/4 x Z/2
    "box": lambda: transport._box_group(GroupSpec([4, 6]), ((0, 0), (0, 3), (2, 0), (2, 3)), (4, 2)),
}


@pytest.mark.parametrize("name", KERNEL_GROUPS)
def test_raw_compose_matches_pair_loop(gate, name):
    ad = KERNEL_GROUPS[name]()
    rng = random.Random(f"compose:{name}")
    for _ in range(60):
        c1, c2 = _kernel_pairs(ad, rng)
        out = transport._raw_compose(ad, c1, c2)
        assert out == _raw_compose_reference(ad, c1, c2)
        _validate(ad, out, (c1.den, transport._raw_source(c1)))
    # a sigma-split compose of the uniformisation pipeline, the kernel's dense case
    if name == "Z/64":
        q = _random_law(rng, ad.size, 1000)
        up = transport._raw_uniformise(ad, q)
        back = transport._raw_reverse(ad, transport._raw_uniformise(ad, _random_law(rng, ad.size, 1000)))
        assert transport._raw_compose(ad, up, back) == _raw_compose_reference(ad, up, back)


# name -> (group, whether it is a product of cyclic factors, so that an
# extension that packs convolves); a box whose H is the product of its
# coordinate projections is folded into one
NOISE_GROUPS = {
    **{f"Z/{n}": (lambda n=n: transport._spec_group(GroupSpec([n])), True) for n in (1, 2, 8, 12, 64)},
    # the one-dimensional box Z/10 of a progression with a trivial H
    "box Z/10": (lambda: transport._box_group(GroupSpec([0]), ((0,),), (10,)), True),
    "Z/2xZ/4": (KERNEL_GROUPS["Z/2xZ/4"], True),
    "Z/8xZ/8": (lambda: transport._spec_group(GroupSpec([8, 8])), True),
    "Z/2xZ/2xZ/3": (lambda: transport._spec_group(GroupSpec([2, 2, 3])), True),
    # 3^4 padded slots for 16 elements, packed only when forced
    "(Z/2)^4": (lambda: transport._spec_group(GroupSpec([2] * 4)), True),
    "box": (KERNEL_GROUPS["box"], True),
    # criterion 5's box {0, 4} x {0} x Z/12 inside Z/8 x Z, folded to Z/2 x Z/12
    "box Z/2xZ/12": (lambda: transport._box_group(GroupSpec([8, 0]), ((0, 0), (4, 0)), (12,)), True),
    # H = <(1, 1)> inside Z/2 x Z/4 is no product of its projections, so it keeps its table
    "H-table box": (lambda: transport._box_group(GroupSpec([2, 4]), ((0, 0), (0, 2), (1, 1), (1, 3)), (2,)),
                    False),
}


@pytest.mark.parametrize("name", NOISE_GROUPS)
def test_compose_with_noise_matches_generic(gate, monkeypatch, name):
    make, convolves = NOISE_GROUPS[name]
    ad = make()
    composes = []  # one entry per _raw_compose call
    raw_compose = transport._raw_compose
    monkeypatch.setattr(transport, "_raw_compose", lambda *a: composes.append(1) or raw_compose(*a))
    extended_by_compose = set()
    rng = random.Random(f"noise:{name}")

    def law(cap):
        return _random_law(rng, ad.size, cap)

    for i in range(45):
        p = law(50)
        if i % 3 == 0:  # dense
            c1 = transport._raw_noise(ad, p, law(9))
        elif i % 3 == 1:  # sparse
            c1 = transport._raw_independent_pair(ad, p, law(50))
        else:
            k = rng.randrange(1, 8)
            c1 = transport._raw_mix(8, [(k, transport._raw_noise(ad, p, law(9))),
                                        (8 - k, transport._raw_independent_pair(ad, law(50), law(50)))])
        w = (c1.den, c1.target)
        # a random noise law, or the shift noise of up to three flatten rounds
        z = rng.choice([
            lambda: law(9),
            lambda: transport._shift_noise(ad, transport._raw_flatten(ad, w, 3, lambda q, sq: False)[1]),
        ])()
        noise = transport._raw_noise(ad, w, z)
        # q ⊗ z against its target: the pushforward, or q for the point law at zero
        _validate(ad, noise)
        before = len(composes)
        out = transport._raw_extend(ad, c1, z)
        extended_by_compose.add(len(composes) > before)
        assert out == raw_compose(ad, c1, noise)
        assert out == _raw_compose_reference(ad, c1, noise)
        _validate(ad, out, (c1.den, transport._raw_source(c1)))
    assert extended_by_compose == {not (gate and convolves)}


def test_compose_on_z_matches_reference(gate):
    z = GroupSpec([0])
    rng = random.Random(707)
    for _ in range(60):
        p, q = (random_dist(rng, z, 6, 40) for _ in range(2))
        r = random_dist(rng, z, 4, 40)
        pq = independent_pair_certificate(p, q)
        for c2 in (independent_noise_certificate(q, r), reverse_certificate(pq),
                   independent_pair_certificate(q, r)):
            assert _same(compose_certificates(pq, c2), _compose_certificates_reference(pq, c2))


def test_compose_row_whose_source_count_does_not_divide_m(gate):
    # over den 10, w = 0 has source count 6 split 2 + 4 and w = 1 has 4, so
    # Z2's conditional counts are over m = 3, which 6 does not divide; the
    # conditional counts are then 2 * 3 // 6 = 1 and 4 * 3 // 6 = 2, not 0
    z = GroupSpec([0])
    w = Dist(z, {(0,): Fraction(6, 10), (1,): Fraction(4, 10)})
    c1 = identity_certificate(w)
    c2 = TransportCertificate(
        JointDist([z, z], {((0,), (3,)): Fraction(2, 10), ((0,), (5,)): Fraction(4, 10),
                           ((1,), (4,)): Fraction(4, 10)}),
        Dist(z, {(3,): Fraction(2, 10), (5,): Fraction(8, 10)}),
    )
    out = compose_certificates(c1, c2)
    assert _same(out, _compose_certificates_reference(c1, c2))
    assert out.coupling.mass == c2.coupling.mass
    raw1, raw2 = transport._raw(c1), transport._raw(c2)
    assert transport._raw_compose(z, raw1, raw2) == _raw_compose_reference(z, raw1, raw2)


@pytest.mark.parametrize("bits", [8, 16, 64])
def test_compose_slot_reaching_its_bound(gate, bits):
    # X is a point and every W goes to one Y, so the one composed count is
    # den1 * m = 2**bits exactly, one bit more than 2**bits - 1 needs
    z, z64 = GroupSpec([0]), transport._spec_group(GroupSpec([64]))
    for ad, e in ((z, lambda k: (k,)), (z64, lambda k: k)):
        c1 = transport._raw_independent_pair(ad, (1, {e(0): 1}), (2**bits, {e(1): 1, e(2): 2**bits - 1}))
        c2 = transport._raw_independent_pair(ad, (c1.den, c1.target), (1, {e(5): 1}))
        out = transport._raw_compose(ad, c1, c2)
        assert out == _raw_compose_reference(ad, c1, c2)
        assert (out.den, out.coupling) == (1, {(e(0), e(5)): 1})
