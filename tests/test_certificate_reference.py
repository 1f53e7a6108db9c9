"""Differential test of the certificate operations against their former bodies.

The six `_*_reference` functions are the public identity, independent-noise,
independent-pair, reverse, compose and split certificates as they were
before those operations were rebuilt on the mass-dict core in
`entsum.transport`, kept here unchanged as the reference: each builds its
coupling atom by atom over `TransportCertificate` and `Dist`.
"""

import random
from fractions import Fraction
from typing import Sequence

import pytest

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
