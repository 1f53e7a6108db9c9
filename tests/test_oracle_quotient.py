"""The exact oracle's quotient by the translations that fix its target.

A translation c with q + c = q maps each vertex of the coupling polytope to a
vertex of equal cost, so `transport_exact` visits one vertex per orbit and
expands the ties by every such translation.  Three checks hold it to the full
search:

- the line permutations `_translation_perms` finds, on targets with known
  stabilisers;
- a differential test against the forest enumerator of
  `test_oracle_reference.py` on periodic targets that are not uniform;
- `tests/data/oracle_certs.sha256`, the sha256 of the `to_json()` of the
  oracle's certificate on each instance of a seeded corpus, taken from the
  full search before the quotient: sources of 1 to 4 atoms on Z, Z/2 to Z/8
  and Z/2 x Z/2, each sent to a random target, to the uniform law on the
  group, or to a law periodic under a random cyclic subgroup.
"""

import hashlib
import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from entsum.dists import Dist, convolve
from entsum.fuzz import random_dist
from entsum.groups import GroupSpec
from entsum.transport import _translation_perms, transport_exact
from test_oracle_reference import _assert_matches_reference, _nvars

PIN = Path(__file__).parent / "data" / "oracle_certs.sha256"
GROUPS = [GroupSpec(m) for m in ([0], [2], [3], [4], [5], [6], [7], [8], [2, 2])]


def _periodic(rng: random.Random, g: GroupSpec, support: int) -> Dist:
    """A random law averaged over the cyclic subgroup of a random nonzero element."""
    h = g.zero()
    while h == g.zero():
        h = g.reduce([rng.randrange(m) for m in g.moduli])
    orbit, y = [h], g.add(h, h)
    while y != h:
        orbit.append(y)
        y = g.add(y, h)
    return convolve(random_dist(rng, g, support, 64), Dist.uniform(g, orbit))


def corpus() -> list[tuple[Dist, Dist]]:
    """1,500 seeded (p, q) pairs within the oracle's default cap of 24 variables."""
    rng = random.Random(25)
    out = []
    while len(out) < 1500:
        g = GROUPS[rng.randrange(len(GROUPS))]
        p = random_dist(rng, g, rng.randint(1, 4), 64)
        kind = rng.randrange(3) if g.is_finite() else 0
        if kind == 0:
            q = random_dist(rng, g, rng.randint(1, 4), 64)
        elif kind == 1:
            q = Dist.uniform(g, g.elements())
        else:
            q = _periodic(rng, g, rng.randint(1, 3))
        if _nvars(p, q) <= 24:
            out.append((p, q))
    return out


def _stabiliser_order(q: Dist) -> int:
    ys = list(q.support())
    qm = [q.counts[y] for y in ys]
    perms = _translation_perms(q.group, ys, qm)
    g = q.group
    for perm in perms:
        c = g.sub(ys[perm[0]], ys[0])
        assert [ys[t] for t in perm] == [g.add(y, c) for y in ys]
    return 1 + len(perms)  # the identity is not listed


Z8 = GroupSpec([8])


@pytest.mark.parametrize("q, order", [
    (Dist.uniform(Z8, Z8.elements()), 8),
    (Dist(Z8, {(y,): F(1 + y % 4, 20) for y in range(8)}), 2),  # period 4
    (Dist.uniform(Z8, [(0,), (4,)]), 2),
    (Dist.uniform(GroupSpec([2, 2]), GroupSpec([2, 2]).elements()), 4),
    (Dist(Z8, {(0,): F(1, 2), (3,): F(1, 4), (5,): F(1, 4)}), 1),
    (Dist.uniform(GroupSpec([0]), [(0,), (1,), (2,)]), 1),
    (Dist(GroupSpec([0]), {(0,): F(1, 3), (2,): F(1, 3), (7,): F(1, 3)}), 1),
])
def test_translation_perms_count_the_stabiliser(q, order):
    assert _stabiliser_order(q) == order


def _periodic_corpus() -> list[tuple[Dist, Dist]]:
    """Periodic targets on Z/6, Z/8 and Z/2 x Z/2 that are not uniform on the group.

    The reference needs seconds once a 3-atom source meets a target of 6 or
    more atoms, so such targets get sources of at most 2 atoms.
    """
    rng = random.Random(2517)
    out = []
    for g in (GroupSpec([6]), Z8, GroupSpec([2, 2])):
        uniform = Dist.uniform(g, g.elements())
        made = 0
        while made < 20:
            q = _periodic(rng, g, rng.randint(1, 3))
            p = random_dist(rng, g, 3 if len(q) < 6 else 2, 64)
            if q != uniform and len(p) > 1 and _nvars(p, q) <= 24:
                assert _stabiliser_order(q) > 1
                out.append((p, q))
                made += 1
    return out


def test_oracle_matches_reference_on_periodic_targets():
    for p, q in _periodic_corpus():
        _assert_matches_reference("periodic", p, q, 24)


def test_oracle_certificates_digest_pinned():
    # a missing pin fails rather than passing or being rewritten
    assert PIN.exists(), f"pin file {PIN} missing"
    h = hashlib.sha256()
    for p, q in corpus():
        h.update(json.dumps(transport_exact(p, q).to_json(), sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == PIN.read_text().strip()
