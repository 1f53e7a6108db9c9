"""Entropy transport: exact oracle at tiny scale plus constructive certificates.

The transport cost from p to q is the infimum of Ent(Z) over couplings with
X + Z distributed exactly as q.  The oracle minimises the (concave) entropy
of the Z-marginal over the vertices of the coupling polytope, the couplings
with acyclic support.  With both margins scaled to integers over a common
denominator every vertex is integral, so the vertex search runs in Python
ints: it grows forests one atom of the larger support at a time, drops a
branch as soon as a single-partner atom overdraws its partner, and builds
Fractions only for the winning vertex.  The constructive side builds
certificates by flattening with two-point shifts, density-level splitting,
and sigma-splits, all in exact rational arithmetic.  Certificate validity is
always exact; only costs are floating point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .dists import Dist, JointDist, entropy, f_nats
from .errors import (
    CapExceededError,
    CertificateError,
    IncompatibleGroupError,
    PreconditionError,
    WraparoundError,
)
from .fileio import dump_dist
from .groups import Element, GroupSpec
from .metrics import density_level
from .progressions import CosetProgression, box_embedding

SIGMA_MIN = Fraction(1, 2**20)
_MAX_FLATTEN_ROUNDS = 400


# ---------------------------------------------------------------------------
# certificates


class TransportCertificate:
    """Exact coupling witnessing source + Z ≡ target, with realized Ent(Z)."""

    __slots__ = ("coupling", "target")

    def __init__(self, coupling: JointDist, target: Dist):
        if coupling.k != 2 or coupling.groups[0] != coupling.groups[1]:
            raise CertificateError("coupling must be a joint over (X, Z) in one group")
        if coupling.groups[0] != target.group:
            raise CertificateError("coupling and target live in different groups")
        self.coupling = coupling
        self.target = target

    def source(self) -> Dist:
        return self.coupling.dist(0)

    def noise(self) -> Dist:
        return self.coupling.dist(1)

    @property
    def cost(self) -> float:
        return entropy(self.noise())

    def pushforward(self) -> Dist:
        return self.coupling.sum_dist([0, 1])

    def validate(self, source: Dist | None = None) -> None:
        """Exact marginal and pushforward checks; raises on any mismatch."""
        if self.pushforward() != self.target:
            raise CertificateError("pushforward of coupling differs from target")
        if source is not None and self.source() != source:
            raise CertificateError("X-marginal of coupling differs from source")

    def to_json(self) -> dict:
        return {
            "group": list(self.target.group.moduli),
            "cost": self.cost,
            "coupling": [
                {"x": list(x), "z": list(z), "num": v.numerator, "den": v.denominator}
                for (x, z), v in self.coupling.mass.items()
            ],
            "target": dump_dist(self.target)["atoms"],
        }


def _cert(g: GroupSpec, raw: "_RawCert") -> TransportCertificate:
    return TransportCertificate(JointDist([g, g], raw.coupling), Dist(g, raw.target))


def _raw(c: TransportCertificate) -> "_RawCert":
    return _RawCert(c.coupling.mass, c.target.mass)


def identity_certificate(p: Dist, shift: Element | None = None) -> TransportCertificate:
    """Deterministic shift certificate; cost 0."""
    g = p.group
    return _cert(g, _raw_identity(g, p.mass, None if shift is None else g.reduce(shift)))


def independent_noise_certificate(p: Dist, z: Dist) -> TransportCertificate:
    """Certificate p -> p * z with Z independent of X."""
    if p.group != z.group:
        raise IncompatibleGroupError("noise must live in the same group")
    return _cert(p.group, _raw_noise(p.group, p.mass, z.mass))


def independent_pair_certificate(p: Dist, q: Dist) -> TransportCertificate:
    """Always-feasible certificate p -> q from the product coupling of (X, Y)."""
    if p.group != q.group:
        raise IncompatibleGroupError("endpoints must share a group")
    return _cert(p.group, _raw_independent_pair(p.group, p.mass, q.mass))


def reverse_certificate(c: TransportCertificate) -> TransportCertificate:
    """Explicit reversal: atoms ((x, z), m) become ((x+z, -z), m).

    The result transports the old target back to the old source at equal cost
    (negation permutes the Z-support), and is re-checkable exactly.
    """
    g = c.target.group
    return _cert(g, _raw_reverse(g, _raw(c)))


def compose_certificates(
    c1: TransportCertificate, c2: TransportCertificate
) -> TransportCertificate:
    """Glue X -> W and W -> Y into X -> Y with Z = Z1 + Z2.

    Z2 is drawn conditionally on W = X + Z1 from the second coupling, so the
    composed coupling is exact whenever c2's source equals c1's target.
    """
    g = c1.target.group
    if c2.target.group != g:
        raise CertificateError("certificates live in different groups")
    return _cert(g, _raw_compose(g, _raw(c1), _raw(c2)))


def transport_split(
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
    if any(cert.target.group != g for _, cert in pieces):
        raise CertificateError("pieces live in different groups")
    bound = sum((float(w) * c.cost for w, (_, c) in zip(weights, pieces) if w), selector_entropy)
    out = _cert(g, _raw_mix([(w, _raw(c)) for w, (_, c) in zip(weights, pieces)]))
    if out.cost > bound + 1e-9:
        raise CertificateError(
            f"glued cost {out.cost} exceeds split bound {bound}"
        )
    return out


# ---------------------------------------------------------------------------
# exact oracle


def transport_exact(p: Dist, q: Dist, cap: int = 24) -> TransportCertificate:
    """Global minimum of Ent(Z) over the coupling polytope, by vertex search.

    The objective is concave in the coupling, so the minimum is attained at a
    vertex; vertices are exactly the feasible points whose bipartite support
    graph is acyclic.  Both margins are scaled by D, the lcm of all mass
    denominators; the polytope then has integral margins and hence integral
    vertices, so the search runs in Python ints and builds Fractions only for
    the winner.  It recurses over the atoms of the larger support ("lines"):

    * each line picks a nonempty set of partners on the smaller side, at most
      one per component of the forest built so far, which keeps it acyclic;
    * a line with exactly one partner is a leaf in every completion, so all
      of its mass goes to that partner at once; the branch is dropped as soon
      as the partner's residual can no longer give one unit to each of its
      other edges, or a component's partners can no longer absorb the mass
      of the multi-partner lines inside it;
    * a complete forest is solved by integer leaf elimination, and only
      forests with every edge positive count, so each vertex is met once.

    Vertices are ranked by the float score sum_z n_z log n_z over their
    integer Z-counts, since Ent(Z) = log D - score / D.  Vertices within a
    small tolerance of the best score are settled by their exact-rational
    entropy, so the cost reported is the least vertex entropy as
    `entropy(cert.noise())` computes it; among equal costs the first support
    in `_support_order` wins.  Refuses instances with more than `cap`
    coupling variables (|supp p| * |difference set|).
    """
    if p.group != q.group:
        raise IncompatibleGroupError("endpoints must share a group")
    g = p.group
    xs = list(p.support())
    ys = list(q.support())
    zset = {g.sub(y, x) for y in ys for x in xs}
    nvars = len(xs) * len(zset)
    if nvars > cap:
        raise CapExceededError(
            f"exact oracle refused: {nvars} coupling variables exceed cap {cap}; "
            "use the constructive bounds instead"
        )
    den = math.lcm(*(v.denominator for d in (p, q) for v in d.mass.values()))
    pm = [int(p.mass[x] * den) for x in xs]
    qm = [int(q.mass[y] * den) for y in ys]
    zs = [[g.sub(y, x) for y in ys] for x in xs]
    zindex = {z: n for n, z in enumerate(sorted(zset))}

    # lines are the atoms of the larger support, partners those of the smaller
    if len(ys) >= len(xs):
        lines, parts = qm, pm
        cells = [[(i, j) for i in range(len(xs))] for j in range(len(ys))]
    else:
        lines, parts = pm, qm
        cells = [[(i, j) for j in range(len(ys))] for i in range(len(xs))]
    zid = [[zindex[zs[i][j]] for i, j in row] for row in cells]
    n_lines, n_parts = len(lines), len(parts)
    singles = [[s] for s in range(n_parts)]
    multis = [
        [s for s in range(n_parts) if mask >> s & 1]
        for mask in range(1, 1 << n_parts)
        if mask & (mask - 1)
    ]

    resid = parts[:]  # partner mass not yet taken by single-partner lines
    need = [0] * n_parts  # multi-partner edges at each partner, one unit each at least
    comp = list(range(n_parts))  # forest component of each partner
    # residual of each component's partners not yet owed to its multi-partner
    # lines; those lines give mass only inside the component, so it stays >= 0
    free = parts + [0] * n_lines
    picked: list[list[int]] = [[] for _ in range(n_lines)]
    best = -math.inf
    tol = 1e-9 * den  # a score slack worth 1e-9 nats of entropy
    near: list[tuple[float, tuple[int, ...], list[tuple[int, int, int]]]] = []

    def solve() -> list[tuple[int, int, int]] | None:
        # unique edge masses of the picked forest, all positive, by leaf elimination
        edges = []
        open_edges = []
        rem_line = {}
        deg_line = {}
        for k, sub in enumerate(picked):
            if len(sub) == 1:
                edges.append((k, sub[0], lines[k]))
            else:
                rem_line[k] = lines[k]
                deg_line[k] = len(sub)
                open_edges.extend((k, s) for s in sub)
        rem_part = resid[:]
        deg_part = need[:]
        while open_edges:
            for n, (k, s) in enumerate(open_edges):
                if deg_line[k] == 1:
                    m = rem_line[k]
                    break
                if deg_part[s] == 1:
                    m = rem_part[s]
                    break
            else:
                return None
            if m <= 0:
                return None
            del open_edges[n]
            rem_line[k] -= m
            rem_part[s] -= m
            deg_line[k] -= 1
            deg_part[s] -= 1
            edges.append((k, s, m))
        if any(rem_line.values()) or any(rem_part):
            return None
        return edges

    def consider() -> None:
        nonlocal best, near
        edges = solve()
        if edges is None:
            return
        counts = [0] * len(zindex)
        for k, s, m in edges:
            counts[zid[k][s]] += m
        score = math.fsum(n * math.log(n) for n in counts if n)
        if score < best - tol:
            return
        if score > best + tol:
            near = [c for c in near if c[0] >= score - tol]
        best = max(best, score)
        near.append((score, tuple(sorted(n for n in counts if n)), edges))

    def rows_of(edges: list[tuple[int, int, int]]) -> list[int]:
        rows = [0] * len(xs)
        for k, s, _ in edges:
            i, j = cells[k][s]
            rows[i] |= 1 << j
        return rows

    def rec(k: int) -> None:
        if k == n_lines:
            consider()
            return
        m = lines[k]
        for s in range(n_parts):
            r = resid[s] - m
            c = comp[s]
            if r < need[s] or free[c] < m:
                continue
            resid[s] = r
            free[c] -= m
            picked[k] = singles[s]
            rec(k + 1)
            resid[s] = r + m
            free[c] += m
        for sub in multis:
            touched = {comp[s] for s in sub}
            if len(sub) > m or len(touched) < len(sub):
                continue
            left = sum(free[c] for c in touched) - m
            if left < 0 or any(resid[s] <= need[s] for s in sub):
                continue
            saved = comp[:]
            for t in range(n_parts):
                if comp[t] in touched:
                    comp[t] = k + n_parts
            free[k + n_parts] = left
            for s in sub:
                need[s] += 1
            picked[k] = sub
            rec(k + 1)
            for s in sub:
                need[s] -= 1
            comp[:] = saved

    rec(0)
    rec = None  # break the closure's self-reference so the search state is freed at once
    if not near:
        raise CertificateError("coupling polytope unexpectedly empty")
    ents = {
        key: math.fsum(f_nats(Fraction(n, den)) for n in key)
        for score, key, _ in near
        if score >= best - tol
    }
    low = min(ents.values())
    edges = min(
        (e for _, key, e in near if ents.get(key) == low),
        key=lambda e: _support_order(rows_of(e), len(ys)),
    )
    atoms = {}
    for k, s, m in edges:
        i, j = cells[k][s]
        atoms[(xs[i], zs[i][j])] = Fraction(m, den)
    cert = TransportCertificate(JointDist([g, g], atoms), q)
    cert.validate(p)
    return cert


def _support_order(rows: list[int], n_cols: int) -> tuple:
    """Sort key of a forest support given as one column bitmask per p-atom.

    This is the order in which a row-by-row enumeration first reaches the
    support: earlier rows compare as bitmasks, and the last row, which must
    cover every column left uncovered, compares by the extra column it takes
    from each covered component (none first, then by column), components
    ordered by their least column.  Among vertices of equal cost the oracle
    returns the first in this order, so its certificates are deterministic.
    """
    label = list(range(n_cols))
    covered = 0
    for r, mask in enumerate(rows[:-1]):
        touched = {label[j] for j in range(n_cols) if mask >> j & 1}
        label = [n_cols + r if c in touched else c for c in label]
        covered |= mask
    groups: dict[int, list[int]] = {}
    for j in range(n_cols):
        if covered >> j & 1:
            groups.setdefault(label[j], []).append(j)
    last = rows[-1]
    extra = tuple(
        next((1 + n for n, j in enumerate(cols) if last >> j & 1), 0)
        for cols in groups.values()
    )
    return (*rows[:-1], extra)


def translate_shift(p: Dist, q: Dist) -> Element | None:
    """A shift c with q = p + c exactly, or None if q is no translate of p.

    Each q-atom is tried as the image of p's first atom, so translates that
    wrap around a finite factor are found too.
    """
    if p.group != q.group or len(p) != len(q):
        return None
    g = p.group
    x0, m0 = next(iter(p))
    for y, v in q:
        if v == m0:
            c = g.sub(y, x0)
            if q == p.translate(c):
                return c
    return None


def is_translate(p: Dist, q: Dist) -> bool:
    """True iff q is exactly a translate of p."""
    return translate_shift(p, q) is not None


# ---------------------------------------------------------------------------
# finite-group adapters for the constructive pipeline
#
# Flattening and uniformisation need a concrete finite group that is not
# always a plain product of cyclic factors (the coset-progression pipeline
# works inside H x prod Z/2NiZ with H an arbitrary finite subgroup), so the
# certificate algebra runs on mass dicts over any group with `add`, `neg`,
# `sub` and `zero()`: a GroupSpec, or an adapter that also lists the
# elements of a finite group for flattening.


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


@dataclass
class FlattenTrace:
    """Shifts chosen per round and the squared distances they achieved."""

    shifts: list[Element]
    sq_dists: list[Fraction]  # length = rounds + 1, initial value first

    @property
    def norms(self) -> list[float]:
        return [math.sqrt(float(s)) for s in self.sq_dists]

    def verify(self) -> None:
        for prev, new in zip(self.sq_dists, self.sq_dists[1:]):
            if 2 * new > prev:
                raise AssertionError("flatten round missed the halving guarantee")


def flatten(p: Dist, k: int) -> tuple[Dist, FlattenTrace, TransportCertificate]:
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


def uniformise_group(p: Dist, k_bound: float) -> TransportCertificate:
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


def uniformise_coset_progression(
    p: Dist, cp: CosetProgression, k_bound: float | None = None
) -> TransportCertificate:
    """Certificate transporting p to the uniform law on a proper H + P.

    Pulls p back to the box H x prod [0, Ni), embeds it in H x prod Z/2NiZ,
    uniformises there, and pushes the composed transport forward; every shift
    used must come from a box difference (no wraparound), which is checked.
    """
    emb = box_embedding(cp, proper_required=True)
    g = cp.group
    hp = frozenset(emb.backward)
    target = Dist.uniform(g, hp)
    if k_bound is not None:
        deficit = math.log(len(hp)) - entropy(p)
        if deficit > math.log(max(float(k_bound), 10.0)) + 1e-9:
            raise PreconditionError("entropy deficit exceeds log K")
    if p == target:
        return identity_certificate(p)
    box_mass = emb.pull(p)  # raises if support leaves H+P
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
        dh = g.sub(y[0], x[0])
        shift = emb.push_shift(dh, tuple(dns))
        key = (emb.forward[x], shift)
        atoms[key] = atoms.get(key, Fraction(0)) + v
    cert = TransportCertificate(JointDist([g, g], atoms), target)
    cert.validate(p)
    return cert
