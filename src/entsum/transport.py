"""Entropy transport: exact oracle at tiny scale plus constructive certificates.

The transport cost from p to q is the infimum of Ent(Z) over couplings with
X + Z distributed exactly as q.  The oracle minimises the (concave) entropy
of the Z-marginal over the vertices of the coupling polytope, the couplings
with acyclic support; a one-atom side leaves one, the product, which needs
no search.  With both margins scaled to integers over a common denominator
every vertex is integral, so the vertex search runs in Python ints: it
grows forests one atom of the larger support at a time and drops a branch
as soon as a single-partner atom overdraws its partner.  When those atoms
are the target's, it visits one vertex per orbit of the translations that
fix the target, and expands its least-cost vertices by them before the
tie-break, which keys in full only the ties least in their leading rows.
The constructive side builds certificates by flattening with two-point
shifts, density-level splitting, and sigma-splits.  It runs in the int
counts that `Dist` and `JointDist` hold, with the elements of a finite group
encoded as row-major indices that add digit by digit, on cyclic factors as
ints whose carries between digits are taken back.  The certificate is
built left to right, one flatten stage at a time: each couples a law with
independent shift noise, or extends the certificate so far by it, a
convolution of each row with the noise law, formed on a product of cyclic
factors as one product of packed ints.  Each sigma-split half starts from
its law.  Validity is always exact and checked in ints; only costs are
floating point.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .dists import Dist, JointDist, _f_count, _Kronecker, _lowest_terms, _packs, entropy, push_masses
from .errors import (
    CapExceededError,
    CertificateError,
    IncompatibleGroupError,
    PreconditionError,
)
from .fileio import _num_den, dump_dist
from .groups import Element, GroupSpec

SIGMA_MIN_BITS = 20  # the sigma-split floor is sigma_min = 2**-SIGMA_MIN_BITS
_MAX_FLATTEN_ROUNDS = 400
# largest group order that is flattened or sigma-split: the float shift scan
# reads a 2048^2 int64 table (32 MiB), the split pairs up to |G|^2 / 4 atoms
MAX_TABLE_ORDER = 2048
# groups up to this order scan shifts in a Python loop over `add` (8-16 µs a
# scan against numpy's 7-8), so that uniformising on them never imports numpy
_LIST_TABLE_ORDER = 8


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

    def validate(self, source: Dist | None = None) -> None:
        """Exact marginal and pushforward checks; raises on any mismatch."""
        c, t = self.coupling, self.target
        if source is not None and source.group != t.group:
            raise CertificateError("X-marginal of coupling differs from source")
        _check_coupling(t.group.add, (c.den, c.counts), (t.den, t.counts),
                        None if source is None else (source.den, source.counts))

    def to_json(self) -> dict:
        return {
            "group": list(self.target.group.moduli),
            "cost": self.cost,
            "coupling": [
                {"x": list(x), "z": list(z), **_num_den(n, self.coupling.den)}
                for (x, z), n in self.coupling.counts.items()
            ],
            "target": dump_dist(self.target)["atoms"],
        }


def _cert(g: GroupSpec, raw: "_RawCert") -> TransportCertificate:
    """Wrap a kernel certificate over the GroupSpec g."""
    cp, t = JointDist._with_counts((g, g), raw.den, raw.coupling), Dist._with_counts(g, raw.den, raw.target)
    return TransportCertificate(cp, t)


def _raw(c: TransportCertificate) -> "_RawCert":
    cp, t = c.coupling, c.target
    den = math.lcm(cp.den, t.den)
    return _RawCert(den, _scaled(cp.counts, den // cp.den), _scaled(t.counts, den // t.den))


def identity_certificate(p: Dist, shift: Element | None = None) -> TransportCertificate:
    """Deterministic shift certificate; cost 0."""
    g = p.group
    c = g.zero() if shift is None else g.reduce(shift)
    return _cert(g, _raw_noise(g, (p.den, p.counts), (1, {c: 1})))


def independent_noise_certificate(p: Dist, z: Dist) -> TransportCertificate:
    """Certificate p -> p * z with Z independent of X."""
    if p.group != z.group:
        raise IncompatibleGroupError("noise must live in the same group")
    return _cert(p.group, _raw_noise(p.group, (p.den, p.counts), (z.den, z.counts)))


def independent_pair_certificate(p: Dist, q: Dist) -> TransportCertificate:
    """Always-feasible certificate p -> q from the product coupling of (X, Y)."""
    if p.group != q.group:
        raise IncompatibleGroupError("endpoints must share a group")
    return _cert(p.group, _raw_independent_pair(p.group, (p.den, p.counts), (q.den, q.counts)))


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
    if min(weights) < 0:
        raise CertificateError("piece weights must not be negative")
    g = pieces[0][1].target.group
    if any(cert.target.group != g for _, cert in pieces):
        raise CertificateError("pieces live in different groups")
    bound = sum((float(w) * c.cost for w, (_, c) in zip(weights, pieces) if w), selector_entropy)
    wden = math.lcm(*(w.denominator for w in weights))
    out = _cert(g, _raw_mix(wden, [
        (w.numerator * (wden // w.denominator), _raw(c)) for w, (_, c) in zip(weights, pieces)
    ]))
    if not out.cost <= bound + 1e-9:
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
    vertices, so the search runs in Python ints.  It recurses over the atoms
    of the larger support ("lines"):

    * each line picks a nonempty set of partners on the smaller side, at most
      one per component of the forest built so far, which keeps it acyclic;
    * a line with exactly one partner is a leaf in every completion, so all
      of its mass goes to that partner at once; the branch is dropped as soon
      as the partner's residual can no longer give one unit to each of its
      other edges, or a component's partners can no longer absorb the mass
      of the multi-partner lines inside it;
    * a complete forest is solved by integer leaf elimination, and only
      forests with every edge positive count, so each vertex is met once;
    * when the lines are q's atoms, each translation c with q + c = q
      permutes them and maps a vertex to one of equal cost (its Z-values
      move by c).  One vertex per orbit is kept: the other lines of line 0's
      orbit take no option after line 0's, in loop order, and translating
      the line with the latest option onto line 0 puts every orbit there.

    Each vertex is ranked by the entropy of its Z-counts as
    `entropy(cert.noise())` computes it, so the least is the cost reported;
    among equal costs the first support in `_support_order` wins.  It may
    lie in any member of an orbit, so the least-cost vertices found are
    first expanded by every translation fixing q; only those least in all
    rows but the last, which that order compares first, get its full key.
    Refuses instances with more than `cap` coupling variables (|supp p| *
    |difference set|); a one-atom side has one coupling, returned unsearched.
    """
    if p.group != q.group:
        raise IncompatibleGroupError("endpoints must share a group")
    g = p.group
    xs = list(p.support())
    ys = list(q.support())
    zs = [[g.sub(y, x) for y in ys] for x in xs]
    zset = {z for row in zs for z in row}
    nvars = len(xs) * len(zset)
    if not nvars <= cap:
        raise CapExceededError(
            f"exact oracle refused: {nvars} coupling variables exceed cap {cap}; "
            "use the constructive bounds instead"
        )
    if len(xs) == 1 or len(ys) == 1:
        cert = independent_pair_certificate(p, q)  # the polytope's one point
        cert.validate(p)
        return cert
    den = math.lcm(p.den, q.den)
    pm = [p.counts[x] * (den // p.den) for x in xs]
    qm = [q.counts[y] * (den // q.den) for y in ys]
    zindex = {z: n for n, z in enumerate(sorted(zset))}

    # lines are the atoms of the larger support, partners those of the smaller
    if len(ys) >= len(xs):
        lines, parts = qm, pm
        cells = [[(i, j) for i in range(len(xs))] for j in range(len(ys))]
        at = {y: j for j, y in enumerate(ys)}
        # the zero shift maps q's first atom to itself, so the candidates start after it
        perms = [[at[u] for u in us] for _, us in _translations(q, q, start=1)]
    else:
        lines, parts = pm, qm
        cells = [[(i, j) for j in range(len(ys))] for i in range(len(xs))]
        perms = []
    zid = [[zindex[zs[i][j]] for i, j in row] for row in cells]
    n_lines, n_parts = len(lines), len(parts)
    singles = [(s,) for s in range(n_parts)]
    multis = [tuple([s for s in range(n_parts) if mask >> s & 1])
              for mask in range(1, 1 << n_parts) if mask & (mask - 1)]
    # the other lines of line 0's orbit take no option after line 0's;
    # heads[o] holds the options up to o in loop order
    capped = {perm[0] for perm in perms}
    every = range(n_parts), multis
    heads = {sub: (range(min(n + 1, n_parts)), multis[:max(n + 1 - n_parts, 0)])
             for n, sub in enumerate(singles + multis)} if capped else None

    resid = parts[:]  # partner mass not yet taken by single-partner lines
    need = [0] * n_parts  # multi-partner edges at each partner, one unit each at least
    comp = list(range(n_parts))  # forest component of each partner
    # residual of each component's partners not yet owed to its multi-partner
    # lines; those lines give mass only inside the component, so it stays >= 0
    free = parts + [0] * n_lines
    picked: list[tuple[int, ...]] = [() for _ in range(n_lines)]
    best = math.inf
    ties: list[list[tuple[int, int, int]]] = []  # the edge lists of cost `best`
    terms: dict[int, float] = {}  # F(n / D) by Z-count n

    def solve() -> list[tuple[int, int, int]] | None:
        # unique edge masses of the picked forest, all positive, by leaf elimination
        edges, open_edges, rem_line, deg_line = [], [], {}, {}
        for k, sub in enumerate(picked):
            if len(sub) == 1:
                edges.append((k, sub[0], lines[k]))
            else:
                rem_line[k] = lines[k]
                deg_line[k] = len(sub)
                open_edges.extend((k, s) for s in sub)
        rem_part, deg_part = resid[:], need[:]
        while open_edges:
            for n, (k, s) in enumerate(open_edges):
                if deg_line[k] == 1:
                    m = rem_line[k]
                    break
                if deg_part[s] == 1:
                    m = rem_part[s]
                    break
            # the open edges form a forest, so one of them ends in a leaf
            if m <= 0:
                return None
            del open_edges[n]
            rem_line[k] -= m
            rem_part[s] -= m
            deg_line[k] -= 1
            deg_part[s] -= 1
            edges.append((k, s, m))
        # the free residuals are >= 0 and sum to sum(parts) - sum(lines) = 0,
        # so every component balances and the elimination ends at zero
        return edges

    def consider() -> None:
        nonlocal best, ties
        edges = solve()
        if edges is None:
            return
        counts = [0] * len(zindex)
        for k, s, m in edges:
            counts[zid[k][s]] += m
        for n in counts:
            if n not in terms:
                terms[n] = _f_count(n, den)
        ent = math.fsum([terms[n] for n in counts if n])  # correctly rounded in any order
        if ent < best:
            best, ties = ent, [edges]
        elif ent == best:
            ties.append(edges)

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
        ss, ms = heads[picked[0]] if k in capped else every
        for s in ss:
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
        for sub in ms:
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
    if not ties:
        raise CertificateError("coupling polytope unexpectedly empty")
    # every vertex of cost `best` is the image of a tie
    ties += [[(perm[k], s, m) for k, s, m in e] for perm in perms for e in ties]
    rows = [rows_of(e) for e in ties]
    head = min(r[:-1] for r in rows)  # `_support_order` compares these first
    edges, _ = min(((e, r) for e, r in zip(ties, rows) if r[:-1] == head),
                   key=lambda er: _support_order(er[1], len(ys)))
    atoms = {}
    for k, s, m in edges:
        i, j = cells[k][s]
        atoms[(xs[i], zs[i][j])] = m
    cert = TransportCertificate(JointDist._with_counts((g, g), den, atoms), q)
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
    """A shift c with q = p + c exactly, or None if q is no translate of p."""
    return next((c for c, _ in _translations(p, q)), None)


def _translations(p: Dist, q: Dist, start: int = 0):
    """Each shift c with q = p + c exactly, in q's atom order, with the images
    x + c of p's atoms in p's atom order.

    Each q-atom from position `start` on of the count of p's first atom is
    tried as its image, so translates that wrap around a finite factor are
    found too.
    """
    # both laws are in lowest terms, so a translate has the same den and counts
    if p.group != q.group or p.den != q.den or len(p) != len(q):
        return
    add, sub, qc = p.group.add, p.group.sub, q.counts
    x0, n0 = next(iter(p.counts.items()))
    for y, n in itertools.islice(qc.items(), start, None):
        if n == n0:
            c = sub(y, x0)
            images = [add(x, c) for x in p.counts]
            if all(qc.get(u) == m for u, m in zip(images, p.counts.values())):
                yield c, images


# ---------------------------------------------------------------------------
# the integer certificate kernel
#
# Flattening and uniformisation need a concrete finite group that is not
# always a plain product of cyclic factors (the coset-progression pipeline
# works inside H x prod Z/2NiZ with H an arbitrary finite subgroup), so the
# certificate algebra runs over any group with `add`, `neg`, `sub` and
# `zero()`: a GroupSpec, whose elements are tuples, or an `_IndexedGroup`,
# which encodes each element of a finite group as its index in a sorted list
# and adds indices by their digits.  `_box_group` folds an H that is the
# product of its coordinate projections into cyclic digits; on cyclic digits
# alone the indices add as ints with the carries between digits taken back,
# and only another H keeps its own table.  Masses are Python ints over one
# common denominator: a law is a pair (den, counts) whose positive counts sum
# to den, as a `Dist` holds them, and a `_RawCert` keeps one denominator for
# its coupling and its target.  A law enters as (p.den, p.counts), keyed by
# element index for an `_IndexedGroup`, and a certificate leaves through
# `_emit`, which checks it with the same digit law before it decodes it, or,
# kept on a GroupSpec, through `_cert`, which builds its laws from the counts.
# Composition is a matrix product of counts: a dense one packs each row of the
# second factor into one int, keyed by target position rather than element
# index, so it serves a GroupSpec too; a sparse one sums its atom pairs one by
# one (`_raw_compose`).  The uniformisation composes left to right, one
# flatten stage per `_raw_stage` call: it flattens a law q and adds
# independent shift noise z, as the product coupling q ⊗ z of `_raw_noise`,
# whose target is the pushforward of its atoms, or as an extension of the
# certificate so far.  As z is the conditional law on every row, `_raw_extend`
# convolves each row with z on `dists._Kronecker`, the kernel of `convolve`,
# on a product of cyclic factors when `dists._packs` finds the padded slots
# worth it; otherwise it composes with q ⊗ z, since placing a row in a box
# whose H keeps its own table needs that table.

_Law = tuple  # (den, {element: count}) with the counts summing to den


class _IndexedGroup:
    """A finite group H x prod Z/mZ whose elements are the indices of `elems`.

    H is given by its own addition table over the indices of its elements,
    [[0]] when it is trivial, and `elems` lists the group in row-major order,
    which is sorted order, so `add` and `sub` work on the digits of an index:
    with a trivial H, as ints whose carries and borrows between cyclic digits
    are taken back.  The |G|^2 numpy `table` serves only the float shift scan
    above `_LIST_TABLE_ORDER`.
    """

    def __init__(self, elems: list, h_table: list, mods: Sequence[int], zero):
        self.elems = elems
        self.size = len(elems)
        self.index = {e: i for i, e in enumerate(elems)}
        self._h_table = h_table
        self._mods = mods
        self._zero = self.index[zero]

    @functools.cached_property
    def table(self) -> np.ndarray:
        """table[a, b] is the index of elems[a] + elems[b]."""
        import numpy as np  # loaded with the first table, not with the package

        if self.size > MAX_TABLE_ORDER:
            raise CapExceededError(f"group order {self.size} exceeds the table cap {MAX_TABLE_ORDER}")
        tbl = np.array(self._h_table)
        for m in self._mods:
            n, r = len(tbl), np.arange(m)
            cyclic = (r[:, None] + r) % m
            tbl = (tbl[:, None, :, None] * m + cyclic[None, :, None, :]).reshape(n * m, n * m)
        return tbl

    @functools.cached_property
    def _neg(self) -> list[int]:
        # -(h, i) = (-h, -i % m), composed factor by factor as `add` is
        h_zero = self._zero // (self.size // len(self._h_table))
        neg = [row.index(h_zero) for row in self._h_table]
        for m in self._mods:
            neg = [x * m + -i % m for x in neg for i in range(m)]
        return neg

    def zero(self) -> int:
        return self._zero

    @functools.cached_property
    def _carries(self) -> list[tuple[int, list[int]]]:
        # for each cyclic factor below the first, the carry m * place that its
        # digit sends up, and the place-valued digit of every index
        out, place = [], 1
        for m in reversed(self._mods[1:]):
            out.append((m * place, [a // place % m * place for a in range(self.size)]))
            place *= m
        return out

    @functools.cached_property
    def add(self) -> Callable[[int, int], int]:
        """The group law on the row-major index.  On cyclic factors alone the
        indices add as ints, each carry out of a digit below the first is taken
        back, and the sum is reduced mod |G|; H's own table adds the H digit."""
        h, mods, n = self._h_table, self._mods, self.size
        if len(h) == 1:
            carries = self._carries
            if not carries:
                return lambda a, b: (a + b) % n
            if len(carries) == 1:
                (top, col), = carries
                return lambda a, b: (a + b - (top if col[a] + col[b] >= top else 0)) % n

            def add(a: int, b: int) -> int:
                s = a + b
                for top, col in carries:
                    if col[a] + col[b] >= top:
                        s -= top
                return s % n

            return add
        # the digits of every index, one column per factor, H's first
        h_col, *cols = zip(*itertools.product(range(len(h)), *map(range, mods)))
        factors = tuple(zip(mods, cols))

        def add(a: int, b: int) -> int:
            out = h[h_col[a]][h_col[b]]
            for m, col in factors:
                out = out * m + (col[a] + col[b]) % m
            return out

        return add

    def neg(self, a: int) -> int:
        return self._neg[a]

    @functools.cached_property
    def sub(self) -> Callable[[int, int], int]:
        """a - b: the indices subtract, each borrow below the first digit is paid back."""
        n = self.size
        if len(self._h_table) > 1:
            add, neg = self.add, self._neg
            return lambda a, b: add(a, neg[b])
        carries = self._carries
        if not carries:
            return lambda a, b: (a - b) % n
        if len(carries) == 1:
            (top, col), = carries
            return lambda a, b: (a - b + (top if col[a] < col[b] else 0)) % n

        def sub(a: int, b: int) -> int:
            s = a - b
            for top, col in carries:
                if col[a] < col[b]:
                    s += top
            return s % n

        return sub


@functools.lru_cache(maxsize=8)
def _spec_group(g: GroupSpec) -> _IndexedGroup:
    """A finite GroupSpec, with a trivial H."""
    return _IndexedGroup(list(g.elements()), [[0]], g.moduli, g.zero())


@functools.lru_cache(maxsize=8)
def _box_group(ambient: GroupSpec, subgroup: tuple, mods: tuple) -> _IndexedGroup:
    """H x prod Z/mZ for a finite subgroup H of `ambient`, given as sorted elements.

    Each coordinate projection of H is cyclic, {0, g, ..., (k - 1)g}, so an H
    that is, in sorted order, the product of its projections becomes row-major
    cyclic digits Z/k with the same indices; another H adds by its own table.
    """
    elems = [(h, ns) for h in subgroup for ns in itertools.product(*(range(m) for m in mods))]
    zero = (ambient.zero(), (0,) * len(mods))
    projections = [sorted(set(coords)) for coords in zip(*subgroup)]
    if list(itertools.product(*projections)) == list(subgroup):
        return _IndexedGroup(elems, [[0]], tuple(len(c) for c in projections if len(c) > 1) + mods, zero)
    index = {h: i for i, h in enumerate(subgroup)}
    h_table = [[index[ambient.add(a, b)] for b in subgroup] for a in subgroup]
    return _IndexedGroup(elems, h_table, mods, zero)


def _index_law(ad: _IndexedGroup, den: int, counts: dict) -> _Law:
    """(den, counts) with the counts keyed by element index, in index order."""
    index = ad.index
    return den, dict(sorted((index[e], n) for e, n in counts.items()))


def _scaled(counts: dict, k: int) -> dict:
    return counts if k == 1 else {e: n * k for e, n in counts.items()}


def _same_law(a: _Law, b: _Law) -> bool:
    (da, ma), (db, mb) = a, b
    return ma.keys() == mb.keys() and all(n * db == mb[e] * da for e, n in ma.items())


def _check_coupling(add, coupling: _Law, target: _Law, source: _Law | None = None) -> None:
    """Raise unless `coupling` pushes forward by `add` to `target` and, when
    given, has X-marginal `source`; the three may have different denominators."""
    den, counts = coupling
    push, marginal = {}, {}
    for (x, z), n in counts.items():
        y = add(x, z)
        push[y], marginal[x] = push.get(y, 0) + n, marginal.get(x, 0) + n
    if not _same_law((den, push), target):
        raise CertificateError("pushforward of coupling differs from target")
    if source is not None and not _same_law((den, marginal), source):
        raise CertificateError("X-marginal of coupling differs from source")


def _is_uniform(ad, law: _Law) -> bool:
    den, mass = law
    return len(mass) == ad.size and all(ad.size * n == den for n in mass.values())


class _RawCert(NamedTuple("_RawCert", [("den", int), ("coupling", dict), ("target", dict)])):
    """Coupling (x, z) -> count and target y -> count over one denominator,
    reduced to lowest terms by `__new__`."""

    __slots__ = ()

    def __new__(cls, den: int, coupling: dict, target: dict):
        g = math.gcd(den, *coupling.values(), *target.values())
        if g > 1:
            den //= g
            coupling = {k: n // g for k, n in coupling.items()}
            target = {k: n // g for k, n in target.items()}
        return super().__new__(cls, den, coupling, target)


def _raw_source(c: _RawCert) -> dict:
    return push_masses(c.coupling, lambda a: a[0])


def _raw_independent_pair(ad, qp: _Law, qm: _Law) -> _RawCert:
    (dp, mp), (dm, mm) = qp, qm
    atoms: dict = {}
    sub = ad.sub
    for x, nx in mp.items():
        for y, ny in mm.items():
            key = (x, sub(y, x))
            atoms[key] = atoms.get(key, 0) + nx * ny
    return _RawCert(dp * dm, atoms, _scaled(mm, dp))


def _raw_noise(ad, q: _Law, z: _Law) -> _RawCert:
    """q ⊗ z, whose target q ⊛ z is the pushforward of its atoms.

    With z the point law at c this is the deterministic shift by c, cost 0;
    at zero it is the identity, whose target is q scaled, in q's key order.
    """
    (dq, mq), (dz, mz) = q, z
    atoms = {(x, zz): nx * nz for x, nx in mq.items() for zz, nz in mz.items()}
    add = ad.add
    return _RawCert(dq * dz, atoms, push_masses(atoms, lambda a: add(*a)))


def _raw_reverse(ad, c: _RawCert) -> _RawCert:
    add, neg = ad.add, ad.neg
    atoms = {(add(x, z), neg(z)): n for (x, z), n in c.coupling.items()}
    return _RawCert(c.den, atoms, _raw_source(c))


def _raw_compose(ad, c1: _RawCert, c2: _RawCert) -> _RawCert:
    """X -> W -> Y with Z2 drawn given W = X + Z1 from c2's coupling.

    The composed count at (x, y - x) is sum_w A[x, w] B[w, y], with A[x, w]
    c1's count at (x, w - x) and B[w, y] the count of Z2 = y - w given W = w
    over a common denominator m.  The product is formed packed (see
    `_packed_rows`) if `_packs` finds its slots, |c2| + |supp W| |supp Y|
    packed or read back, worth the estimated pairs |c1| |c2| / |supp W|;
    otherwise the pairs are summed one by one.
    """
    by_w: dict = {}
    for (w, z2), n in c2.coupling.items():
        by_w.setdefault(w, []).append((z2, n))
    src = {w: sum(n for _, n in row) for w, row in by_w.items()}  # c2's source counts
    if not _same_law((c2.den, src), (c1.den, c1.target)):
        raise CertificateError("second certificate does not start at the first's target")
    # Z2 given W = w has masses n / src[w] over d_w = src[w] // g_w in lowest terms,
    # g_w = gcd(src[w], *row).  Over m = lcm(d_w), each atom is n1 * n2 / (den1 * m)
    # with n2 = n * m / src[w] = (n // g_w) * (m // d_w), exact as d_w divides m.
    gcds = {w: math.gcd(src[w], *(n for _, n in row)) for w, row in by_w.items()}
    m = math.lcm(*(src[w] // g for w, g in gcds.items()))
    cond = {}
    for w, row in by_w.items():
        g = gcds[w]
        f = m // (src[w] // g)
        cond[w] = [(z2, n // g * f) for z2, n in row]
    n1s, n2s, nw = len(c1.coupling), len(c2.coupling), len(by_w)
    if not _packs(n1s * n2s // nw, n2s + nw * len(c2.target)):
        atoms: dict = {}
        add = ad.add
        for (x, z1), n1 in c1.coupling.items():
            for z2, n2 in cond[add(x, z1)]:
                key = (x, add(z1, z2))
                atoms[key] = atoms.get(key, 0) + n1 * n2
    else:
        atoms = _packed_rows(ad, c1.coupling, cond, c1.den * m)
    den = math.lcm(c1.den * m, c2.den)
    return _RawCert(den, _scaled(atoms, den // (c1.den * m)), _scaled(c2.target, den // c2.den))


def _raw_extend(ad, c: _RawCert, z: _Law) -> _RawCert:
    """c followed by independent noise z: c ∘ (q ⊗ z), with q c's target.

    Z2 is z whatever W is, so the composed count at (x, z1 + z2) is
    sum c[x, z1] z[z2] over den * dz, at most den * dz: each row of c and c's
    target convolve with z, one packed product each (`dists._Kronecker`) with
    2m - 1 digits on each Z/m, if H is trivial, so that indices run row-major
    over the moduli, and `_packs` finds the padded slots worth the atom pairs.
    A box whose H is the product of its coordinate projections has a trivial
    H, as `_box_group` folds it.  Otherwise c composes with q ⊗ z.
    """
    rows: dict = {}
    for (x, z1), k in c.coupling.items():
        rows.setdefault(x, {})[z1] = k
    sides = [2 * m - 1 for m in ad._mods]
    if len(ad._h_table) > 1 or not _packs((len(c.coupling) + len(c.target)) * len(z[1]),
                                           (len(rows) + 1) * math.prod(sides)):
        return _raw_compose(ad, c, _raw_noise(ad, (c.den, c.target), z))
    bound = c.den * z[0]
    box = _Kronecker(ad._mods, sides, bound)
    digits = itertools.product(*(range(m) for m in ad._mods))  # of each element index
    cells = [sum(map(operator.mul, d, box.strides)) for d in digits]  # its slot
    index = {s: e for e, s in enumerate(cells)}
    packed_z = box.pack({cells[e]: n for e, n in z[1].items()})

    def conv(counts: dict) -> dict:
        packed = box.pack({cells[e]: n for e, n in counts.items()}) * packed_z
        return {index[i]: n for i, n in enumerate(box.read(packed)) if n}

    atoms = {(x, zz): k for x, row in rows.items() for zz, k in conv(row).items()}
    return _RawCert(bound, atoms, conv(c.target))


def _packed_rows(ad, coupling: dict, cond: dict, bound: int) -> dict:
    """The counts sum_w A[x, w] B[w, y] of a composed coupling, row by row.

    Each row B[w, .] is packed by `dists._Kronecker` on one Z axis, a slot
    per y in order of first appearance among the targets w + z2, so any group
    serves.  Each x's row is then the int sum_z1 A[x, x + z1] * packed[x + z1].
    No composed count exceeds `bound`, den1 * m: c1's counts at x sum to at
    most den1 and each row of B sums to m.
    """
    add, sub = ad.add, ad.sub
    slot: dict = {}  # y -> its slot index
    by_slot = {w: {slot.setdefault(add(w, z2), len(slot)): n for z2, n in row}
               for w, row in cond.items()}
    box = _Kronecker((0,), (len(slot),), bound)
    packed = {w: box.pack(row) for w, row in by_slot.items()}
    rows: dict = {}
    for (x, z1), n1 in coupling.items():
        rows[x] = rows.get(x, 0) + n1 * packed[add(x, z1)]
    atoms = {}
    for x, row in rows.items():
        for y, n in zip(slot, box.read(row)):  # read stops at the row's top slot
            if n:
                atoms[(x, sub(y, x))] = n
    return atoms


def _raw_mix(wden: int, pieces: Sequence[tuple[int, _RawCert]]) -> _RawCert:
    """Mixture with weights w / wden over the pieces (w, cert)."""
    pieces = [(w, cert) for w, cert in pieces if w]
    base = math.lcm(*(cert.den for _, cert in pieces))
    atoms: dict = {}
    tgt: dict = {}
    for w, cert in pieces:
        f = w * (base // cert.den)
        for key, n in cert.coupling.items():
            atoms[key] = atoms.get(key, 0) + f * n
        for e, n in cert.target.items():
            tgt[e] = tgt.get(e, 0) + f * n
    return _RawCert(wden * base, atoms, tgt)


# -- flattening rounds -------------------------------------------------------


def _sq_to_uniform(ad, q: _Law) -> tuple[int, int]:
    """Squared l2 distance to uniform, as (numerator, denominator)."""
    den, mass = q
    n = ad.size
    num = sum((n * v - den) ** 2 for v in mass.values()) + (n - len(mass)) * den * den
    return num, n * n * den * den


def _halves(new: tuple[int, int], old: tuple[int, int]) -> bool:
    return 2 * new[0] * old[1] <= old[0] * new[1]


def _pick_shift(ad, q: _Law) -> int:
    """Shift h minimizing the post-average squared distance to uniform.

    Scans with floats for speed; the caller re-verifies the halving invariant
    exactly and falls back to an exact scan if rounding misled the choice.
    Each d[x] is the correctly rounded mass minus 1/|G|, summed over x in
    element order, so the choice does not depend on the denominator.  numpy
    sums each column of the products row after row, so the loop on small
    groups adds in the same order and makes the same floats.
    """
    den, mass = q
    n = ad.size
    if n <= _LIST_TABLE_ORDER:
        add = ad.add
        d = [mass.get(e, 0) / den - 1.0 / n for e in range(n)]
        shifted = []
        for h in ad._neg:
            s = 0.0  # added one by one: `sum` may compensate, numpy does not
            for x in range(n):
                s += d[x] * d[add(x, h)]
            shifted.append(s)
        return shifted.index(min(shifted))
    import numpy as np

    d = np.array([mass.get(e, 0) / den for e in range(n)]) - 1.0 / n
    shifted = (d[:, None] * d[ad.table]).sum(axis=0)  # sum_x d[x] d[x + h]
    return int(np.argmin(shifted[ad._neg]))  # the autocorrelation at h is shifted[-h]


def _pick_shift_exact(ad, q: _Law) -> int:
    den, mass = q
    n = ad.size
    d = [n * mass.get(e, 0) - den for e in range(n)]  # (mass - 1/n) * n * den
    sub = ad.sub
    return min(range(n), key=lambda h: sum(d[x] * d[sub(x, h)] for x in range(n)))  # the first on ties


def _shift_mix(ad, q: _Law, h) -> _Law:
    den, mass = q
    out: dict = {}
    add = ad.add
    for x, v in mass.items():
        out[x] = out.get(x, 0) + v
        y = add(x, h)
        out[y] = out.get(y, 0) + v
    return _lowest_terms(2 * den, out)


def _raw_flatten(
    ad, q: _Law, max_rounds: int, stop: Callable[[_Law, tuple[int, int]], bool]
) -> tuple[_Law, list[int], list[tuple[int, int]]]:
    """Run mixing rounds until `stop(law, sq)` or the round budget ends.

    Returns (final law, chosen shifts, squared distances incl. initial).
    Each executed round exactly halves (or better) the squared distance.
    """
    cur = q
    sq = _sq_to_uniform(ad, cur)
    shifts: list[int] = []
    sqs = [sq]
    for _ in range(max_rounds):
        if sq[0] == 0 or stop(cur, sq):
            break
        h = _pick_shift(ad, cur)
        nxt = _shift_mix(ad, cur, h)
        nsq = _sq_to_uniform(ad, nxt)
        if not _halves(nsq, sq):
            h = _pick_shift_exact(ad, cur)
            nxt = _shift_mix(ad, cur, h)
            nsq = _sq_to_uniform(ad, nxt)
            if not _halves(nsq, sq):
                raise AssertionError("flattening failed to halve the squared norm")
        cur, sq = nxt, nsq
        shifts.append(h)
        sqs.append(sq)
    return cur, shifts, sqs


def _shift_noise(ad, shifts: Sequence[int]) -> _Law:
    z = (1, {ad.zero(): 1})
    for h in shifts:
        z = _shift_mix(ad, z, h)
    return z


def _raw_stage(
    ad, c: _RawCert | None, q: _Law | None, max_rounds: int, stop
) -> tuple[_RawCert, _Law, list[int], list[tuple[int, int]]]:
    """One flatten stage: flatten q, or c's target when c is given, and add the
    independent sum z of the chosen shifts, as q ⊗ z or as c extended by z;
    with no shift chosen, c is returned as it is, and q ⊗ z is the identity.

    Returns (certificate, flattened law, chosen shifts, squared distances).
    """
    if c is not None:
        q = (c.den, c.target)
    final, shifts, sqs = _raw_flatten(ad, q, max_rounds, stop)
    z = _shift_noise(ad, shifts)
    cert = _raw_noise(ad, q, z) if c is None else _raw_extend(ad, c, z) if shifts else c
    if not _same_law((cert.den, cert.target), final):
        raise CertificateError("flatten certificate does not reach the flattened law")
    return cert, final, shifts, sqs


def _sigma_excess(ad, q: _Law) -> int:
    """The excess mass above 1/|G|, times |G| * den."""
    den, mass = q
    n = ad.size
    return sum(n * v - den for v in mass.values() if n * v > den)


class FlattenTrace(NamedTuple):
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
    ad = _spec_group(p.group)
    raw, _, shifts, sqs = _raw_stage(ad, None, _index_law(ad, p.den, p.counts), k, lambda q, sq: False)
    trace = FlattenTrace([ad.elems[h] for h in shifts], [Fraction(*sq) for sq in sqs])
    trace.verify()
    cert = _emit(p, ad, raw)
    return cert.target, trace, cert


# -- uniformisation ----------------------------------------------------------


def _raw_to_uniform(ad, c: _RawCert | None, q: _Law | None = None, depth: int = 0) -> _RawCert:
    """Carry c's target, or the law q when c is None, to the uniform law: one
    flatten stage, then peel the positive excess and recurse on its laws.

    The sigma target tightens with depth and bottoms out at sigma_min, where
    the remaining excess is moved by the independent coupling at cost at most
    sigma_min * log|G|.  With the flattened law over den, sigma = s / (|G| den).
    """
    n = ad.size
    bits = min(SIGMA_MIN_BITS, 10 * (depth + 1))  # target sigma 2**-bits
    c, cur, _, _ = _raw_stage(
        ad, c, q, _MAX_FLATTEN_ROUNDS, lambda law, sq: _sigma_excess(ad, law) << bits <= n * law[0]
    )
    if _is_uniform(ad, cur):
        return c
    if n > MAX_TABLE_ORDER:  # the split's pairs grow as |G|^2, as the scan's table does
        raise CapExceededError(f"group order {n} exceeds the table cap {MAX_TABLE_ORDER}")
    den, mass = cur
    s = _sigma_excess(ad, cur)
    q_plus = _lowest_terms(s, {e: n * v - den for e, v in mass.items() if n * v > den})
    q_minus = _lowest_terms(s, {
        e: den - n * mass.get(e, 0) for e in range(n) if n * mass.get(e, 0) < den
    })
    mu = _lowest_terms(n * den - s, {e: min(n * v, den) for e, v in mass.items()})
    if s << SIGMA_MIN_BITS <= n * den:
        piece = _raw_independent_pair(ad, q_plus, q_minus)
    else:
        up = _raw_to_uniform(ad, None, q_plus, depth + 1)
        um = _raw_to_uniform(ad, None, q_minus, depth + 1)
        piece = _raw_compose(ad, up, _raw_reverse(ad, um))
    split = _raw_mix(n * den, [(s, piece), (n * den - s, _raw_noise(ad, mu, _shift_noise(ad, ())))])
    return _raw_compose(ad, c, split)


def _raw_uniformise(ad, q: _Law) -> _RawCert:
    """Full pipeline: density-level partition, per-level flattening, sigma-splits."""
    from .metrics import density_levels

    den, mass = q
    size = ad.size
    pieces: list[tuple[int, _RawCert]] = []
    for k, level in density_levels(den, mass, size).items():
        # level 0 is kept as it is; the others stop at ||q_k - u||_2^2 <= 1/|G|
        w = sum(level.values())
        cert = _raw_stage(
            ad, None, _lowest_terms(w, level), _MAX_FLATTEN_ROUNDS if k else 0,
            lambda c, sq: sq[0] * size <= sq[1],
        )[0]
        pieces.append((w, cert))
    out = _raw_to_uniform(ad, _raw_mix(den, pieces))
    if not _is_uniform(ad, (out.den, out.target)):
        raise CertificateError("uniformisation failed to reach the uniform law")
    return out


def _emit(p: Dist, ad: _IndexedGroup, raw: _RawCert) -> TransportCertificate:
    """The certificate `raw` from p, checked in indices, then decoded by `elems`.

    Element i has the digits of i as coordinates, so decoding maps `ad.add`
    to `GroupSpec.add`: these are the checks of `validate`.  Target counts sum
    coupling counts, so the coupling keeps the lowest terms of `raw`; index
    order is element order, so one sort of index pairs makes it canonical.
    """
    den, coupling, elems, g = raw.den, raw.coupling, ad.elems, p.group
    if min(coupling.values()) <= 0:
        raise CertificateError("coupling has a non-positive count")
    _check_coupling(ad.add, (den, coupling), (den, raw.target), _index_law(ad, p.den, p.counts))
    atoms = {(elems[x], elems[z]): coupling[x, z] for x, z in sorted(coupling)}
    tden, target = _lowest_terms(den, {elems[y]: n for y, n in sorted(raw.target.items())})
    return TransportCertificate(JointDist._canonical((g, g), den, atoms), Dist._canonical(g, tden, target))


def _check_deficit(p: Dist, size: int, k_bound: float) -> None:
    """Refuse p unless Ent(p) >= log size - log K, with K below 10 taken as 10."""
    log_k = math.log(max(float(k_bound), 10.0))
    deficit = math.log(size) - entropy(p)
    if not deficit <= log_k + 1e-9:  # negated, so that a NaN K is refused
        raise PreconditionError(f"entropy deficit {deficit:.6f} exceeds log K = {log_k:.6f}")


def uniformise_group(p: Dist, k_bound: float) -> TransportCertificate:
    """Exact certificate transporting p to the uniform law on its finite group.

    Requires Ent(p) >= log|G| - log K; values of K below 10 are accepted and
    treated as 10.  The certificate is exact; its cost is reported, not
    bounded a priori.
    """
    if not p.group.is_finite():
        raise PreconditionError("uniformisation needs a finite group")
    _check_deficit(p, p.group.order(), k_bound)
    ad = _spec_group(p.group)
    return _emit(p, ad, _raw_uniformise(ad, _index_law(ad, p.den, p.counts)))


def uniformise_coset_progression(
    p: Dist, cp: CosetProgression, k_bound: float | None = None
) -> TransportCertificate:
    """Certificate transporting p to the uniform law on a proper H + P.

    Pulls p back to the box H x prod [0, Ni), embeds it in H x prod Z/2NiZ and
    uniformises there.  The composed transport moves box points to box points,
    so it leaves the box by subtraction: an atom (x, z) becomes (x', y' - x')
    for the ambient images x', y' of x and y = x + z, and no shift can wrap.
    With k_bound, p is refused as `uniformise_group` refuses it, on |H + P|.
    """
    from .progressions import box_embedding

    g = cp.group
    if p.group != g:
        raise IncompatibleGroupError("the law must live in the progression's group")
    emb = box_embedding(cp)
    hp = frozenset(emb.backward)
    target = Dist.uniform(g, hp)
    if k_bound is not None:
        _check_deficit(p, len(hp), k_bound)
    if p == target:
        return identity_certificate(p)
    ad = _box_group(g, cp.subgroup, tuple(2 * n for n in cp.lengths))
    box_mass = _index_law(ad, p.den, emb.pull(p))  # raises if support leaves H+P
    box_uniform = (len(hp), {ad.index[key]: 1 for key in emb.forward})
    c1 = _raw_uniformise(ad, box_mass)
    c2 = _raw_uniformise(ad, box_uniform)
    raw = _raw_compose(ad, c1, _raw_reverse(ad, c2))
    # raw moves box_mass to box_uniform, so x and x + z are box points, each atom
    # leaves as the ambient difference of their images, and as `forward` is
    # injective the decoded coupling has marginal p and pushforward the target
    _check_coupling(ad.add, (raw.den, raw.coupling), box_uniform, box_mass)
    amb = [emb.forward.get(e) for e in ad.elems]
    atoms = {(amb[x], g.sub(amb[ad.add(x, z)], amb[x])): n for (x, z), n in raw.coupling.items()}
    return TransportCertificate(JointDist._with_counts((g, g), raw.den, atoms), target)
