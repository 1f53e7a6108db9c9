"""Exact finitely supported distributions over abelian groups.

Every law is held in one exact form: int counts over one denominator, in
lowest terms, keyed by reduced atoms in sorted order, and library code reads
and builds laws as (den, counts), so marginals, conditioning, convolution
and pushforwards run in Python ints; only entropies are floating point.
`Fraction` masses enter only through the public constructors (`_normalise`),
which the file loaders also use, and leave only through the `mass` view,
which is for output.  Each entropy term is taken on its mass in lowest terms
and the sums use math.fsum, so the result is independent of summation order.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .errors import CapExceededError, IncompatibleGroupError, PreconditionError
from .groups import Element, GroupSpec

SUPPORT_CAP = 200_000  # largest support bound of a sum law that convolve builds
# `_Kronecker`'s native unsigned word of each size in bytes; none where the
# machine's words are not laid out as the packed ints' little-endian bytes
_WORDS = {memoryview(bytes(8)).cast(c).itemsize: c for c in "BHILQ"} if sys.byteorder == "little" else {}

# ---------------------------------------------------------------------------
# the scalar building block F(x) = x log(1/x) and friends


def f_nats(p) -> float:
    """F(p) = p log(1/p) in nats, safe for rationals with huge numerators."""
    if isinstance(p, Fraction):
        return _f_count(p.numerator, p.denominator)
    if p == 0:
        return 0.0
    x = float(p)
    if x <= 0.0:
        return 0.0
    return -x * math.log(x)


def _f_count(n: int, den: int) -> float:
    """F(n/den) for ints 0 <= n <= den, computed on n/den in lowest terms.

    The reduction keeps every term bitwise equal to the same mass as a
    Fraction; an unreduced pair can differ in the last bits.
    """
    if n == 0:
        return 0.0
    g = math.gcd(n, den)
    n, den = n // g, den // g
    # log of big ints is exact enough; n/den is correctly rounded and may
    # harmlessly underflow to 0.0 for masses below float resolution.
    return -(n / den) * (math.log(n) - math.log(den))


def f_prime(x: float) -> float:
    """F'(x) = log(1/x) - 1 for x > 0."""
    return -math.log(x) - 1.0


# ---------------------------------------------------------------------------
# distributions


def _normalise(mass: Mapping, reduce: Callable) -> tuple[int, dict]:
    """(den, counts) of exact masses summed per reduce(key), sorted by it,
    with zeros dropped and gcd(den, *counts) == 1.

    Raises ValueError for a negative mass or a total other than exactly 1.
    """
    atoms: dict = {}
    for key, v in mass.items():
        if not isinstance(v, Fraction):
            if not isinstance(v, (int, str)):
                raise TypeError(f"mass must be an exact rational, got {type(v).__name__}")
            v = Fraction(v)
        if v == 0:
            continue
        if v < 0:
            raise ValueError(f"negative mass {v} at {key}")
        key = reduce(key)
        atoms[key] = atoms[key] + v if key in atoms else v
    # over the lcm of the reduced denominators the counts are in lowest terms
    den = math.lcm(*[v.denominator for v in atoms.values()])
    counts = {key: atoms[key].numerator * (den // atoms[key].denominator) for key in sorted(atoms)}
    total = sum(counts.values())
    if total != den:
        raise ValueError(f"masses sum to {Fraction(total, den)}, expected exactly 1")
    return den, counts


def push_masses(mass: Mapping, key: Callable) -> dict:
    """Masses (or counts) of an image law: those of `mass` summed per key(atom)."""
    out: dict = {}
    for atom, v in mass.items():
        k = key(atom)
        out[k] = out[k] + v if k in out else v
    return out


def _lowest_terms(den: int, counts: dict) -> tuple[int, dict]:
    """(den, counts) with gcd(den, *counts) divided out."""
    g = math.gcd(den, *counts.values())
    return (den, counts) if g == 1 else (den // g, {k: n // g for k, n in counts.items()})


class _CountLaw:
    """An exact law: positive int `counts` over one denominator `den`.

    The counts are keyed by reduced atoms in sorted order, sum to `den` and
    share no factor with it.  That form is canonical, so two laws are equal
    iff their groups, denominators and counts are.  `mass` is the same law
    as Fractions, built on first use; read it, never write it.
    """

    __slots__ = ("den", "counts", "_mass")
    _AMBIENT = ""  # the slot of the subclass that holds its group or groups

    @classmethod
    def _with_counts(cls, ambient, den: int, counts: Mapping):
        """The law on `ambient` with mass n/den at each key of `counts`.

        The keys must be reduced and distinct.  The counts are checked
        positive and summing to den in ints, then sorted by key and divided
        by their gcd with den.
        """
        total = 0
        for key, n in counts.items():
            if n <= 0:
                raise ValueError(f"non-positive count {n} at {key}")
            total += n
        if total != den:
            raise ValueError(f"counts sum to {total}, expected {den}")
        den, counts = _lowest_terms(den, counts)
        return cls._canonical(ambient, den, dict(sorted(counts.items())))

    @classmethod
    def _canonical(cls, ambient, den: int, counts: dict):
        """`_with_counts` for counts that the caller guarantees positive, summing
        to den, in lowest terms with it and sorted by key; nothing is checked."""
        out = cls.__new__(cls)
        out.den, out.counts, out._mass = den, counts, None
        setattr(out, cls._AMBIENT, ambient)
        return out

    @property
    def mass(self) -> dict:
        """The masses as Fractions, in atom order."""
        if self._mass is None:
            den = self.den
            self._mass = {e: Fraction(n, den) for e, n in self.counts.items()}
        return self._mass

    def __iter__(self):
        return iter(self.mass.items())

    def __len__(self) -> int:
        return len(self.counts)

    def _key(self) -> tuple:
        return getattr(self, self._AMBIENT), self.den, tuple(self.counts.items())

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def entropy(self) -> float:
        return entropy(self)

    def _kept(self, keep: Callable):
        """This law conditioned on the atoms with keep(atom)."""
        kept = {a: n for a, n in self.counts.items() if keep(a)}
        if not kept:
            raise PreconditionError("conditioning event has zero probability")
        return self._with_counts(getattr(self, self._AMBIENT), sum(kept.values()), kept)


class Dist(_CountLaw):
    """Finitely supported probability distribution with exact rational masses.

    Atoms are stored sorted by element so iteration order, and therefore
    every compensated sum, is deterministic.
    """

    __slots__ = ("group",)
    _AMBIENT = "group"

    def __init__(self, group: GroupSpec, mass: Mapping[Element, Fraction]):
        self.den, self.counts = _normalise(mass, group.reduce)
        self._mass = None
        self.group = group

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def uniform(group: GroupSpec, elements: Iterable[Element]) -> "Dist":
        els = {group.reduce(e) for e in elements}
        if not els:
            raise ValueError("uniform distribution needs a non-empty set")
        return Dist._with_counts(group, len(els), dict.fromkeys(els, 1))

    @staticmethod
    def point(group: GroupSpec, el: Element) -> "Dist":
        return Dist._with_counts(group, 1, {group.reduce(el): 1})

    # -- basics ----------------------------------------------------------------

    def support(self) -> tuple[Element, ...]:
        return tuple(self.counts)

    def __getitem__(self, el: Element) -> Fraction:
        return self.mass.get(self.group.reduce(el), Fraction(0))

    def __repr__(self) -> str:
        inner = ", ".join(f"{e}: {v}" for e, v in list(self.mass.items())[:6])
        more = ", ..." if len(self.counts) > 6 else ""
        return f"Dist({self.group.moduli}, {{{inner}{more}}})"

    def translate(self, c: Element) -> "Dist":
        g = self.group
        return Dist._with_counts(g, self.den, {g.add(e, c): n for e, n in self.counts.items()})

    def negate(self) -> "Dist":
        g = self.group
        return Dist._with_counts(g, self.den, {g.neg(e): n for e, n in self.counts.items()})

    def condition(self, predicate: Callable[[Element], bool]) -> "Dist":
        return self._kept(predicate)


def entropy(p: _CountLaw) -> float:
    """Shannon entropy in nats of a Dist or JointDist: sum of F over the masses."""
    den = p.den
    return math.fsum(_f_count(n, den) for n in p.counts.values())


class _Kronecker:
    """Packed products on a box of axes, each Z/m (m > 0) or Z (m = 0).

    Axis i has sides[i] digits (see `_layout`).  A law is packed into one
    int, the point with digits x in the w-byte slot sum_i x_i strides[i], so
    one product of packed ints forms every sum at once, and no slot carries
    into the next while no count exceeds `cap` (multivariate Kronecker
    substitution; Harvey, J. Symbolic Comput. 2009).  w is the fewest bytes
    that hold `cap`, rounded up to a word of `_WORDS` (1, 2, 4 or 8 bytes),
    whose slots move by one memoryview cast; wider ones by byte slices.
    `read` folds each cyclic axis, adding digit d >= m onto d - m.
    """

    def __init__(self, mods: Sequence[int], sides: Sequence[int], cap: int):
        w = (cap.bit_length() + 7) // 8
        if w <= 8 and _WORDS:
            w = 1 << (w - 1).bit_length()  # 3 bytes -> 4, 5 to 7 -> 8: headroom only
        self.w, self._code = w, _WORDS.get(w)
        slots = t = math.prod(sides)
        self.strides = []
        self._folds = []  # (mask of the slots whose digit is m or more, shift by m digits)
        for m, s in zip(mods, sides):
            t //= s
            self.strides.append(t)
            if m and s > m:
                run = bytes(w * m * t) + b"\xff" * (w * (s - m) * t)  # one run of the axis
                self._folds.append((int.from_bytes(run * (slots // (s * t)), "little"), 8 * w * m * t))

    def pack(self, counts: Mapping[int, int]) -> int:
        """Counts keyed by slot as one int."""
        w = self.w
        buf = bytearray(w * (max(counts) + 1))
        if self._code:
            words = memoryview(buf).cast(self._code)
            for i, n in counts.items():
                words[i] = n
        else:
            for i, n in counts.items():
                buf[i * w:i * w + w] = n.to_bytes(w, "little")
        return int.from_bytes(buf, "little")

    def read(self, packed: int) -> list[int]:
        """The folded slots up to the last nonzero one, at most `cap` each."""
        for mask, shift in self._folds:
            while high := packed & mask:  # a power's digits can pass m more than once
                packed += (high >> shift) - high
        w = self.w
        size = -(-packed.bit_length() // (8 * w)) * w
        buf = packed.to_bytes(size, "little")
        if self._code:
            return memoryview(buf).cast(self._code).tolist()
        return [int.from_bytes(buf[i:i + w], "little") for i in range(0, size, w)]


def _layout(mods: Sequence[int], laws: Sequence[Mapping], k: int = 1) -> tuple[list, list, int]:
    """(lows, sides, box) for a sum of k independent draws from each law:
    each law's lowest coordinate per axis, 0 on Z/m; the digits of the sums
    per axis, k times the summed spans plus 1, a law on Z/m spanning m - 1;
    and the number of possible sums, with side m on Z/m."""
    lows, sides = [], [1] * len(mods)
    for counts in laws:
        low = []
        for i, (m, col) in enumerate(zip(mods, zip(*counts))):
            lo, hi = (0, m - 1) if m else (min(col), max(col))
            low.append(lo)
            sides[i] += k * (hi - lo)
        lows.append(low)
    return lows, sides, math.prod(m or s for m, s in zip(mods, sides))


def _packed_sum(mods: Sequence[int], laws: Sequence[Mapping], lows: list, sides: list,
                cap: int, k: int = 1) -> dict:
    """Counts of the sum of k independent draws from each law, each count at
    most `cap`, from one product of packed ints, laid out by `_layout`."""
    box = _Kronecker(mods, sides, cap)
    strides = box.strides
    packed = 1
    for counts, low in zip(laws, lows):
        base = sum(map(operator.mul, low, strides))
        packed *= box.pack({sum(map(operator.mul, x, strides)) - base: n for x, n in counts.items()})
    starts = [k * sum(axis) for axis in zip(*lows)]  # where the sums start on each axis
    points = itertools.product(*map(range, starts, map(operator.add, starts, sides)))
    return {x: n for x, n in zip(points, box.read(packed ** k)) if n}


_PACK_PAIRS = 64  # fixed cost of a packed product in pair-loop products; scripts/fit_pack_rule.py


def _packs(pairs: int, slots: int, fixed: bool = True) -> bool:
    """Whether a packed product beats a loop over `pairs` atom pairs: it pays
    a fixed cost (layout, masks, slot conversions), unless it stands for a
    loop of calls that pay as much between them (fixed=False), and about one
    product per padded slot, so a refusal at 0 slots refuses every layout."""
    return pairs >= _PACK_PAIRS * fixed + slots


def convolve(p: Dist, q: Dist, sign: str = "+") -> Dist:
    """Exact law of X ± Y for independent X ~ p, Y ~ q on the same group.

    Raises CapExceededError, before any sum is formed, when the support bound
    min(|p|·|q|, box of possible sums) exceeds SUPPORT_CAP.  `_packed_sum`
    forms all sums at once on any group, one slot per digit tuple: quadratic
    work for a wide sparse law, 2m - 1 digits on each Z/m.  Unless `_packs`
    finds that worth its cost, the pairs are summed one by one.
    """
    if p.group != q.group:
        raise IncompatibleGroupError("convolution needs a common ambient group")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    g = p.group
    nq = {g.neg(e): n for e, n in q.counts.items()} if sign == "-" else q.counts
    pairs, den = len(p) * len(q), p.den * q.den
    if pairs > SUPPORT_CAP or _packs(pairs, 0):  # otherwise the cap holds and nothing packs
        lows, sides, box = _layout(g.moduli, (p.counts, nq))
        if min(pairs, box) > SUPPORT_CAP:
            raise CapExceededError(f"convolution support may reach {min(pairs, box)}, cap {SUPPORT_CAP}")
        if _packs(pairs, math.prod(sides)):
            return Dist._with_counts(g, den, _packed_sum(g.moduli, (p.counts, nq), lows, sides, den))
    acc: dict[Element, int] = {}
    for ex, nx in p.counts.items():
        for ey, ny in nq.items():
            s = g.add(ex, ey)
            acc[s] = acc.get(s, 0) + nx * ny
    return Dist._with_counts(g, den, acc)


def iterated_convolve(p: Dist, k: int) -> Dist:
    """k-fold convolution power of p (k >= 1).

    A law is packed once and raised to the k-th power while the power's
    slots are within SUPPORT_CAP, so that no step of the loop of k - 1
    `convolve`s could raise, and `_packs` finds them, weighed by their width
    in 64-bit words, worth that loop's pairs: at most n·min(C(n + j - 1, j),
    box) at step j for n atoms, a bound on the j-fold sum.  Others loop.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    g = p.group
    if k > 1:
        lows, sides, box = _layout(g.moduli, (p.counts,), k)
        n, slots, den = len(p), math.prod(sides), p.den ** k
        pairs = n * sum(min(math.comb(n + j - 1, j), box) for j in range(1, k))
        if slots <= SUPPORT_CAP and _packs(pairs, slots * -(-den.bit_length() // 64), fixed=False):
            return Dist._with_counts(g, den, _packed_sum(g.moduli, (p.counts,), lows, sides, den, k))
    out = p
    for _ in range(k - 1):
        out = convolve(out, p, "+")
    return out


def tv_distance(p: Dist, q: Dist) -> float:
    """Unnormalised total variation: sum of |p(x) - q(x)| (range [0, 2])."""
    if p.group != q.group:
        raise IncompatibleGroupError("total variation needs a common group")
    np_, nq = p.counts, q.counts
    exact = sum(abs(np_.get(k, 0) * q.den - nq.get(k, 0) * p.den) for k in np_.keys() | nq.keys())
    return exact / (p.den * q.den)  # correctly rounded, as float(Fraction) is


# ---------------------------------------------------------------------------
# joints

Atom = tuple[Element, ...]


class JointDist(_CountLaw):
    """Finitely supported joint law over a tuple of group-valued coordinates."""

    __slots__ = ("groups",)
    _AMBIENT = "groups"

    def __init__(self, groups: Sequence[GroupSpec], mass: Mapping[Atom, Fraction]):
        groups = tuple(groups)
        self.den, self.counts = _normalise(mass, _atom_reducer(groups))
        self._mass = None
        self.groups = groups

    @property
    def k(self) -> int:
        return len(self.groups)

    def _check_coords(self, coords: Sequence[int]) -> tuple[int, ...]:
        coords = tuple(coords)
        if not coords:
            raise ValueError("coordinate subset must be non-empty")
        if len(set(coords)) != len(coords):
            raise ValueError("coordinate subset has duplicates")
        for c in coords:
            if not 0 <= c < self.k:
                raise ValueError(f"coordinate {c} out of range for k={self.k}")
        return coords

    def marginal(self, coords: Sequence[int]) -> "JointDist":
        coords = self._check_coords(coords)
        return JointDist._with_counts(
            tuple(self.groups[c] for c in coords),
            self.den,
            push_masses(self.counts, lambda a: tuple(a[c] for c in coords)),
        )

    def dist(self, coord: int) -> Dist:
        (coord,) = self._check_coords([coord])
        return Dist._with_counts(self.groups[coord], self.den, push_masses(self.counts, lambda a: a[coord]))

    def push(
        self,
        fn: Callable[[Atom], Atom],
        groups: Sequence[GroupSpec],
    ) -> "JointDist":
        """Pushforward under an atom-wise map into new coordinates."""
        groups = tuple(groups)
        reduce = _atom_reducer(groups)
        return JointDist._with_counts(groups, self.den, push_masses(self.counts, lambda a: reduce(fn(a))))

    def sum_dist(self, coords: Sequence[int], signs: Sequence[int] | None = None) -> Dist:
        """Law of the signed sum of the selected coordinates (dependence kept);
        `signs` gives one +1 or -1 per coordinate, all +1 by default."""
        coords = self._check_coords(coords)
        g = self.groups[coords[0]]
        for c in coords:
            if self.groups[c] != g:
                raise IncompatibleGroupError("summed coordinates must share a group")
        if signs is None:
            signs = [1] * len(coords)
        if len(signs) != len(coords) or any(sg not in (1, -1) for sg in signs):
            raise ValueError(f"signs must be one +1 or -1 per coordinate, got {list(signs)}")

        def signed_sum(atom):
            s = g.zero()
            for c, sg in zip(coords, signs):
                t = atom[c] if sg > 0 else g.neg(atom[c])
                s = g.add(s, t)
            return s

        return Dist._with_counts(g, self.den, push_masses(self.counts, signed_sum))

    def condition(self, coord: int, predicate: Callable[[Element], bool]) -> "JointDist":
        (coord,) = self._check_coords([coord])
        return self._kept(lambda a: predicate(a[coord]))


def _atom_reducer(groups: tuple[GroupSpec, ...]) -> Callable[[Atom], Atom]:
    """Coordinate-wise reduction of an atom; ValueError for a wrong coordinate count."""
    if not groups:
        raise ValueError("a joint needs at least one coordinate")

    def reduce(atom):
        if len(atom) != len(groups):
            raise ValueError(f"atom {atom} has {len(atom)} coordinates, expected {len(groups)}")
        return tuple(g.reduce(x) for g, x in zip(groups, atom))

    return reduce


def independent_joint(*dists: Dist) -> JointDist:
    """Product joint of independent marginals."""
    if not dists:
        raise ValueError("need at least one marginal")
    atoms: dict[Atom, int] = {(): 1}
    for d in dists:
        atoms = {prefix + (e,): v * n for prefix, v in atoms.items() for e, n in d.counts.items()}
    return JointDist._with_counts(tuple(d.group for d in dists), math.prod(d.den for d in dists), atoms)


def joint_entropy(j: JointDist, coords: Sequence[int]) -> float:
    """Entropy of the marginal on the given non-empty coordinate subset."""
    return j.marginal(coords).entropy()


def conditional_entropy(
    j: JointDist, target: Sequence[int], given: Sequence[int] = ()
) -> float:
    """Ent(target | given) as the p-weighted average of fibre entropies."""
    target = j._check_coords(target)
    given = tuple(given)
    if set(target) & set(given):
        raise ValueError("target and given coordinate sets overlap")
    if not given:
        return joint_entropy(j, target)
    return fibre_entropy(j, lambda a: (tuple(a[c] for c in given), tuple(a[c] for c in target)))


def fibre_entropy(j: JointDist, key: Callable) -> float:
    """Ent(T | G) for the joint j and key(atom) = (G value, T value).

    The counts are summed per key, then the exact fibre entropies averaged;
    fsum is correctly rounded, so order does not matter.
    """
    pairs = push_masses(j.counts, key)
    weights = push_masses(pairs, lambda k: k[0])
    fibres: dict[Atom, list] = {}
    for (gkey, _), n in pairs.items():
        fibres.setdefault(gkey, []).append(_f_count(n, weights[gkey]))
    den = j.den
    return math.fsum(w / den * math.fsum(fibres[gkey]) for gkey, w in weights.items())


def ci_trials(j: JointDist, pivot: int) -> JointDist:
    """Two conditionally independent trials of the non-pivot block given the pivot.

    For a joint over (X, Y) with pivot Y this returns the law of (X1, X2, Y)
    with mass p(x1, y) p(x2, y) / p_Y(y); the non-pivot block may span several
    coordinates, which are replicated in order.
    """
    (pivot,) = j._check_coords([pivot])
    rest = [c for c in range(j.k) if c != pivot]
    if not rest:
        raise ValueError("joint needs at least one non-pivot coordinate")
    # each atom is one (pivot value, rest block) pair, so nothing needs summing
    blocks: dict[Element, list] = {}
    for atom, n in j.counts.items():
        blocks.setdefault(atom[pivot], []).append((tuple(atom[c] for c in rest), n))
    # with m_y the pivot counts and L their lcm, the mass is n1 n2 (L / m_y) / (den L)
    pivot_counts = {y: sum(n for _, n in blk) for y, blk in blocks.items()}
    lcm = math.lcm(*pivot_counts.values())
    out: dict[Atom, int] = {}
    for y, blk in blocks.items():
        f = lcm // pivot_counts[y]
        for x1, n1 in blk:
            for x2, n2 in blk:
                out[x1 + x2 + (y,)] = n1 * n2 * f
    groups = tuple([j.groups[c] for c in rest] * 2 + [j.groups[pivot]])
    return JointDist._with_counts(groups, j.den * lcm, out)


def is_independent(j: JointDist, coords_a: Sequence[int], coords_b: Sequence[int],
                   given: Sequence[int] = ()) -> bool:
    """Exact test that two coordinate blocks are independent, given a third when
    `given` is not empty: n(g, a, b) n(g) == n(g, a) n(g, b) on the int counts."""
    ca, cb, cg = tuple(coords_a), tuple(coords_b), tuple(given)
    cs = ca + cb + cg
    # the rules of `_check_coords`, inline as it costs more than the test on
    # small joints; it must accept exactly what the three calls below accept
    if not (ca and cb and len(set(cs)) == len(cs) and all(0 <= c < j.k for c in cs)):
        j._check_coords(ca), j._check_coords(cb), j._check_coords(cs)  # raises the first fault
    # the blocks as itemgetters; slice(0) reads the empty block () of no `given`
    get = operator.itemgetter
    pa, pb, pg = get(*ca), get(*cb), get(*cg or [slice(0)])
    fibres: dict = {}
    for x, n in j.counts.items():
        a, b = pa(x), pb(x)
        na, nb, nab = fibres.setdefault(pg(x), ({}, {}, {}))
        na[a] = na.get(a, 0) + n
        nb[b] = nb.get(b, 0) + n
        nab[a, b] = nab.get((a, b), 0) + n
    for na, nb, nab in fibres.values():
        w = sum(na.values())
        # every product atom has positive mass, so each fibre's support must be a full product
        if len(nab) != len(na) * len(nb) or any(n * w != na[a] * nb[b] for (a, b), n in nab.items()):
            return False
    return True
