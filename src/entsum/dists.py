"""Exact finitely supported distributions over abelian groups.

Masses are exact rationals and every structural identity (normalisation,
marginals, conditioning, convolution) is checked or computed in exact
arithmetic; only entropies are floating point.  Entropy sums use math.fsum,
so the result is independent of summation order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .errors import CapExceededError, IncompatibleGroupError, PreconditionError
from .groups import Element, GroupSpec

SUPPORT_CAP = 200_000  # largest support bound of a sum law that convolve builds

# ---------------------------------------------------------------------------
# the scalar building block F(x) = x log(1/x) and friends


def f_nats(p) -> float:
    """F(p) = p log(1/p) in nats, safe for rationals with huge numerators."""
    if isinstance(p, Fraction):
        num, den = p.numerator, p.denominator
        if num == 0:
            return 0.0
        # log of big ints is exact enough; num/den is correctly rounded and
        # may harmlessly underflow to 0.0 for masses below float resolution.
        return -(num / den) * (math.log(num) - math.log(den))
    if p == 0:
        return 0.0
    x = float(p)
    if x <= 0.0:
        return 0.0
    return -x * math.log(x)


def f_prime(x: float) -> float:
    """F'(x) = log(1/x) - 1 for x > 0."""
    return -math.log(x) - 1.0


# ---------------------------------------------------------------------------
# distributions


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"mass must be an exact rational, got {type(v).__name__}")


def _normalise(mass: Mapping, reduce: Callable) -> dict:
    """Exact masses summed per reduce(key) and sorted by it, with zeros dropped.

    Raises ValueError for a negative mass or a total other than exactly 1.
    """
    atoms: dict = {}
    total = Fraction(0)
    for key, v in mass.items():
        v = _as_fraction(v)
        if v == 0:
            continue
        if v < 0:
            raise ValueError(f"negative mass {v} at {key}")
        key = reduce(key)
        atoms[key] = atoms.get(key, Fraction(0)) + v
        total += v
    if total != 1:
        raise ValueError(f"masses sum to {total}, expected exactly 1")
    return {key: atoms[key] for key in sorted(atoms)}


def push_masses(mass: Mapping, key: Callable) -> dict:
    """Exact masses of an image law: the masses of `mass` summed per key(atom)."""
    out: dict = {}
    for atom, v in mass.items():
        k = key(atom)
        out[k] = out[k] + v if k in out else v
    return out


def _condition(mass: Mapping, keep: Callable) -> dict:
    """The masses of the atoms with keep(atom), renormalised to sum to 1."""
    kept = {a: v for a, v in mass.items() if keep(a)}
    total = sum(kept.values(), Fraction(0))
    if total == 0:
        raise PreconditionError("conditioning event has zero probability")
    return {a: v / total for a, v in kept.items()}


class Dist:
    """Finitely supported probability distribution with exact rational masses.

    Atoms are stored sorted by element so iteration order, and therefore
    every compensated sum, is deterministic.
    """

    __slots__ = ("group", "mass")

    def __init__(self, group: GroupSpec, mass: Mapping[Element, Fraction]):
        self.mass = _normalise(mass, group.reduce)
        self.group = group

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def uniform(group: GroupSpec, elements: Iterable[Element]) -> "Dist":
        els = sorted({group.reduce(e) for e in elements})
        if not els:
            raise ValueError("uniform distribution needs a non-empty set")
        w = Fraction(1, len(els))
        return Dist(group, {e: w for e in els})

    @staticmethod
    def point(group: GroupSpec, el: Element) -> "Dist":
        return Dist(group, {el: Fraction(1)})

    # -- basics ----------------------------------------------------------------

    def support(self) -> tuple[Element, ...]:
        return tuple(self.mass)

    def __getitem__(self, el: Element) -> Fraction:
        return self.mass.get(self.group.reduce(el), Fraction(0))

    def __iter__(self):
        return iter(self.mass.items())

    def __len__(self) -> int:
        return len(self.mass)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Dist)
            and self.group == other.group
            and self.mass == other.mass
        )

    def __hash__(self):
        return hash((self.group, tuple(self.mass.items())))

    def __repr__(self) -> str:
        inner = ", ".join(f"{e}: {v}" for e, v in list(self.mass.items())[:6])
        more = ", ..." if len(self.mass) > 6 else ""
        return f"Dist({self.group.moduli}, {{{inner}{more}}})"

    def translate(self, c: Element) -> "Dist":
        g = self.group
        return Dist(g, {g.add(e, c): v for e, v in self.mass.items()})

    def negate(self) -> "Dist":
        g = self.group
        return Dist(g, {g.neg(e): v for e, v in self.mass.items()})

    def entropy(self) -> float:
        return entropy(self)

    def condition(self, predicate: Callable[[Element], bool]) -> "Dist":
        return Dist(self.group, _condition(self.mass, predicate))


def entropy(p: Dist) -> float:
    """Shannon entropy in nats: sum of F over the masses."""
    return math.fsum(f_nats(v) for v in p.mass.values())


def _common_denominator(mass: Mapping) -> tuple[int, dict]:
    """Integer counts over the least common denominator of Fraction masses."""
    den = math.lcm(*[v.denominator for v in mass.values()])
    return den, {e: v.numerator * (den // v.denominator) for e, v in mass.items()}


def _from_counts(group: GroupSpec, den: int, atoms: Iterable[tuple[Element, int]]) -> Dist:
    """The law with mass n/den at each key of `atoms`, whose (key, n) pairs
    come reduced, distinct and sorted by key.

    This skips `_normalise`: the counts are checked positive and summing to
    den in ints.  Fraction(n, den) keeps each mass in lowest terms, which
    f_nats needs to stay bitwise stable.
    """
    mass = {}
    total = 0
    for key, n in atoms:
        if n <= 0:
            raise ValueError(f"non-positive count {n} at {key}")
        total += n
        mass[key] = Fraction(n, den)
    if total != den:
        raise ValueError(f"counts sum to {total}, expected {den}")
    out = Dist.__new__(Dist)
    out.group = group
    out.mass = mass
    return out


def _kronecker(a: dict[int, int], b: dict[int, int], cap: int, m: int = 0) -> tuple[int, list[int]]:
    """Dense convolution of two int count vectors by Kronecker substitution.

    `a` and `b` map an integer (a residue on Z/m) to a positive count, and no
    entry of the result exceeds `cap`.  Returns (lo, counts) with counts[i]
    the total at lo + i; on Z/m, lo is 0 and the cyclic wrap is folded back.
    Each vector is packed into one big int at a whole number of bytes per
    slot, so one multiplication forms every product without carries between
    slots, and the result is read back by byte slices.
    """
    w = (cap.bit_length() + 7) // 8
    bases = (0, 0) if m else (min(a), min(b))
    packed = 1
    for vec, base in zip((a, b), bases):
        buf = bytearray(w * (max(vec) - base + 1))
        for x, n in vec.items():
            i = (x - base) * w
            buf[i:i + w] = n.to_bytes(w, "little")
        packed *= int.from_bytes(buf, "little")
    if m:
        # slot i + m lands on slot i; folded sums still fit, since all are <= cap
        shift = 8 * w * m
        packed = (packed & ((1 << shift) - 1)) + (packed >> shift)
    size = -(-packed.bit_length() // (8 * w)) * w
    buf = packed.to_bytes(size, "little")
    return sum(bases), [int.from_bytes(buf[i:i + w], "little") for i in range(0, size, w)]


def _sum_box(p: Dist, q: Dist) -> int:
    """Number of possible sums: side m on Z/m and span(p) + span(q) + 1 on Z."""
    box = 1
    for i, m in enumerate(p.group.moduli):
        if m == 0:
            m = sum(max(x[i] for x in r.mass) - min(x[i] for x in r.mass) for r in (p, q)) + 1
        box *= m
    return box


_DENSE_SLOTS_PER_PAIR = 4  # the Kronecker kernel runs while box <= this * |p| * |q|


def convolve(p: Dist, q: Dist, sign: str = "+") -> Dist:
    """Exact law of X ± Y for independent X ~ p, Y ~ q on the same group.

    Raises CapExceededError, before anything is built, when the support bound
    min(|p|·|q|, box of possible sums) exceeds SUPPORT_CAP.  On a rank-1 group
    the integer kernel `_kronecker` forms all sums at once; it costs one slot
    per possible sum, which is quadratic work for a wide sparse law, so a box
    beyond _DENSE_SLOTS_PER_PAIR slots per atom pair, and every group of
    higher rank, sums the count products pair by pair instead.
    """
    if p.group != q.group:
        raise IncompatibleGroupError("convolution needs a common ambient group")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    pairs, box = len(p) * len(q), _sum_box(p, q)
    if min(pairs, box) > SUPPORT_CAP:
        raise CapExceededError(f"convolution support may reach {min(pairs, box)}, cap {SUPPORT_CAP}")
    g = p.group
    dp, np_ = _common_denominator(p.mass)
    dq, nq = _common_denominator(q.mass)
    if sign == "-":
        nq = {g.neg(e): n for e, n in nq.items()}
    den = dp * dq
    if g.dim == 1 and box <= _DENSE_SLOTS_PER_PAIR * pairs:
        lo, counts = _kronecker({x: n for (x,), n in np_.items()},
                                {y: n for (y,), n in nq.items()}, den, g.moduli[0])
        atoms = [((lo + i,), n) for i, n in enumerate(counts) if n]
    else:
        acc: dict[Element, int] = {}
        for ex, nx in np_.items():
            for ey, ny in nq.items():
                s = g.add(ex, ey)
                acc[s] = acc.get(s, 0) + nx * ny
        atoms = sorted(acc.items())
    return _from_counts(g, den, atoms)


def iterated_convolve(p: Dist, k: int) -> Dist:
    """k-fold convolution power of p (k >= 1); `convolve` raises
    CapExceededError before a step whose support bound exceeds SUPPORT_CAP."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = p
    for _ in range(k - 1):
        out = convolve(out, p, "+")
    return out


def tv_distance(p: Dist, q: Dist) -> float:
    """Unnormalised total variation: sum of |p(x) - q(x)| (range [0, 2])."""
    if p.group != q.group:
        raise IncompatibleGroupError("total variation needs a common group")
    keys = set(p.mass) | set(q.mass)
    exact = sum(abs(p.mass.get(k, Fraction(0)) - q.mass.get(k, Fraction(0)))
                for k in keys)
    return float(exact)


# ---------------------------------------------------------------------------
# joints

Atom = tuple[Element, ...]


class JointDist:
    """Finitely supported joint law over a tuple of group-valued coordinates."""

    __slots__ = ("groups", "mass")

    def __init__(self, groups: Sequence[GroupSpec], mass: Mapping[Atom, Fraction]):
        groups = tuple(groups)
        if not groups:
            raise ValueError("a joint needs at least one coordinate")

        def reduce(atom):
            if len(atom) != len(groups):
                raise ValueError(
                    f"atom {atom} has {len(atom)} coordinates, expected {len(groups)}"
                )
            return tuple(g.reduce(x) for g, x in zip(groups, atom))

        self.mass = _normalise(mass, reduce)
        self.groups = groups

    @property
    def k(self) -> int:
        return len(self.groups)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, JointDist)
            and self.groups == other.groups
            and self.mass == other.mass
        )

    def __hash__(self):
        return hash((self.groups, tuple(self.mass.items())))

    def __iter__(self):
        return iter(self.mass.items())

    def __len__(self) -> int:
        return len(self.mass)

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
        return JointDist(
            [self.groups[c] for c in coords],
            push_masses(self.mass, lambda a: tuple(a[c] for c in coords)),
        )

    def dist(self, coord: int) -> Dist:
        (coord,) = self._check_coords([coord])
        return Dist(self.groups[coord], push_masses(self.mass, lambda a: a[coord]))

    def entropy(self) -> float:
        return math.fsum(f_nats(v) for v in self.mass.values())

    def push(
        self,
        fn: Callable[[Atom], Atom],
        groups: Sequence[GroupSpec],
    ) -> "JointDist":
        """Pushforward under an atom-wise map into new coordinates."""
        return JointDist(groups, push_masses(self.mass, fn))

    def sum_dist(self, coords: Sequence[int], signs: Sequence[int] | None = None) -> Dist:
        """Law of the signed sum of the selected coordinates (dependence kept)."""
        coords = self._check_coords(coords)
        g = self.groups[coords[0]]
        for c in coords:
            if self.groups[c] != g:
                raise IncompatibleGroupError("summed coordinates must share a group")
        if signs is None:
            signs = [1] * len(coords)

        def signed_sum(atom):
            s = g.zero()
            for c, sg in zip(coords, signs):
                t = atom[c] if sg > 0 else g.neg(atom[c])
                s = g.add(s, t)
            return s

        return Dist(g, push_masses(self.mass, signed_sum))

    def condition(self, coord: int, predicate: Callable[[Element], bool]) -> "JointDist":
        (coord,) = self._check_coords([coord])
        return JointDist(self.groups, _condition(self.mass, lambda a: predicate(a[coord])))


def independent_joint(*dists: Dist) -> JointDist:
    """Product joint of independent marginals."""
    if not dists:
        raise ValueError("need at least one marginal")
    atoms: dict[Atom, Fraction] = {(): Fraction(1)}  # type: ignore[dict-item]
    for d in dists:
        nxt: dict[Atom, Fraction] = {}
        for prefix, v in atoms.items():
            for e, w in d.mass.items():
                nxt[prefix + (e,)] = v * w
        atoms = nxt
    return JointDist([d.group for d in dists], atoms)


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
    return fibre_entropy(j.mass, lambda a: (tuple(a[c] for c in given), tuple(a[c] for c in target)))


def fibre_entropy(mass: Mapping, key: Callable) -> float:
    """Ent(T | G) for the law `mass` and key(atom) = (G value, T value).

    The masses are summed per key, then the exact fibre entropies averaged;
    fsum is correctly rounded, so order does not matter.
    """
    pairs = push_masses(mass, key)
    weights = push_masses(pairs, lambda k: k[0])
    fibres: dict[Atom, list] = {}
    for (gkey, _), v in pairs.items():
        fibres.setdefault(gkey, []).append(f_nats(v / weights[gkey]))
    return math.fsum(float(w) * math.fsum(fibres[gkey]) for gkey, w in weights.items())


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
    for atom, v in j.mass.items():
        blocks.setdefault(atom[pivot], []).append((tuple(atom[c] for c in rest), v))
    pivot_mass = push_masses(j.mass, lambda a: a[pivot])
    out: dict[Atom, Fraction] = {}
    for y, blk in blocks.items():
        py = pivot_mass[y]
        for x1, v1 in blk:
            for x2, v2 in blk:
                out[x1 + x2 + (y,)] = v1 * v2 / py
    groups = [j.groups[c] for c in rest] * 2 + [j.groups[pivot]]
    return JointDist(groups, out)


def is_independent(j: JointDist, coords_a: Sequence[int], coords_b: Sequence[int]) -> bool:
    """Exact rational test that two coordinate blocks are independent."""
    a = j.marginal(coords_a)
    b = j.marginal(coords_b)
    ab = j.marginal(tuple(coords_a) + tuple(coords_b))
    ka = len(tuple(coords_a))
    # every product atom has positive mass, so all of them must be in the support
    if len(ab) != len(a) * len(b):
        return False
    return all(v == a.mass[atom[:ka]] * b.mass[atom[ka:]] for atom, v in ab.mass.items())
