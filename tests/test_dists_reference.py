"""Differential test of `convolve` against its former pair-loop body.

`_convolve_reference` is `convolve` as it was before the integer kernel: it
sums the products of integer counts pair by pair with `GroupSpec.add` and
builds the result through `Dist.__init__`, whose normaliser re-sums and sorts
the `Fraction` masses.  It is kept here unchanged, with the common-denominator
helper it used, as the reference.  Both paths are exact, so the laws must be
equal, atom order included, and their entropies bitwise equal.

`_iterated_convolve_reference` is `iterated_convolve` as it was before the
Kronecker power: k - 1 calls of `convolve`.  It is the reference for the
power path, which must give equal laws and raise `CapExceededError` exactly
where the loop does.

`_KroneckerReference` is the packed-product kernel `dists._Kronecker` as it
was before word-sized slots: each slot the fewest whole bytes that hold the
cap, written by one `to_bytes` per count and read back by one `from_bytes`
per slot.  The kernel must read every packed vector as it does.
"""

import itertools
import math
import random
import time
from fractions import Fraction
from typing import Mapping, Sequence

import pytest

from entsum import dists
from entsum.dists import Dist, convolve, entropy
from entsum.errors import CapExceededError, IncompatibleGroupError
from entsum.fuzz import random_dist
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


def _iterated_convolve_reference(p: Dist, k: int) -> Dist:
    """k-fold convolution power of p (k >= 1); `convolve` raises
    CapExceededError before a step whose support bound exceeds SUPPORT_CAP."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = p
    for _ in range(k - 1):
        out = convolve(out, p, "+")
    return out


# ---------------------------------------------------------------------------
# seeded laws

Z = GroupSpec([0])
GROUPS = {
    "Z": Z,
    "Z/8": GroupSpec([8]),
    "Z/2xZ/4": GroupSpec([2, 4]),
    "Z^2": GroupSpec([0, 0]),
    "ZxZ/3": GroupSpec([0, 3]),
    "Z/2xZ/2xZ/3": GroupSpec([2, 2, 3]),
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


@pytest.mark.parametrize("packs, words", [(False, True), (None, True), (True, True), (True, False)],
                         ids=["pair-loop", "default", "dense", "dense-byte-slices"])
def test_seeded_laws_match_reference(monkeypatch, packs, words):
    # False sends every pair of laws through the pair loop, True through the
    # packed product on every group; None keeps the cost rule.  Without
    # words, every packed slot moves by byte slices
    if packs is not None:
        monkeypatch.setattr(dists, "_packs", lambda *args, **kw: packs)
    if not words:
        monkeypatch.setattr(dists, "_WORDS", {})
    for _, p, q, sign in _corpus(1, 400):
        _assert_same(p, q, sign)


def test_fuzz_like_laws_take_the_pair_loop(monkeypatch):
    # laws of at most 6 atoms, as the fuzz checks draw them, have at most 36
    # atom pairs, too few to pay for a packed product on Z or Z/8
    def never(*args):
        raise AssertionError("packed a fuzz-like product")

    monkeypatch.setattr(dists, "_Kronecker", never)
    rng = random.Random(3)
    groups = (Z, GroupSpec([8]))
    for i in range(600):
        g = groups[i % 2]
        p, q = random_dist(rng, g, 6, 64), random_dist(rng, g, 6, 64)
        _assert_same(p, q, "+")


def test_dense_pair_on_z64_packs(monkeypatch):
    # 16 x 16 atom pairs on Z/64 fill 127 padded slots: packed
    built = []
    kronecker = dists._Kronecker
    monkeypatch.setattr(dists, "_Kronecker", lambda *args: built.append(args) or kronecker(*args))
    rng = random.Random(16)
    g = GroupSpec([64])
    p, q = (Dist.uniform(g, [(e,) for e in rng.sample(range(64), 16)]) for _ in range(2))
    _assert_same(p, q, "+")
    assert [sides for _, sides, _ in built] == [[127]]


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


# ---------------------------------------------------------------------------
# convolution powers


@pytest.fixture
def loop_steps(monkeypatch):
    """Counts the `convolve` calls that `iterated_convolve` makes: none on the
    Kronecker power, k - 1 on the loop (the reference calls its own import)."""
    calls = [0]

    def counted(*args, _convolve=dists.convolve):
        calls[0] += 1
        return _convolve(*args)

    monkeypatch.setattr(dists, "convolve", counted)
    return calls


def _assert_power(p: Dist, k: int) -> Dist:
    new, old = dists.iterated_convolve(p, k), _iterated_convolve_reference(p, k)
    assert new == old and hash(new) == hash(old)
    assert list(new.counts) == list(old.counts)
    assert entropy(new).hex() == entropy(old).hex()
    return new


def test_powers_match_the_loop_on_seeded_laws(loop_steps):
    rng = random.Random(4)
    looped = {}
    groups = (Z, GroupSpec([8]), GroupSpec([4, 4]), GroupSpec([0, 3]))
    for g in groups:
        for _ in range(60):
            p = _law(rng, g, rng.randrange(1, 7), rng.choice([2, 64, 2**20, 2**64]), reach=rng.choice([2, 8, 1000]))
            before, k = loop_steps[0], rng.randrange(1, 9)
            _assert_power(p, k)
            if k > 1:
                looped.setdefault(g, set()).add(loop_steps[0] > before)
    # every group takes both paths, whatever its rank
    assert looped == {g: {True, False} for g in groups}


def test_power_path_edge_cases(loop_steps):
    negative = Dist(Z, {(-7,): Fraction(1, 3), (-5,): Fraction(1, 6), (-2,): Fraction(1, 2)})
    full = Dist.uniform(GroupSpec([8]), [(i,) for i in range(8)])
    skewed = Dist(GroupSpec([8]), {(0,): Fraction(5, 7), (3,): Fraction(1, 7), (7,): Fraction(1, 7)})
    point = Dist.point(Z, (-3,))
    # on Z/8, k = 6 and 9 give 43 and 64 packed slots: the fold wraps five and seven times
    for p, k in ((negative, 5), (full, 6), (skewed, 9), (point, 7)):
        _assert_power(p, k)
    assert loop_steps == [0]
    assert dists.iterated_convolve(negative, 5).support()[0] == (-35,)
    assert dists.iterated_convolve(point, 3) == Dist.point(Z, (-9,))
    # a point on Z/8 fills one slot of 8, below the density rule
    _assert_power(Dist.point(GroupSpec([8]), (5,)), 4)
    assert loop_steps == [3]


def test_power_path_stops_at_the_support_cap(monkeypatch, loop_steps):
    p = Dist.uniform(Z, [(i,) for i in range(4)])  # k = 3: box 10, the last step 7 × 4 pairs
    monkeypatch.setattr(dists, "SUPPORT_CAP", 10)
    _assert_power(p, 3)
    assert loop_steps == [0]
    monkeypatch.setattr(dists, "SUPPORT_CAP", 9)
    errors = []
    for build in (dists.iterated_convolve, _iterated_convolve_reference):
        with pytest.raises(CapExceededError) as exc:
            build(p, 3)
        errors.append(str(exc.value))
    # both raise at the second step, with the same support bound
    assert errors[0] == errors[1] == "convolution support may reach 10, cap 9"
    assert loop_steps == [2]


def test_sparse_power_takes_the_loop(loop_steps):
    # the box of {0, 30000}^{*6} holds 180,001 slots; the loop pairs at most 40 atoms
    p = Dist.uniform(Z, [(0,), (30000,)])
    assert len(_assert_power(p, 6)) == 7
    assert loop_steps == [5]


def test_wide_power_with_a_sparse_square_takes_the_loop(loop_steps):
    # p * p would pack 2601 slots for 25 pairs, so the 7-fold power, 9101
    # slots of 448 bits, is not packed either
    den = 2**64 + 13
    p = Dist._with_counts(Z, den, {(0,): 1, (300,): 2, (700,): 3, (1000,): 4, (1300,): den - 10})
    _assert_power(p, 7)
    assert loop_steps == [6]


def _never(*args):
    raise AssertionError("packed a sparse product")


def test_padded_slots_gate_the_packed_power(monkeypatch, loop_steps):
    # on (Z/2)^r a 10-fold power has a box of 2^r sums, but packing it would
    # take 11 digits per axis, 11^r slots: the uniform law on (Z/2)^8 loops,
    # as does a 2-atom law on (Z/2)^10, whose square is sparse too
    kronecker = dists._Kronecker

    def step_sized(mods, sides, cap):  # a step of the loop packs 3 digits per axis
        assert set(sides) == {3}, "packed the power"
        return kronecker(mods, sides, cap)

    monkeypatch.setattr(dists, "_Kronecker", step_sized)
    u = Dist.uniform(GroupSpec([2] * 8), list(GroupSpec([2] * 8).elements()))
    assert _assert_power(u, 10) == u
    assert loop_steps == [9]
    g = GroupSpec([2] * 10)
    p = Dist.uniform(g, [(0,) * 10, (1,) * 10])
    assert len(_assert_power(p, 10)) == 2
    assert loop_steps == [18]


def test_padded_slots_gate_the_packed_product(monkeypatch):
    # two 40-atom laws on (Z/2)^11: 1600 pairs for a box of 2^11 sums, but
    # 3^11 packed slots, so the pairs are summed one by one
    rng = random.Random(11)
    g = GroupSpec([2] * 11)
    p, q = (Dist.uniform(g, rng.sample(list(g.elements()), 40)) for _ in range(2))
    monkeypatch.setattr(dists, "_Kronecker", _never)
    assert convolve(p, q) == _convolve_reference(p, q)


# ---------------------------------------------------------------------------
# slot I/O of the packed products


class _KroneckerReference:
    """`dists._Kronecker` before word-sized slots, unchanged."""

    def __init__(self, mods: Sequence[int], sides: Sequence[int], cap: int):
        self.w = w = (cap.bit_length() + 7) // 8
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
        return [int.from_bytes(buf[i:i + w], "little") for i in range(0, size, w)]


# Z; Z/5 with 13 digits, folded twice; Z/3 with 5 digits times Z
SLOT_BOXES = [((0,), (12,)), ((5,), (13,)), ((3, 0), (5, 4))]


def _folded_counts(rng: random.Random, mods, sides, cap: int) -> tuple[dict, list]:
    """Counts keyed by every slot of the box, zeros and trailing zeros
    included, and the folded vector up to its last nonzero slot: each folded
    sum is 0, `cap` or drawn up to `cap`, and the one at slot 0 is `cap` in
    a single slot."""
    strides = [math.prod(sides[i + 1:]) for i in range(len(sides))]
    preimages: dict = {}
    for digits in itertools.product(*map(range, sides)):
        slot = sum(map(int.__mul__, digits, strides))
        folded = sum((d % m if m else d) * t for d, m, t in zip(digits, mods, strides))
        preimages.setdefault(folded, []).append(slot)
    counts = dict.fromkeys(range(math.prod(sides)), 0)
    vector = [0] * math.prod(sides)
    for folded, slots in preimages.items():
        total = cap if folded == 0 else rng.choice([0, cap, rng.randrange(cap + 1)])
        vector[folded] = total
        cuts = sorted(rng.randrange(total + 1) for _ in slots[1:]) if folded else []
        for slot, a, b in zip(slots, [0, *cuts], [*cuts, total]):
            counts[slot] = b - a
    while vector and not vector[-1]:
        vector.pop()
    return counts, vector


@pytest.mark.parametrize("words", [True, False], ids=["words", "byte-slices"])
def test_slot_io_matches_byte_slices(monkeypatch, words):
    # caps of every bit length from 1 to 72: slots of 1 to 9 bytes, as words
    # (rounded up to 1, 2, 4 or 8 bytes) up to 8 bytes and by byte slices above
    if not words:
        monkeypatch.setattr(dists, "_WORDS", {})
    rng = random.Random(72)
    widths = set()
    for bits in range(1, 73):
        for cap in (1 << bits) - 1, rng.randrange(1 << (bits - 1), 1 << bits):
            for mods, sides in SLOT_BOXES:
                new, old = dists._Kronecker(mods, sides, cap), _KroneckerReference(mods, sides, cap)
                assert new.strides == old.strides
                widths.add((new.w, new._code is not None))
                for _ in range(3):
                    counts, vector = _folded_counts(rng, mods, sides, cap)
                    assert new.read(new.pack(counts)) == old.read(old.pack(counts)) == vector
    if words and dists._WORDS:
        assert widths == {(1, True), (2, True), (4, True), (8, True), (9, False)}
    else:
        assert widths == {(w, False) for w in range(1, 10)}
