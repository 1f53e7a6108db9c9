"""Differential test of the piecewise-density convolution against its former body.

`_convolve_densities_reference` is `convolve_densities` as it was before the
closed-form expansion: it samples every piece pair's contribution at
deg + 1 interior points and recovers the polynomial by Lagrange
interpolation over Q.  It is kept here unchanged, with the polynomial helpers
and the per-piece entropy loop it used, as the reference.  Both paths are
exact, so breakpoints and coefficient tuples must be equal, trailing zeros
included.

`_binomial_atoms_reference` builds the sign walk's law from n + 1
`Fraction`s over 2**n, as `binomial_dist` and `_binomial_entropy` did before
they walked the binomial counts in ints; laws must be equal and entropies
bitwise equal.  The unit-step kernel checks its integral in ints, which a
corrupted knot must fail.

`_abbn_check_reference` is `abbn_check` as it was before unit steps were read
in ints: `PiecewiseDensity` -> `convolve_densities` (the closed form) ->
`_PiecewisePoly.entropy`.  Both sides must be bitwise equal,
by `.hex()`, and the witnesses equal.
"""

import concurrent.futures
import itertools
import math
import multiprocessing
import os
import random
from fractions import Fraction
from typing import Sequence

import pytest

from entsum import fuzz, torsionfree
from entsum.dists import Dist, f_nats
from entsum.groups import GroupSpec
from entsum.torsionfree import (
    PiecewiseDensity,
    _binomial_entropy,
    _entropy_affine_piece,
    _PiecewisePoly,
    abbn_check,
    binomial_dist,
    continuous_entropy,
    convolve_densities,
)

Poly = tuple[Fraction, ...]


def _poly_mul(a: Poly, b: Poly) -> Poly:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def _poly_add(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return tuple(
        (a[i] if i < len(a) else Fraction(0)) + (b[i] if i < len(b) else Fraction(0))
        for i in range(n)
    )


def _poly_integral(poly: Poly, lo: Fraction, hi: Fraction) -> Fraction:
    acc = Fraction(0)
    for i, c in enumerate(poly):
        acc += c * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1)
    return acc


def _binomial_atoms_reference(n: int) -> dict:
    den = 2**n
    return {(2 * k - n,): Fraction(math.comb(n, k), den) for k in range(n + 1)}


def _abbn_check_reference(f: PiecewiseDensity, g: PiecewiseDensity):
    """(lhs, rhs, witness) of Ent(S + T) >= (Ent(S) + Ent(T))/2 + (log 2)/2."""
    conv = convolve_densities(f, g)
    lhs = 0.5 * (continuous_entropy(f) + continuous_entropy(g)) + 0.5 * math.log(2)
    rhs = conv.entropy()
    return lhs, rhs, {
        "f": {"breaks": [str(b) for b in f.breakpoints],
              "pieces": [[str(a), str(b)] for a, b in f.pieces]},
        "g": {"breaks": [str(b) for b in g.breakpoints],
              "pieces": [[str(a), str(b)] for a, b in g.pieces]},
    }


def _lagrange(points: Sequence[tuple[Fraction, Fraction]]) -> Poly:
    poly: Poly = (Fraction(0),)
    for i, (xi, yi) in enumerate(points):
        term: Poly = (yi,)
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            term = _poly_mul(term, (-xj / (xi - xj), Fraction(1) / (xi - xj)))
        poly = _poly_add(poly, term)
    return poly


def _continuous_entropy_reference(f: PiecewiseDensity) -> float:
    """Differential entropy of a piecewise-affine density, in closed form."""
    return math.fsum(
        _entropy_affine_piece(a, b, t0, t1)
        for (a, b), t0, t1 in zip(f.pieces, f.breakpoints, f.breakpoints[1:])
    )


def _convolve_densities_reference(f: PiecewiseDensity, g: PiecewiseDensity) -> _PiecewisePoly:
    """Exact convolution density of two independent piecewise-affine laws.

    Per piece pair the contribution is polynomial between the four breakpoint
    sums; each polynomial is recovered exactly from rational samples.
    """
    contribs: list[tuple[Fraction, Fraction, Poly]] = []
    fpolys = f._polys()
    gpolys = g._polys()

    def conv_at(fp: Poly, gp: Poly, p0, p1, q0, q1, t: Fraction) -> Fraction:
        lo = max(p0, t - q1)
        hi = min(p1, t - q0)
        if hi <= lo:
            return Fraction(0)
        # integrand fp(s) * gp(t - s) as a polynomial in s
        gshift: Poly = (Fraction(0),)
        pw: Poly = (Fraction(1),)
        for c in gp:
            gshift = _poly_add(gshift, tuple(c * x for x in pw))
            pw = _poly_mul(pw, (t, Fraction(-1)))
        return _poly_integral(_poly_mul(fp, gshift), lo, hi)

    for (fp, p0, p1) in zip(fpolys, f.breakpoints, f.breakpoints[1:]):
        for (gp, q0, q1) in zip(gpolys, g.breakpoints, g.breakpoints[1:]):
            corners = sorted({p0 + q0, p0 + q1, p1 + q0, p1 + q1})
            deg = (len(fp) - 1) + (len(gp) - 1) + 1
            for lo, hi in zip(corners, corners[1:]):
                # sample deg+1 interior points and interpolate exactly
                pts = []
                for i in range(deg + 1):
                    t = lo + (hi - lo) * Fraction(2 * i + 1, 2 * (deg + 1))
                    pts.append((t, conv_at(fp, gp, p0, p1, q0, q1, t)))
                poly = _lagrange(pts)
                if any(c != 0 for c in poly):
                    contribs.append((lo, hi, poly))

    if not contribs:
        raise ArithmeticError("empty convolution")
    breaks = sorted({b for lo, hi, _ in contribs for b in (lo, hi)})
    polys = []
    for lo, hi in zip(breaks, breaks[1:]):
        acc: Poly = (Fraction(0),)
        for clo, chi, poly in contribs:
            if clo <= lo and hi <= chi:
                acc = _poly_add(acc, poly)
        polys.append(acc)
    out = _PiecewisePoly(tuple(breaks), tuple(polys))
    if out.integral() != 1:
        raise ArithmeticError(f"convolution integral is {out.integral()}, expected 1")
    return out


# ---------------------------------------------------------------------------
# inputs


def _step_density(step) -> PiecewiseDensity:
    first, den, counts = step
    return PiecewiseDensity(range(first, first + len(counts) + 1),
                            [(Fraction(n, den), 0) for n in counts.values()])


def _fuzz_steps(seed: int, count: int) -> list:
    """The (report, f step, g step) the fuzz `abbn` check makes for the first
    `count` indices, each step as drawn: (first break, den, {i: count})."""
    out = []

    def capture(f, g):
        out.append((torsionfree._unit_abbn(f, g), f, g))
        return out[-1][0]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fuzz, "_unit_abbn", capture)
        for index in range(count):
            reports = fuzz._check_abbn(random.Random(fuzz._child_seed(seed, "abbn", index)), fuzz.FuzzConfig())
            assert reports == [out[-1][0]]
    assert len(out) == count
    return out


def _fuzz_step_pairs(seed: int, count: int) -> list:
    """The (f, g) pairs the fuzz `abbn` check draws for the first `count` indices."""
    pairs = [(_step_density(f), _step_density(g)) for _, f, g in _fuzz_steps(seed, count)]
    assert len(pairs) == count
    return pairs


def _rand_affine(rng: random.Random, breaks: Sequence[Fraction]) -> PiecewiseDensity:
    """A density that is affine on each [breaks[i], breaks[i+1]), with
    independent rational end values per piece, some of them zero."""
    ends = []
    for _ in breaks[1:]:
        u0, u1 = (Fraction(rng.choice([0, rng.randrange(1, 9)]), rng.randrange(1, 6))
                  for _ in range(2))
        ends.append((u0, u1) if u0 + u1 else (Fraction(1), u1))
    total = sum((u0 + u1) * (t1 - t0) / 2 for (u0, u1), t0, t1 in zip(ends, breaks, breaks[1:]))
    pieces = []
    for (u0, u1), t0, t1 in zip(ends, breaks, breaks[1:]):
        b = (u1 - u0) / (t1 - t0) / total
        pieces.append((u0 / total - b * t0, b))
    return PiecewiseDensity(breaks, pieces)


def _rand_breaks(rng: random.Random, lo: Fraction, hi: Fraction) -> list[Fraction]:
    den = rng.randrange(1, 7)
    inner = {lo + (hi - lo) * Fraction(rng.randrange(1, 4 * den), 4 * den)
             for _ in range(rng.randrange(0, 3))}
    return sorted({lo, hi} | inner)


def _rand_step(rng: random.Random, breaks: Sequence[Fraction]) -> PiecewiseDensity:
    weights = [Fraction(rng.randrange(0, 5), 1) for _ in breaks[1:]]
    weights[rng.randrange(len(weights))] += 1
    total = sum(w * (t1 - t0) for w, t0, t1 in zip(weights, breaks, breaks[1:]))
    return PiecewiseDensity(breaks, [(w / total, 0) for w in weights])


def _support_pairs(rng: random.Random) -> list:
    """Supports of f and g that touch, overlap, nest, coincide or have equal widths."""
    a = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
    w = Fraction(rng.randrange(1, 9), rng.randrange(1, 4))
    v = Fraction(rng.randrange(1, 9), rng.randrange(1, 4))
    return [
        ((a, a + w), (a + w, a + w + v)),  # touching
        ((a, a + w), (a + w / 2, a + w / 2 + v)),  # overlapping
        ((a, a + w + v), (a + w / 3, a + w / 3 + v)),  # nested
        ((a, a + w), (a, a + w)),  # equal
        ((a, a + w), (a - 5, a - 5 + w)),  # equal widths, disjoint
    ]


# ---------------------------------------------------------------------------
# tests


def _assert_same(f: PiecewiseDensity, g: PiecewiseDensity) -> None:
    new = convolve_densities(f, g)
    old = _convolve_densities_reference(f, g)
    assert new.breakpoints == old.breakpoints
    assert new.polys == old.polys
    assert all(isinstance(c, Fraction) for poly in new.polys for c in poly)


def test_fuzz_step_pairs_match_reference():
    pairs = _fuzz_step_pairs(1, 100) + _fuzz_step_pairs(7, 100)
    assert len(pairs) == 200
    for f, g in pairs:
        _assert_same(f, g)


def test_affine_pairs_match_reference():
    rng = random.Random(2024)
    count = 0
    for _ in range(12):
        for (f0, f1), (g0, g1) in _support_pairs(rng):
            f = _rand_affine(rng, _rand_breaks(rng, f0, f1))
            g = _rand_affine(rng, _rand_breaks(rng, g0, g1))
            _assert_same(f, g)
            _assert_same(g, f)
            count += 1
    assert count == 60


def test_mixed_pairs_match_reference():
    rng = random.Random(99)
    for _ in range(6):
        for (f0, f1), (g0, g1) in _support_pairs(rng):
            f = _rand_step(rng, _rand_breaks(rng, f0, f1))
            g = _rand_affine(rng, _rand_breaks(rng, g0, g1))
            _assert_same(f, g)
            _assert_same(g, f)


def test_continuous_entropy_matches_reference():
    rng = random.Random(5)
    dens = [f for pair in _fuzz_step_pairs(3, 40) for f in pair]
    for _ in range(8):
        for (f0, f1), (g0, g1) in _support_pairs(rng):
            dens.append(_rand_affine(rng, _rand_breaks(rng, f0, f1)))
            dens.append(_rand_step(rng, _rand_breaks(rng, g0, g1)))
    for f in dens:
        assert continuous_entropy(f) == _continuous_entropy_reference(f)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 255, 1024])
def test_binomial_walk_matches_reference(n):
    ref = _binomial_atoms_reference(n)
    law, old = binomial_dist(n), Dist(GroupSpec([0]), ref)
    assert law == old and hash(law) == hash(old)
    assert _binomial_entropy(n).hex() == math.fsum(f_nats(v) for v in ref.values()).hex()


def test_unit_step_integral_check_catches_corrupted_knots(monkeypatch):
    f, g = (torsionfree._unit_steps(h) for h in _fuzz_step_pairs(5, 1)[0])
    torsionfree._unit_abbn(f, g)
    kronecker = torsionfree._Kronecker

    for corrupt in (lambda c: c[:-1] + [c[-1] + 1], lambda c: [c[0] - 1] + c[1:]):
        class Corrupted(kronecker):
            def read(self, packed, corrupt=corrupt):
                return corrupt(super().read(packed))

        monkeypatch.setattr(torsionfree, "_Kronecker", Corrupted)
        with pytest.raises(ArithmeticError, match="integral"):
            torsionfree._unit_abbn(f, g)


def _assert_abbn_matches(rep, f: PiecewiseDensity, g: PiecewiseDensity) -> None:
    lhs, rhs, witness = _abbn_check_reference(f, g)
    assert rep.name == "continuous_sum_lower_bound"
    assert (rep.lhs.hex(), rep.rhs.hex()) == (lhs.hex(), rhs.hex())
    assert rep.witness == witness


def _fuzz_seed_matches_reference(seed: int) -> int:
    """Compare the fuzz check's first 100 draws under `seed` with the reference;
    returns how many were compared, and a mismatch names the seed."""
    count = 0
    for rep, f, g in _fuzz_steps(seed, 100):
        try:
            _assert_abbn_matches(rep, _step_density(f), _step_density(g))
        except AssertionError as exc:
            raise AssertionError(f"seed {seed}, draw {count}: {exc}") from None
        count += 1
    return count


def test_fuzz_abbn_matches_reference():
    # 2,000 draws of the fuzz check, as it runs them, against today's path; the
    # seeds are independent, so a 2-process pool shares them, and a failed
    # assertion is raised here
    ctx = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(max_workers=min(2, os.cpu_count() or 1), mp_context=ctx) as pool:
        assert sum(pool.map(_fuzz_seed_matches_reference, range(20))) == 2000


def test_fuzz_abbn_builds_no_fraction(monkeypatch):
    def refuse(cls, *args, **kwargs):
        raise AssertionError("the fuzz abbn check built a Fraction")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    for index in range(100):
        fuzz._check_abbn(random.Random(fuzz._child_seed(1, "abbn", index)), fuzz.FuzzConfig())


def test_criterion_08_abbn_pairs_match_reference():
    # the 200 seeded pairs of criterion 8, through the public abbn_check
    for i in range(200):
        srng = random.Random(9000 + i)

        def rand_step():
            pieces = srng.randrange(1, 6)
            den = srng.randrange(pieces, 64 + pieces)
            cuts = sorted(srng.sample(range(1, den), pieces - 1)) if pieces > 1 else []
            edges = [0] + cuts + [den]
            lo = srng.randrange(-4, 5)
            return PiecewiseDensity(range(lo, lo + pieces + 1),
                                    [(Fraction(b - a, den), 0) for a, b in zip(edges, edges[1:])])

        f, g = rand_step(), rand_step()
        _assert_abbn_matches(abbn_check(f, g), f, g)


def _unit(first: int, den: int, parts) -> PiecewiseDensity:
    return _step_density((first, den, dict(enumerate(parts))))


UNIT_STEPS = [
    _unit(0, 6, [2, 4]),  # parts sharing a factor with den
    _unit(-3, 12, [3, 6, 3]),
    _unit(2, 10, [5, 5]),
    _unit(0, 1, [1]),  # one piece
    _unit(7, 1, [1]),
    PiecewiseDensity.uniform(-2, -1),
    _unit(0, 64, [1, 62, 1]),
    _unit(0, 63, [21, 7, 14, 9, 12]).translate(5),  # translated breaks
    _unit(1, 5, [1, 2, 2]).translate(-4),
]


def test_public_abbn_on_unit_steps_matches_reference(monkeypatch):
    calls = []
    kernel = torsionfree._unit_abbn
    monkeypatch.setattr(torsionfree, "_unit_abbn", lambda f, g: calls.append(1) or kernel(f, g))
    for f, g in itertools.product(UNIT_STEPS, repeat=2):
        _assert_abbn_matches(abbn_check(f, g), f, g)
    assert len(calls) == len(UNIT_STEPS) ** 2


def test_public_abbn_off_the_unit_grid_takes_closed_form(monkeypatch):
    def refuse(f, g):
        raise AssertionError("the int kernel took a pair off the unit grid")

    monkeypatch.setattr(torsionfree, "_unit_abbn", refuse)
    u = PiecewiseDensity.uniform(0, 1)
    others = [
        PiecewiseDensity([0, 1, 2, 3], [(Fraction(1, 2), 0), (0, 0), (Fraction(1, 2), 0)]),  # zero height
        PiecewiseDensity([0, Fraction(1, 2), 2], [(1, 0), (Fraction(1, 3), 0)]),  # rational breaks
        PiecewiseDensity.uniform(Fraction(1, 3), Fraction(4, 3)),  # one rational translate
        PiecewiseDensity([0, 1, 2], [(0, 1), (2, -1)]),  # a hat
    ]
    for f in others:
        for pair in ((f, u), (u, f), (f, f)):
            _assert_abbn_matches(abbn_check(*pair), *pair)


@pytest.mark.parametrize("counts", [{0: 3, 1: 2}, {0: -1, 1: 7}, {0: 2, 1: 0, 2: 4}])
def test_unit_abbn_rejects_bad_counts(counts):
    # a wrong total or a negative height fails PiecewiseDensity too; a zero
    # height is valid there, but such a step is off the unit grid
    if min(counts.values()) < 0 or sum(counts.values()) != 6:
        with pytest.raises(ValueError):
            PiecewiseDensity(range(len(counts) + 1), [(Fraction(n, 6), 0) for n in counts.values()])
    with pytest.raises(ValueError, match="positive and sum"):
        torsionfree._unit_abbn((0, 6, counts), (0, 1, {0: 1}))
