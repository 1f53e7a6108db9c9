"""Torsion-free experiments: binomial entropy asymptotics, the discrete to
continuous entropy bridge, exact piecewise-density convolution, and the
Fourier search for smooth shift directions.

Densities are piecewise affine with exact rational coefficients; convolving
two of them is computed exactly as a piecewise polynomial (degree at most
deg f + deg g + 1) by a closed-form binomial expansion over Q.  Entropy of
affine pieces has a closed form; higher-degree pieces fall back to certified
adaptive quadrature.  Positive steps on unit intervals convolve to a hat with
int knots, from which `abbn_check` and the `abbn` fuzz check read both sides.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple, Sequence

from .dists import Dist, _f_count, _Kronecker, _normalise, convolve, entropy, f_nats, tv_distance
from .errors import CapExceededError, PreconditionError, SearchExhaustedError
from .groups import GroupSpec
from .metrics import MetricReport

BINOMIAL_CAP = 4096
QUAD_TOL = 1e-9  # bound on the summed quadrature error estimates
SHIFT_GROUP_CAP = 300_000  # largest embedding group smooth_shift_search transforms


# ---------------------------------------------------------------------------
# binomial walks


def _binomial_atoms(n: int) -> dict:
    """Counts C(n, k) over den 2**n at 2k - n, by C(n, k + 1) = C(n, k)(n - k) // (k + 1)."""
    atoms, c = {}, 1
    for k in range(n + 1):
        atoms[(2 * k - n,)] = c
        c = c * (n - k) // (k + 1)
    return atoms


def binomial_dist(n: int) -> Dist:
    """Law of the sum of n independent fair +-1 signs, on Z with spacing 2."""
    if n < 1:
        raise PreconditionError(f"n must be >= 1, got {n}")
    if n > BINOMIAL_CAP:
        raise CapExceededError(f"binomial cap {BINOMIAL_CAP} exceeded: n={n}")
    return Dist._with_counts(GroupSpec([0]), 2**n, _binomial_atoms(n))


def _binomial_entropy(n: int) -> float:
    den = 2**n
    return math.fsum(_f_count(c, den) for c in _binomial_atoms(n).values())


def binomial_entropy_gap(n: int) -> float:
    """Entropy of the n-step sign walk minus its Gaussian lattice reference.

    The walk is a bijective relabeling of a Binomial(n, 1/2) count, so the
    reference is the entropy of a unit-lattice Gaussian with the matching
    variance n/4, i.e. (1/2) log(2 pi e n / 4).  The gap tends to 0 like
    O(1/n).
    """
    if n < 2:
        raise PreconditionError(f"n must be >= 2, got {n}")
    if n > BINOMIAL_CAP:
        raise CapExceededError(f"binomial cap {BINOMIAL_CAP} exceeded: n={n}")
    reference = 0.5 * math.log(2.0 * math.pi * math.e * n / 4.0)
    return _binomial_entropy(n) - reference


def doubling_experiment(n: int) -> float:
    """Doubling constant of the n-step walk via the identity X_n + X'_n ≡ X_2n."""
    if n < 1:
        raise PreconditionError(f"n must be >= 1, got {n}")
    if n > 2048:
        raise CapExceededError(f"doubling experiment cap 2048 exceeded: n={n}")
    return math.exp(_binomial_entropy(2 * n) - _binomial_entropy(n))


def entxx_explore(n: int, k: int) -> float:
    """Exploratory gap Ent(S_{k+1}) - Ent(S_k) - log sqrt((k+1)/k) for sums of
    k copies of the n-step walk; reported, never asserted."""
    if n < 1:
        raise PreconditionError(f"n must be >= 1, got {n}")
    if k < 1 or k > 8:
        raise PreconditionError("k must be in 1..8")
    if n * k > 8192:
        raise PreconditionError(f"n*k = {n * k} exceeds cap 8192")
    return (
        _binomial_entropy(n * (k + 1))
        - _binomial_entropy(n * k)
        - 0.5 * math.log((k + 1) / k)
    )


def mod_fiber_decomposition(p: Dist, m: int) -> tuple[Dist, dict[int, Dist]]:
    """Fiber a Z-valued law by W = X mod m; fibres are (X - w)/m laws.

    The chain rule Ent(X) = Ent(W) + sum_w p_W(w) Ent(X_w) holds exactly
    because (W, X_w) determines X bijectively.
    """
    if p.group.moduli != (0,):
        raise PreconditionError("fibering needs a rank-1 Z-valued law")
    if m < 1:
        raise PreconditionError(f"m must be >= 1, got {m}")
    z = GroupSpec([0])
    zm = GroupSpec([m])
    w_counts: dict = {}
    fibres: dict[int, dict] = {}
    for (x,), n in p.counts.items():
        w = x % m
        w_counts[(w,)] = w_counts.get((w,), 0) + n
        fibres.setdefault(w, {})[((x - w) // m,)] = n
    # each fibre's counts sum to its W count, so it sits over that count
    out = {w: Dist._with_counts(z, w_counts[(w,)], atoms) for w, atoms in fibres.items()}
    return Dist._with_counts(zm, p.den, w_counts), out


# ---------------------------------------------------------------------------
# piecewise densities

Poly = tuple[Fraction, ...]  # coefficients, lowest degree first


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
    if not any(poly[1:]):  # a constant piece
        return poly[0] * (hi - lo)
    acc = Fraction(0)
    for i, c in enumerate(poly):
        acc += c * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1)
    return acc


class PiecewiseDensity(NamedTuple("PiecewiseDensity", [
        ("breakpoints", tuple[Fraction, ...]), ("pieces", tuple[tuple[Fraction, Fraction], ...])])):
    """Probability density that is affine on each piece of a rational partition.

    Pieces are (a, b) meaning density a + b*t on [breakpoints[i],
    breakpoints[i+1]); the density is zero outside.  Non-negativity and unit
    total integral are checked exactly.  Immutable, and equal, hashed and
    pickled by its two fields.
    """

    __slots__ = ()

    def __new__(cls, breakpoints, pieces):
        bps = tuple(Fraction(b) for b in breakpoints)
        pcs = tuple((Fraction(a), Fraction(b)) for a, b in pieces)
        if len(bps) != len(pcs) + 1:
            raise ValueError("need exactly one more breakpoint than pieces")
        if any(t1 <= t0 for t0, t1 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        total = Fraction(0)
        for (a, b), t0, t1 in zip(pcs, bps, bps[1:]):
            if a + b * t0 < 0 or a + b * t1 < 0:
                raise ValueError("density must be non-negative")
            total += _poly_integral((a, b), t0, t1)
        if total != 1:
            raise ValueError(f"total integral is {total}, expected exactly 1")
        return super().__new__(cls, bps, pcs)

    @staticmethod
    def uniform(lo, hi) -> "PiecewiseDensity":
        lo, hi = Fraction(lo), Fraction(hi)
        if hi <= lo:
            raise ValueError("breakpoints must be strictly increasing")
        return PiecewiseDensity([lo, hi], [(Fraction(1, 1) / (hi - lo), 0)])

    def translate(self, c) -> "PiecewiseDensity":
        c = Fraction(c)
        return PiecewiseDensity(
            [t + c for t in self.breakpoints],
            [(a - b * c, b) for a, b in self.pieces],
        )

    def _polys(self) -> list[Poly]:
        return [(a, b) if b != 0 else (a,) for a, b in self.pieces]


def _anti(u: float) -> float:
    """Antiderivative of -u log u, 0 for u <= 0."""
    if u <= 0.0:
        return 0.0
    return u * u * 0.25 - 0.5 * u * u * math.log(u)


def _entropy_affine_piece(a: Fraction, b: Fraction, t0: Fraction, t1: Fraction) -> float:
    """Closed-form integral of F(a + b t) over [t0, t1]."""
    if b == 0:
        return float(t1 - t0) * f_nats(a)
    return (_anti(float(a + b * t1)) - _anti(float(a + b * t0))) / float(b)


def continuous_entropy(f: PiecewiseDensity) -> float:
    """Differential entropy of a piecewise-affine density, in closed form."""
    return _PiecewisePoly(f.breakpoints, f._polys()).entropy()


class _PiecewisePoly(NamedTuple):
    breakpoints: tuple[Fraction, ...]
    polys: tuple[Poly, ...]

    def integral(self) -> Fraction:
        return sum(
            (_poly_integral(p, t0, t1)
             for p, t0, t1 in zip(self.polys, self.breakpoints, self.breakpoints[1:])),
            Fraction(0),
        )

    def entropy(self) -> float:
        """Entropy with closed forms for degree <= 1, quadrature above.

        Degree >= 2 pieces use tanh-sinh quadrature, which absorbs the
        logarithmic endpoint singularities where the density vanishes; the
        run aborts if the summed error estimates exceed the tolerance.
        """
        terms = []
        err_total = 0.0
        for poly, t0, t1 in zip(self.polys, self.breakpoints, self.breakpoints[1:]):
            poly = tuple(poly)
            while len(poly) > 1 and poly[-1] == 0:
                poly = poly[:-1]
            if len(poly) <= 2:
                a = poly[0]
                b = poly[1] if len(poly) == 2 else Fraction(0)
                terms.append(_entropy_affine_piece(a, b, t0, t1))
                continue
            import mpmath  # loaded on first quadrature, not with the package

            coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in poly]

            def integrand(t, coeffs=coeffs):
                u = mpmath.mpf(0)
                for c in reversed(coeffs):
                    u = u * t + c
                return -u * mpmath.log(u) if u > 0 else mpmath.mpf(0)

            val, err = mpmath.quad(
                integrand, [mpmath.mpf(t0.numerator) / t0.denominator,
                            mpmath.mpf(t1.numerator) / t1.denominator],
                error=True,
            )
            err_total += float(err)
            terms.append(float(val))
        if err_total > QUAD_TOL:
            raise ArithmeticError(
                f"quadrature error estimate {err_total} exceeds tolerance {QUAD_TOL}"
            )
        return math.fsum(terms)


_UnitSteps = tuple[int, int, dict[int, int]]


def _unit_steps(f: PiecewiseDensity) -> _UnitSteps | None:
    """(first break, den, {i: count}) when f has height count/den > 0 on each
    unit interval [first + i, first + i + 1); None for any other density."""
    t0 = f.breakpoints[0]
    if t0.denominator != 1 or any(t1 - t != 1 for t, t1 in zip(f.breakpoints, f.breakpoints[1:])):
        return None
    if any(b != 0 or a <= 0 for a, b in f.pieces):
        return None
    # unit widths make the heights the masses of a law on the piece indices
    den, counts = _normalise({i: a for i, (a, _) in enumerate(f.pieces)}, int)
    return t0.numerator, den, counts


def convolve_densities(f: PiecewiseDensity, g: PiecewiseDensity) -> _PiecewisePoly:
    """Exact convolution density of two independent piecewise-affine laws by a
    closed-form binomial expansion over Q, its integral checked to be exactly 1.

    For pieces fp on [p0, p1) and gp on [q0, q1), the binomial theorem gives
    fp(s) gp(t - s) = sum_k s^k c_k(t).  Between consecutive breakpoint sums
    the limits s_lo = max(p0, t - q1) and s_hi = min(p1, t - q0) are each one
    affine function of t, so the contribution
    sum_k c_k(t) (s_hi^(k+1) - s_lo^(k+1)) / (k+1) is one polynomial over Q
    with len(fp) + len(gp) coefficients.
    """
    contribs: list[tuple[Fraction, Fraction, Poly]] = []
    for fp, p0, p1 in zip(f._polys(), f.breakpoints, f.breakpoints[1:]):
        for gp, q0, q1 in zip(g._polys(), g.breakpoints, g.breakpoints[1:]):
            n = len(fp) + len(gp)
            c = [[Fraction(0)] * len(gp) for _ in range(n - 1)]  # c[k][e]: s^k t^e
            for i, a in enumerate(fp):
                for j, b in enumerate(gp):
                    for k in range(j + 1):
                        c[i + k][j - k] += a * b * math.comb(j, k) * (-1) ** k
            corners = sorted({p0 + q0, p0 + q1, p1 + q0, p1 + q1})
            for lo, hi in zip(corners, corners[1:]):
                mid = (lo + hi) / 2
                s_lo: Poly = (p0,) if p0 >= mid - q1 else (-q1, Fraction(1))
                s_hi: Poly = (p1,) if p1 <= mid - q0 else (-q0, Fraction(1))
                poly: Poly = (Fraction(0),) * n
                up, down = s_hi, s_lo  # s_hi^(k+1) and s_lo^(k+1)
                for k, ck in enumerate(c):
                    diff = _poly_add(up, tuple(-x for x in down))
                    poly = _poly_add(poly, tuple(x / (k + 1) for x in _poly_mul(ck, diff)))
                    up, down = _poly_mul(up, s_hi), _poly_mul(down, s_lo)
                poly = poly[:n]  # entries past degree n - 1 are exact zeros
                if any(x != 0 for x in poly):
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


def _unit_abbn(f: _UnitSteps, g: _UnitSteps) -> MetricReport:
    """`abbn_check` on two unit step densities (first break, den, {i: count > 0}),
    in ints: Ent sums F(count / den), and each hat piece between knots u and v
    is the affine closed form at u / den and v / den, slope (v - u) / den.
    int / int rounds as float(Fraction) does, so every float is the closed form's."""
    ents, witness = [], {}
    for name, (first, den, counts) in zip("fg", (f, g)):
        if min(counts.values()) <= 0 or sum(counts.values()) != den:
            raise ValueError(f"step counts {list(counts.values())} must be positive and sum to {den}")
        ents.append(math.fsum(_f_count(n, den) for n in counts.values()))
        reduced = [(n // math.gcd(n, den), den // math.gcd(n, den)) for n in counts.values()]
        witness[name] = {"breaks": [str(first + i) for i in range(len(counts) + 1)],
                         "pieces": [[f"{n}/{d}" if d > 1 else str(n), "0"] for n, d in reduced]}
    # two unit boxes convolve to the hat on [0, 2] with peak 1, so the density
    # of the sum is knots[k] / den at f0 + g0 + k, the discrete convolution of
    # the heights at k - 1 (box-spline identity), and linear between integers;
    # the piece over [k, k + 1] integrates to (knots[k] + knots[k + 1]) / (2 den)
    den, nf, ng = f[1] * g[1], f[2], g[2]
    box = _Kronecker((0,), (len(nf) + len(ng) - 1,), den)  # the indices are the slots
    knots = [0, *box.read(box.pack(nf) * box.pack(ng)), 0]
    if sum(knots) != den:
        raise ArithmeticError(f"convolution integral is {Fraction(sum(knots), den)}, expected 1")
    rhs = math.fsum(_f_count(u, den) if u == v else (_anti(v / den) - _anti(u / den)) / ((v - u) / den)
                    for u, v in zip(knots, knots[1:]))
    lhs = 0.5 * (ents[0] + ents[1]) + 0.5 * math.log(2)
    return MetricReport("continuous_sum_lower_bound", lhs, rhs, witness)


def abbn_check(f: PiecewiseDensity, g: PiecewiseDensity) -> MetricReport:
    """Ent(S + T) >= (Ent(S) + Ent(T))/2 + (log 2)/2 for independent densities;
    two unit step densities (see `_unit_steps`) take `_unit_abbn`."""
    steps = (_unit_steps(f), _unit_steps(g))
    if None not in steps:
        return _unit_abbn(*steps)
    conv = convolve_densities(f, g)
    lhs = 0.5 * (continuous_entropy(f) + continuous_entropy(g)) + 0.5 * math.log(2)
    witness = {name: {"breaks": [str(b) for b in h.breakpoints],
                      "pieces": [[str(a), str(b)] for a, b in h.pieces]} for name, h in (("f", f), ("g", g))}
    return MetricReport("continuous_sum_lower_bound", lhs, conv.entropy(), witness)


def bridge_entropy(p: Dist) -> tuple[PiecewiseDensity, float]:
    """Step density of X + U for U uniform on [0,1); its differential entropy
    equals the discrete entropy of X exactly (checked to 1e-9)."""
    if p.group.moduli != (0,):
        raise PreconditionError("bridge needs a rank-1 Z-valued law")
    # one piece [x, x+1) per atom and one zero piece across each gap, so the
    # work is linear in the support, not in its span
    den = p.den
    breaks = [Fraction(p.support()[0][0])]
    pieces = []
    for (x,), n in p.counts.items():  # in increasing x
        if x > breaks[-1]:
            breaks.append(Fraction(x))
            pieces.append((0, 0))
        breaks.append(Fraction(x + 1))
        pieces.append((Fraction(n, den), 0))
    dens = PiecewiseDensity(breaks, pieces)
    ent = continuous_entropy(dens)
    if abs(ent - entropy(p)) > 1e-9:
        raise AssertionError("bridge identity failed beyond tolerance")
    return dens, ent


# ---------------------------------------------------------------------------
# Fourier smoothness search


class SpectrumReport(NamedTuple):
    """Large spectrum of a box-supported law and the shift it certifies."""

    mu: float
    dims: tuple[int, ...]  # cyclic embedding sizes (3 Ni)
    coeffs: np.ndarray  # full character-sum table
    spectrum: tuple[tuple[int, ...], ...]  # frequencies with |p-hat| >= mu
    shift: tuple[int, ...]
    max_char_dist: float  # max over the spectrum of |chi(shift) - 1|
    relaxed: bool  # True when no shift met the strict mu^2 threshold
    realized_tv: float
    parseval_lhs: float
    parseval_rhs: float


def smooth_shift_search(
    p: Dist, mu: float, box: Sequence[int] | None = None
) -> SpectrumReport:
    """Search the box for a shift r that the large spectrum barely sees.

    The law is embedded in the product of Z/3NiZ, the full character table is
    computed (a DFT over the product of cyclic groups), and candidate shifts
    are scanned in increasing max-norm.  A shift qualifies strictly when
    |chi(r) - 1| <= mu^2 for every large-spectrum character; if none does
    within the radius, the best approximant is returned flagged as relaxed.
    The realized total variation of the r-shift of p*p is always reported.

    `box` fixes the side lengths Ni; by default they are inferred from the
    support after translating its minimum to the origin.
    """
    if not 0 < mu < 1:
        raise PreconditionError(f"mu must be in (0, 1), got {mu}")
    if not p.group.torsion_free() or p.group.dim < 1:
        raise PreconditionError("search needs a law on a torsion-free box")
    d = p.group.dim
    mins = [min(x[i] for x in p.counts) for i in range(d)]
    p0 = p.translate(tuple(-m for m in mins))
    sizes = [max(x[i] for x in p0.counts) + 1 for i in range(d)]
    if box is not None:
        try:
            box = [operator.index(n) for n in box]
        except TypeError:
            raise PreconditionError(f"box sides must be integers, got {box!r}") from None
        if len(box) != d or any(b < s for b, s in zip(box, sizes)):
            raise PreconditionError(f"box {box} does not contain the support")
        sizes = box
    dims = tuple(3 * n for n in sizes)
    total = math.prod(dims)
    if total > SHIFT_GROUP_CAP:
        raise CapExceededError(f"embedding group size {total} exceeds cap {SHIFT_GROUP_CAP}")

    import numpy as np  # loaded by the search, not with the package

    # int / int is correctly rounded, as float(Fraction) is
    den = p0.den
    arr = np.zeros(dims, dtype=float)
    for x, n in p0.counts.items():
        arr[x] = n / den
    coeffs = np.fft.fftn(arr)
    parseval_lhs = float(np.sum(np.abs(coeffs) ** 2))
    parseval_rhs = total * sum((n / den) ** 2 for n in p0.counts.values())

    mags = np.abs(coeffs)
    spectrum = tuple(
        tuple(int(c) for c in idx) for idx in np.argwhere(mags >= mu)
    )
    if not spectrum or len(spectrum) * mu * mu > parseval_lhs + 1e-9:
        raise AssertionError("spectrum size bound violated")

    def char_dist(r: Sequence[int]) -> float:
        worst = 0.0
        for t in spectrum:
            theta = 2.0 * math.pi * math.fsum(
                (t[i] * r[i]) / dims[i] for i in range(d)
            )
            dist = 2.0 * abs(math.sin(theta / 2.0))
            if dist > worst:
                worst = dist
        return worst

    radius = min(max(s - 1 for s in sizes), math.ceil(d * mu**-3))
    shells = (r for rho in range(1, radius + 1)
              for r in itertools.product(*(range(min(n, rho + 1)) for n in sizes)) if max(r) == rho)
    # the first shift within mu^2 is below every earlier one, so it is the running best
    chosen: tuple[int, ...] | None = None
    chosen_m = math.inf
    for r in shells:
        m = char_dist(r)
        if m < chosen_m:
            chosen, chosen_m = r, m
        if m <= mu * mu:
            break
    if chosen is None:
        raise SearchExhaustedError(f"no nonzero shift exists within radius {radius}", spectrum)
    relaxed = chosen_m > mu * mu

    conv = convolve(p0, p0, "+")
    realized_tv = tv_distance(conv, conv.translate(chosen))
    return SpectrumReport(
        mu=mu,
        dims=dims,
        coeffs=coeffs,
        spectrum=spectrum,
        shift=chosen,
        max_char_dist=chosen_m,
        relaxed=relaxed,
        realized_tv=realized_tv,
        parseval_lhs=parseval_lhs,
        parseval_rhs=parseval_rhs,
    )
