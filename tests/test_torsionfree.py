"""Binomial experiments, continuous entropy, the bridge, Fourier smoothness."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from entsum.dists import Dist, convolve, entropy, tv_distance
from entsum.errors import (
    CapExceededError,
    PreconditionError,
    SearchExhaustedError,
)
from entsum.fuzz import random_dist
from entsum.groups import GroupSpec
from entsum.metrics import doubling_constant
from entsum.torsionfree import (
    PiecewiseDensity,
    abbn_check,
    binomial_dist,
    binomial_entropy_gap,
    bridge_entropy,
    continuous_entropy,
    convolve_densities,
    doubling_experiment,
    entxx_explore,
    mod_fiber_decomposition,
    smooth_shift_search,
)

Z = GroupSpec([0])
LOG2 = math.log(2)


# ---------------------------------------------------------------------------
# binomial walks


def test_binomial_small_rows():
    assert binomial_dist(1).mass == {(-1,): F(1, 2), (1,): F(1, 2)}
    assert binomial_dist(2).mass == {(-2,): F(1, 4), (0,): F(1, 2), (2,): F(1, 4)}
    b = Dist.uniform(Z, [(-1,), (1,)])
    assert binomial_dist(4) == convolve(convolve(b, b, "+"), convolve(b, b, "+"), "+")


def test_binomial_cap():
    with pytest.raises(CapExceededError):
        binomial_dist(5000)


def test_entropy_gap_small_n_closed_form():
    # Ent(X_2) = (3/2) log 2; reference is the lattice Gaussian at variance 1/2
    expect = 1.5 * LOG2 - 0.5 * math.log(2 * math.pi * math.e * 2 / 4)
    assert binomial_entropy_gap(2) == pytest.approx(expect, abs=1e-12)


def test_entropy_gap_shrinks():
    gaps = [abs(binomial_entropy_gap(n)) for n in (16, 64, 256, 1024)]
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 1e-4


def test_doubling_experiment_values():
    # exact Pascal rows: Ent(X_4) - Ent(X_2) = F-sum difference
    row4 = [F(math.comb(4, k), 16) for k in range(5)]
    ent4 = -sum(float(v) * math.log(v) for v in row4)
    expect = math.exp(ent4 - 1.5 * LOG2)
    assert doubling_experiment(2) == pytest.approx(expect, abs=1e-12)
    assert doubling_experiment(2) == pytest.approx(1.4445689, abs=1e-6)


def test_doubling_experiment_torsion_contrast():
    u = Dist.uniform(GroupSpec([2]), [(0,), (1,)])
    assert doubling_constant(u) == pytest.approx(1.0, abs=1e-12)
    assert doubling_constant(u) < math.sqrt(2)


def test_entxx_small_cases():
    # k = 1 reduces to the doubling experiment
    assert entxx_explore(4, 1) == pytest.approx(
        math.log(doubling_experiment(4)) - 0.5 * LOG2, abs=1e-12
    )
    val = entxx_explore(4, 2)
    assert math.isfinite(val)
    assert entxx_explore(200, 2) >= -0.01  # conjecture-consistent at moderate n


def test_entxx_caps():
    for n in (0, -3):
        with pytest.raises(PreconditionError):
            entxx_explore(n, 2)
    with pytest.raises(PreconditionError):
        entxx_explore(10, 9)
    with pytest.raises(PreconditionError):
        entxx_explore(5000, 2)


@pytest.mark.parametrize("call, shown", [
    (lambda: binomial_entropy_gap(1), "got 1"),
    (lambda: binomial_entropy_gap(-4), "got -4"),
    (lambda: doubling_experiment(0), "got 0"),
    (lambda: smooth_shift_search(Dist.uniform(Z, [(0,), (1,)]), 2.0), "got 2.0"),
    (lambda: smooth_shift_search(Dist.uniform(Z, [(0,), (1,)]), 0.0), "got 0.0"),
    (lambda: smooth_shift_search(Dist.uniform(Z, [(0,), (1,)]), math.nan), "got nan"),
    (lambda: binomial_dist(0), "got 0"),
    (lambda: binomial_dist(-3), "got -3"),
    (lambda: mod_fiber_decomposition(Dist.uniform(Z, [(0,), (1,)]), 0), "got 0"),
    (lambda: mod_fiber_decomposition(Dist.uniform(Z, [(0,), (1,)]), -3), "got -3"),
], ids=["gap-n=1", "gap-n=-4", "doubling-n=0", "mu=2", "mu=0", "mu=nan",
        "binomial-n=0", "binomial-n=-3", "fiber-m=0", "fiber-m=-3"])
def test_experiment_preconditions_name_the_value(call, shown):
    # the library refuses these arguments itself, so the CLI needs no checks of its own
    with pytest.raises(PreconditionError, match=shown):
        call()


def test_mod_fiber_identity():
    rng = random.Random(3)
    for m in (2, 3, 5):
        for _ in range(20):
            p = random_dist(rng, Z, 8, 64)
            w, fibres = mod_fiber_decomposition(p, m)
            glued = entropy(w) + sum(
                float(w.mass[(k,)]) * entropy(fib) for k, fib in fibres.items()
            )
            assert glued == pytest.approx(entropy(p), abs=1e-9)


# ---------------------------------------------------------------------------
# continuous entropy


def test_continuous_entropy_uniforms():
    assert continuous_entropy(PiecewiseDensity.uniform(0, 1)) == pytest.approx(0.0, abs=1e-12)
    assert continuous_entropy(PiecewiseDensity.uniform(0, 2)) == pytest.approx(LOG2, abs=1e-12)
    assert continuous_entropy(PiecewiseDensity.uniform(3, 5)) == pytest.approx(LOG2, abs=1e-12)


def test_continuous_entropy_triangle():
    tri = PiecewiseDensity([0, 1, 2], [(0, 1), (2, -1)])
    assert continuous_entropy(tri) == pytest.approx(0.5, abs=1e-12)


def test_density_validation():
    with pytest.raises(ValueError):
        PiecewiseDensity([0, 1], [(2, 0)])  # integral 2
    with pytest.raises(ValueError):
        PiecewiseDensity([0, 1, 2], [(1, 0), (-1, 0)])  # negative piece


@pytest.mark.parametrize("lo, hi", [(0, 0), (1, 0), (F(1, 3), F(1, 3)), (5, -5)])
def test_uniform_on_an_empty_interval_is_rejected(lo, hi):
    # an empty interval is checked before 1 / (hi - lo), so hi == lo is no ZeroDivisionError
    with pytest.raises(ValueError, match="strictly increasing"):
        PiecewiseDensity.uniform(lo, hi)


def test_convolution_of_uniforms_is_triangle():
    u = PiecewiseDensity.uniform(0, 1)
    conv = convolve_densities(u, u)
    assert conv.breakpoints == (0, 1, 2)
    assert conv.polys == ((F(0), F(1)), (F(2), F(-1)))
    assert conv.integral() == 1
    assert conv.entropy() == pytest.approx(0.5, abs=1e-12)


def test_convolution_affine_inputs_quadrature():
    tri = PiecewiseDensity([0, 1, 2], [(0, 1), (2, -1)])
    u = PiecewiseDensity.uniform(0, 1)
    conv = convolve_densities(tri, u)  # piecewise quadratic
    assert conv.integral() == 1
    ent = conv.entropy()
    # entropy grows under independent convolution with anything
    assert ent >= continuous_entropy(tri) - 1e-9
    assert ent <= math.log(3)  # support has length 3


def test_abbn_uniform_pair():
    u = PiecewiseDensity.uniform(0, 1)
    rep = abbn_check(u, u)
    assert rep.rhs == pytest.approx(0.5, abs=1e-9)
    assert rep.lhs == pytest.approx(0.5 * LOG2, abs=1e-12)
    assert rep.slack == pytest.approx(0.5 - 0.5 * LOG2, abs=1e-9)


def test_abbn_translation_invariance():
    u = PiecewiseDensity.uniform(0, 1)
    tri = PiecewiseDensity([0, 1, 2], [(0, 1), (2, -1)])
    a = abbn_check(u, tri)
    b = abbn_check(u.translate(5), tri.translate(-3))
    assert a.slack == pytest.approx(b.slack, abs=1e-9)


def test_abbn_fuzz_step_densities():
    rng = random.Random(17)
    for _ in range(40):
        def rand_step():
            pieces = rng.randrange(1, 5)
            den = rng.randrange(pieces, 40 + pieces)
            cuts = sorted(rng.sample(range(1, den), pieces - 1)) if pieces > 1 else []
            edges = [0] + cuts + [den]
            parts = [b - a for a, b in zip(edges, edges[1:])]
            lo = rng.randrange(-3, 4)
            return PiecewiseDensity(
                range(lo, lo + pieces + 1), [(F(n, den), 0) for n in parts]
            )

        assert not abbn_check(rand_step(), rand_step()).violated(1e-6)


# ---------------------------------------------------------------------------
# bridge


def test_bridge_examples():
    assert bridge_entropy(Dist.point(Z, (0,)))[1] == pytest.approx(0.0, abs=1e-12)
    u01 = Dist.uniform(Z, [(0,), (1,)])
    dens, ent = bridge_entropy(u01)
    assert dens.pieces == ((F(1, 2), 0), (F(1, 2), 0))  # uniform on [0, 2)
    assert ent == pytest.approx(LOG2, abs=1e-12)
    p = Dist(Z, {(0,): F(1, 2), (1,): F(1, 4), (2,): F(1, 4)})
    assert bridge_entropy(p)[1] == pytest.approx(1.5 * LOG2, abs=1e-9)


def test_bridge_fuzz():
    rng = random.Random(23)
    for _ in range(60):
        p = random_dist(rng, Z, 8, 64)
        _, ent = bridge_entropy(p)
        assert ent == pytest.approx(entropy(p), abs=1e-9)


def test_bridge_work_is_linear_in_support():
    # one piece per atom and one zero piece per gap, however wide the span
    p = Dist.uniform(Z, [(0,), (10**4,)])
    dens, ent = bridge_entropy(p)
    assert dens.breakpoints == (0, 1, 10**4, 10**4 + 1)
    assert dens.pieces == ((F(1, 2), 0), (0, 0), (F(1, 2), 0))
    assert ent == entropy(p)
    wide = Dist(Z, {(-(10**9),): F(1, 3), (0,): F(1, 3), (10**9,): F(1, 3)})
    dens, ent = bridge_entropy(wide)
    assert len(dens.pieces) == 5
    assert ent == entropy(wide)


def test_bridge_needs_rank1():
    with pytest.raises(PreconditionError):
        bridge_entropy(Dist.point(GroupSpec([0, 0]), (0, 0)))


# ---------------------------------------------------------------------------
# Fourier smoothness


def test_smooth_shift_uniform16():
    u16 = Dist.uniform(Z, [(i,) for i in range(16)])
    rep = smooth_shift_search(u16, 0.1)
    assert rep.shift == (1,)
    assert rep.realized_tv == pytest.approx(0.125, abs=1e-9)
    assert abs(rep.parseval_lhs - rep.parseval_rhs) <= 1e-9
    # triangle-law increments: 16 unit up-steps and 16 down-steps over 256
    conv = convolve(u16, u16, "+")
    assert tv_distance(conv, conv.translate((1,))) == pytest.approx(2 * 16 / 256, abs=1e-12)


def test_smooth_shift_even_spacing_prefers_even():
    pe = Dist.uniform(Z, [(2 * i,) for i in range(8)])
    rep = smooth_shift_search(pe, 0.1, box=[16])
    assert rep.shift[0] % 2 == 0


def test_smooth_shift_box_sides_must_be_integers():
    p = Dist(Z, {(0,): F(1, 2), (1,): F(1, 3), (2,): F(1, 6)})
    for box in ([3.7], ["3"], [3, 1.0]):
        with pytest.raises(PreconditionError, match="integers"):
            smooth_shift_search(p, 0.5, box=box)
    # an int side, a numpy int side and the inferred side 3 give one result
    reps = [smooth_shift_search(p, 0.5, box=box) for box in ([3], [np.int64(3)], None)]
    for rep in reps:
        assert rep.coeffs.shape == (9,)
        assert (rep.shift, rep.relaxed, rep.realized_tv) == ((1,), True, 2 / 3)
        assert rep.spectrum == ((0,), (1,), (2,), (7,), (8,))
        assert np.array_equal(rep.coeffs, reps[0].coeffs)


def test_smooth_shift_point_mass_fails():
    with pytest.raises(SearchExhaustedError):
        smooth_shift_search(Dist.point(Z, (0,)), 0.1)


def test_smooth_shift_spectrum_bound_and_parseval():
    rng = random.Random(31)
    for _ in range(10):
        p = random_dist(rng, Z, 6, 32)
        try:
            rep = smooth_shift_search(p, 0.25)
        except SearchExhaustedError:
            continue
        assert len(rep.spectrum) * 0.25**2 <= rep.parseval_lhs + 1e-9
        assert abs(rep.parseval_lhs - rep.parseval_rhs) <= 1e-9
        assert math.isfinite(rep.realized_tv)


def test_smooth_shift_rank2_box():
    g = GroupSpec([0, 0])
    p = Dist.uniform(g, [(i, j) for i in range(4) for j in range(4)])
    rep = smooth_shift_search(p, 0.3)
    assert len(rep.shift) == 2
    assert math.isfinite(rep.realized_tv)
    assert abs(rep.parseval_lhs - rep.parseval_rhs) <= 1e-9


def test_doubling_ladder_toward_sqrt2():
    # the sequence is logged for inspection; only the endpoint is asserted
    ladder = {n: doubling_experiment(n) for n in (2, 8, 32, 128, 512, 2048)}
    print("doubling ladder:", {n: round(v, 6) for n, v in ladder.items()})
    values = list(ladder.values())
    non_monotone = sum(1 for a, b in zip(values, values[1:]) if b < a - 1e-12)
    print("non-monotone steps:", non_monotone)
    assert abs(ladder[2048] - math.sqrt(2)) <= 0.005
