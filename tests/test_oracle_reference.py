"""Differential test of the exact transport oracle against the forest enumerator.

`_transport_exact_reference` is the row-by-row enumerator the integer vertex
search replaced, kept here unchanged as the slow exact reference: it solves
every acyclic support with Fraction leaf elimination and keeps the first
vertex of least entropy.
"""

import concurrent.futures
import math
import os
import random
from fractions import Fraction
from typing import Iterable

import pytest

from entsum.dists import Dist, JointDist, f_nats
from entsum.errors import CapExceededError, CertificateError, IncompatibleGroupError
from entsum.fuzz import random_dist
from entsum.groups import Element, GroupSpec
from entsum.transport import TransportCertificate, transport_exact


def _transport_exact_reference(p: Dist, q: Dist, cap: int = 24) -> TransportCertificate:
    """Global minimum of Ent(Z) over the coupling polytope, by vertex search.

    The objective is concave in the coupling, so the minimum is attained at a
    vertex; vertices are exactly the feasible points whose bipartite support
    graph is acyclic.  Refuses instances with more than `cap` coupling
    variables (|supp p| * |difference set|).
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
    pm = [p.mass[x] for x in xs]
    qm = [q.mass[y] for y in ys]
    a, b = len(xs), len(ys)
    zs = [[g.sub(y, x) for y in ys] for x in xs]

    best_ent = math.inf
    best_edges: list[tuple[int, int, Fraction]] | None = None

    col_masks = [1 << j for j in range(b)]
    full_cover = (1 << b) - 1

    def bits(mask: int) -> list[int]:
        out = []
        while mask:
            out.append((mask & -mask).bit_length() - 1)
            mask &= mask - 1
        return out

    def subsets_ok(comp: list[int]) -> Iterable[int]:
        # nonempty column subsets with at most one column per current component
        for mask in range(1, 1 << b):
            seen = set()
            ok = True
            for j in bits(mask):
                cj = comp[j]
                if cj in seen:
                    ok = False
                    break
                seen.add(cj)
            if ok:
                yield mask

    def last_row_masks(comp: list[int], covered: int, budget: int) -> Iterable[int]:
        # the final row must pick up every uncovered column, plus at most
        # `budget` extra columns from pairwise-distinct covered components
        uncovered = full_cover & ~covered
        ucols = bits(uncovered)
        used = set()
        for j in ucols:
            if comp[j] in used:
                return
            used.add(comp[j])
        if budget < 0:
            return
        groups: dict[int, list[int]] = {}
        for j in bits(covered):
            if comp[j] not in used:
                groups.setdefault(comp[j], []).append(j)
        group_list = list(groups.values())

        def grow(gi: int, mask: int, left: int):
            if gi == len(group_list):
                if mask:
                    yield mask
                return
            yield from grow(gi + 1, mask, left)
            if left > 0:
                for j in group_list[gi]:
                    yield from grow(gi + 1, mask | col_masks[j], left - 1)

        yield from grow(0, uncovered, budget)

    def solve(edges: list[tuple[int, int]]) -> list[tuple[int, int, Fraction]] | None:
        # unique mass assignment on a forest support via leaf elimination
        n_nodes = a + b
        deg = [0] * n_nodes
        adj: list[list[int]] = [[] for _ in range(n_nodes)]
        for e_idx, (i, j) in enumerate(edges):
            deg[i] += 1
            deg[a + j] += 1
            adj[i].append(e_idx)
            adj[a + j].append(e_idx)
        rem = [Fraction(v) for v in pm] + [Fraction(v) for v in qm]
        val: list[Fraction | None] = [None] * len(edges)
        stack = [v for v in range(n_nodes) if deg[v] == 1]
        while stack:
            v = stack.pop()
            if deg[v] != 1:
                continue
            e_idx = next(e for e in adj[v] if val[e] is None)
            i, j = edges[e_idx]
            u = a + j if v == i else i
            m = rem[v]
            if m < 0:
                return None
            val[e_idx] = m
            rem[v] = Fraction(0)
            rem[u] -= m
            deg[v] -= 1
            deg[u] -= 1
            if deg[u] == 1:
                stack.append(u)
            elif deg[u] == 0 and rem[u] != 0:
                return None
        if any(v is None for v in val) or any(r != 0 for r in rem):
            return None
        return [(i, j, m) for (i, j), m in zip(edges, val) if m is not None]

    def consider(edges: list[tuple[int, int]]) -> None:
        nonlocal best_ent, best_edges
        sol = solve(edges)
        if sol is None:
            return
        zmass: dict[Element, Fraction] = {}
        for i, j, m in sol:
            if m == 0:
                continue
            z = zs[i][j]
            zmass[z] = zmass.get(z, Fraction(0)) + m
        ent = math.fsum(f_nats(v) for _, v in sorted(zmass.items()))
        if ent < best_ent:
            best_ent = ent
            best_edges = sol

    max_edges = a + b - 1

    def rec(i: int, comp: list[int], covered: int, edges: list[tuple[int, int]]):
        if i == a:
            consider(edges)
            return
        rows_left = a - i - 1
        if rows_left == 0:
            uncovered_count = b - bin(covered).count("1")
            budget = max_edges - len(edges) - uncovered_count
            masks: Iterable[int] = last_row_masks(comp, covered, budget)
        else:
            masks = subsets_ok(comp)
        for mask in masks:
            n_new = bin(mask).count("1")
            if len(edges) + n_new > max_edges:
                continue
            uncovered_after = b - bin(covered | mask).count("1")
            if len(edges) + n_new + max(uncovered_after, rows_left) > max_edges:
                continue
            new_comp = comp[:]
            # merge all touched components into one id
            touched = {comp[j] for j in range(b) if mask & col_masks[j]}
            rep = min(touched)
            for j in range(b):
                if new_comp[j] in touched:
                    new_comp[j] = rep
            new_edges = edges + [(i, j) for j in range(b) if mask & col_masks[j]]
            rec(i + 1, new_comp, covered | mask, new_edges)

    rec(0, list(range(b)), 0, [])
    if best_edges is None:
        raise CertificateError("coupling polytope unexpectedly empty")
    atoms = {(xs[i], zs[i][j]): m for i, j, m in best_edges if m != 0}
    cert = TransportCertificate(JointDist([g, g], atoms), q)
    cert.validate(p)
    return cert


# ---------------------------------------------------------------------------


def _nvars(p: Dist, q: Dist) -> int:
    g = p.group
    return len(p) * len({g.sub(y, x) for y in q.support() for x in p.support()})


def _first_heavy_instance() -> tuple[Dist, Dist]:
    """Criterion 4's first 3-atom source -> uniform on Z/8 instance."""
    rng = random.Random(404)
    while True:
        g = GroupSpec([4]) if rng.randrange(2) else GroupSpec([8])
        cap = 4 if g.moduli[0] == 4 else 3
        p = random_dist(rng, g, cap, 64)
        uniform = rng.randrange(4) == 0
        q = Dist.uniform(g, g.elements()) if uniform else random_dist(rng, g, cap, 64)
        if _nvars(p, q) > 24:
            continue
        if uniform and g.moduli[0] == 8 and len(p) == 3:
            return p, q


def _equal_mass(rng: random.Random, g: GroupSpec, size: int) -> Dist:
    return Dist.uniform(g, rng.sample(sorted(g.elements()), size))


def _corpus() -> list[tuple[str, Dist, Dist, int]]:
    """Seeded (label, p, q, cap) instances, all within their cap.

    The reference needs seconds per instance once a 3-atom source meets a
    target with 6 or more atoms, so the bulk stays off that class and exactly
    one such instance, the benchmark's fixed one, is included.
    """
    rng = random.Random(20090623)
    z4, z6, z8 = GroupSpec([4]), GroupSpec([6]), GroupSpec([8])
    z2z2, z = GroupSpec([2, 2]), GroupSpec([0])
    out = []

    def add(label, count, draw, cap=24, accept=lambda p, q: True):
        made = 0
        while made < count:
            p, q = draw()
            if _nvars(p, q) <= cap and accept(p, q):
                out.append((label, p, q, cap))
                made += 1

    def rand(g, support):
        return lambda: (random_dist(rng, g, support, 64), random_dist(rng, g, support, 64))

    def uniform_target(g, support):
        u = Dist.uniform(g, g.elements())
        return lambda: (random_dist(rng, g, support, 64), u)

    add("z4", 120, rand(z4, 4))
    add("z8", 80, rand(z8, 3))
    add("z6", 60, rand(z6, 3))
    add("z2xz2", 60, rand(z2z2, 4))
    add("z", 50, rand(z, 3))
    add("z-cap40", 30, rand(z, 3), cap=40, accept=lambda p, q: _nvars(p, q) > 24)
    add("z8-cap40", 10, rand(z8, 4), cap=40, accept=lambda p, q: _nvars(p, q) > 24 and min(len(p), len(q)) <= 2)
    add("z4-uniform", 30, uniform_target(z4, 4))
    add("z6-uniform", 20, uniform_target(z6, 2))
    add("z8-uniform", 20, uniform_target(z8, 2))
    add("z2xz2-uniform", 20, uniform_target(z2z2, 4))
    add("one-atom-source", 20, lambda: (Dist.point(z8, (rng.randrange(8),)), random_dist(rng, z8, 3, 64)))
    add("one-atom-target", 20, lambda: (random_dist(rng, z6, 3, 64), Dist.point(z6, (rng.randrange(6),))))
    add("equal-mass", 40, lambda: (_equal_mass(rng, z4, rng.randrange(2, 5)), random_dist(rng, z4, 4, 64)))
    add("equal-mass-uniform", 20, lambda: (_equal_mass(rng, z8, 2), Dist.uniform(z8, z8.elements())))
    p, q = _first_heavy_instance()
    out.append(("z8-heavy", p, q, 24))
    return out


def _assert_matches_reference(label: str, p: Dist, q: Dist, cap: int) -> None:
    ref = _transport_exact_reference(p, q, cap=cap)
    cert = transport_exact(p, q, cap=cap)
    cert.validate(p)
    assert cert.target == q, label
    assert abs(cert.cost - ref.cost) <= 1e-12, (label, p, q, cert.cost, ref.cost)
    # equal-cost vertices are broken in the reference's visiting order
    assert cert.coupling == ref.coupling, (label, p, q)


def test_corpus_covers_the_required_classes():
    corpus = _corpus()
    labels = {label for label, *_ in corpus}
    assert len(corpus) >= 500
    assert {"z4", "z8", "z6", "z2xz2", "z", "z8-heavy"} <= labels
    assert any(cap == 40 and _nvars(p, q) > 24 for _, p, q, cap in corpus)
    assert any(len(p) == 1 for _, p, _, _ in corpus) and any(len(q) == 1 for _, _, q, _ in corpus)
    assert sum(label == "z8-heavy" for label, *_ in corpus) == 1


@pytest.fixture(scope="module")
def comparisons():
    """The comparisons of `_corpus()`, running on one 2-process pool: the
    heavy instance, one long enumeration, goes in first, so that the other
    worker takes the rest while it runs.  Each test raises its own failures."""
    corpus = _corpus()
    (heavy,) = [c for c in corpus if c[0] == "z8-heavy"]
    rest = [c for c in corpus if c[0] != "z8-heavy"]
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=min(2, os.cpu_count() or 1))
    try:
        yield heavy, pool.submit(_assert_matches_reference, *heavy), pool.map(
            _assert_matches_reference, *zip(*rest), chunksize=10)
    finally:
        pool.shutdown(cancel_futures=True)


def test_oracle_matches_reference(comparisons):
    # the comparisons are independent, so a 2-process pool shares them, as
    # `fuzz_run` shares its chunks; a failed assertion is raised here
    list(comparisons[2])


def test_oracle_matches_reference_on_heavy_instance(comparisons):
    # 3 atoms -> uniform on Z/8: 195,180 forests for the reference
    (label, p, q, cap), heavy, _ = comparisons
    assert len(p) == 3 and len(q) == 8
    heavy.result()
