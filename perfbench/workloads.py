"""The four benchmark workloads.

Each workload builds its inputs from the seed in its constructor, runs one
operation per `op(k)` call (the timed part) and checks that operation's
output in `check(k, out)`, which raises CheckFailed on a wrong output and
otherwise returns a short string for the output digest.  Operation ids `k`
count up from 0; a workload with `pass_len > 1` is stopped only at the end of
a whole pass over its corpus, so every run sees the same mix of inputs.

With `negative_control` set, the output of operation 0 is deliberately
wrong, so the checker must count one failure.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import entsum.bsg as bsg
import entsum.dists as dists
import entsum.fileio as fileio
import entsum.fuzz as fuzz
import entsum.inverse as inverse
import entsum.metrics as metrics
import entsum.progressions as progressions
import entsum.transport as transport
from entsum.groups import GroupSpec

from tracing import merge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED_COSTS = ROOT / "tests" / "data" / "uniformise_costs.json"
TOL = 1e-9


class CheckFailed(Exception):
    """An operation produced a wrong output."""


def subprocess_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
    return env


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Workload:
    """Defaults shared by the workloads."""

    pass_len = 1  # operations per pass over the corpus; runs stop between passes
    traced = False  # set by the traced run around each traced operation
    in_process = True  # False when an operation runs in a subprocess

    def __init__(self, seed: int, work: Path, negative_control: bool = False):
        self.seed = seed
        self.work = work
        self.negative_control = negative_control


def _sized_dist(rng: random.Random, g: GroupSpec, cap: int, size: int) -> dists.Dist:
    """A seeded law with exactly `size` atoms, drawn as criterion 4 draws them."""
    while True:
        p = fuzz.random_dist(rng, g, cap, 64)
        if len(p) == size:
            return p


# ---------------------------------------------------------------------------


class Fuzz(Workload):
    """Short fuzz campaigns over all default checks; one op is one campaign."""

    name = "fuzz"
    INSTANCES = 10

    def _config(self, k: int) -> fuzz.FuzzConfig:
        h = hashlib.blake2b(f"{self.seed}:{k}".encode(), digest_size=4).digest()
        return fuzz.FuzzConfig(seed=int.from_bytes(h, "big"),
                               instance_count=self.INSTANCES, workers=1)

    def warm_up(self) -> None:
        cfg = fuzz.FuzzConfig(seed=0, instance_count=1, workers=1)
        fuzz.fuzz_run(cfg, self.work / "fuzz-warm-up")

    def op(self, k: int):
        return fuzz.fuzz_run(self._config(k), self.work / f"fuzz-{k}")

    def check(self, k: int, summary) -> str:
        out = self.work / f"fuzz-{k}"
        results = out / "results.jsonl"
        if self.negative_control and k == 0:
            with open(results, "a") as fh:
                fh.write(json.dumps({"check": "ese", "index": 0, "name": "tampered",
                                     "kind": "bound", "slack": -1.0}) + "\n")
        data = results.read_bytes()
        rows = [json.loads(line) for line in data.splitlines() if line]
        _require(summary["violations"] == 0, f"campaign {k}: {summary['violations']} violations")
        _require(len(rows) > 0, f"campaign {k}: empty results.jsonl")
        bad = [r for r in rows if r["kind"] == "bound" and r["slack"] < -TOL]
        _require(not bad, f"campaign {k}: violated bound rows {bad[:1]}")
        _require(not any((out / "counterexamples").iterdir()),
                 f"campaign {k}: counterexample files written")
        shutil.rmtree(out)
        return hashlib.sha256(data).hexdigest()

    def expected_calls(self, ids) -> dict:
        want = {"fuzz.fuzz_run": len(ids)}
        for name in fuzz.DEFAULT_CHECKS:
            want[f"fuzz.check.{name}"] = len(ids) * self.INSTANCES
        return want


# ---------------------------------------------------------------------------


def _oracle_classes():
    """(modulus, |supp p|, |supp q| or 0 for the uniform target) as in criterion 4."""
    out = []
    for mod, cap in ((4, 4), (8, 3)):
        for ps in range(1, cap + 1):
            for qs in range(1, cap + 1):
                out.append((mod, ps, qs))
            out.append((mod, ps, 0))
    return out


HEAVY_CLASS = (8, 3, 0)


def _criterion4_first_heavy():
    """The first 3-atom source -> uniform on Z/8 instance of criterion 4's corpus."""
    rng = random.Random(404)
    while True:
        g = GroupSpec([4]) if rng.randrange(2) else GroupSpec([8])
        cap = 4 if g.moduli[0] == 4 else 3
        p = fuzz.random_dist(rng, g, cap, 64)
        uniform = rng.randrange(4) == 0
        q = dists.Dist.uniform(g, g.elements()) if uniform else fuzz.random_dist(rng, g, cap, 64)
        if len(p) * len({g.sub(y, x) for y in q.support() for x in p.support()}) > 24:
            continue
        if uniform and g.moduli[0] == 8 and len(p) == 3:
            return p, q


class Oracle(Workload):
    """transport_exact on a stratified corpus; one op is one oracle call."""

    name = "oracle"

    @staticmethod
    def class_count(cls) -> int:
        """Instances per pass of a light class.

        The counts place the median inside the block of one-atom-side
        classes (a unique coupling, about 0.2 ms each) and the 90th
        percentile inside the 2 atoms -> uniform on Z/8 class, not on a
        boundary between classes of very different cost.
        """
        _, ps, qs = cls
        if ps == 1 or qs == 1:
            return 24
        if cls == (8, 2, 0):
            return 48
        return 4

    def __init__(self, seed: int, work: Path, negative_control: bool = False):
        super().__init__(seed, work, negative_control)
        rng = random.Random(seed)
        corpus = []
        for cls in _oracle_classes():
            if cls == HEAVY_CLASS:
                continue
            mod, ps, qs = cls
            g = GroupSpec([mod])
            cap = 4 if mod == 4 else 3
            for _ in range(self.class_count(cls)):
                p = _sized_dist(rng, g, cap, ps)
                q = dists.Dist.uniform(g, g.elements()) if qs == 0 else _sized_dist(rng, g, cap, qs)
                corpus.append((cls, p, q))
        # one heavy instance per pass, the same for every seed: its run time
        # varies by about 20% between sources and it is over half of a pass
        p, q = _criterion4_first_heavy()
        corpus.append((HEAVY_CLASS, p, q))
        rng.shuffle(corpus)
        self.corpus = corpus
        self.pass_len = len(corpus)
        self._bounds: dict[int, tuple[float, float, float]] = {}

    def warm_up(self) -> None:
        _, p, q = next(c for c in self.corpus if c[0] == (4, 2, 2))
        transport.transport_exact(p, q)

    def op(self, k: int):
        _, p, q = self.corpus[k % self.pass_len]
        return transport.transport_exact(p, q)

    def _reference(self, i: int) -> tuple[float, float, float]:
        """Lower bound, independent-pair cost and constructive cost (or inf)."""
        if i not in self._bounds:
            (_, _, qs), p, q = self.corpus[i]
            lower = max(0.0, dists.entropy(q) - dists.entropy(p))
            indep = transport.independent_pair_certificate(p, q)
            indep.validate(p)
            constructive = math.inf
            if qs == 0:
                cert = transport.uniformise_group(p, 1e9)
                cert.validate(p)
                constructive = cert.cost
            self._bounds[i] = (lower, indep.cost, constructive)
        return self._bounds[i]

    def check(self, k: int, cert) -> str:
        i = k % self.pass_len
        _, p, q = self.corpus[i]
        lower, indep, constructive = self._reference(i)
        try:
            cert.validate(p)
        except Exception as exc:
            raise CheckFailed(f"instance {i}: certificate invalid: {exc}") from exc
        _require(cert.target == q, f"instance {i}: certificate target differs from q")
        cost = cert.cost
        if self.negative_control and k == 0:
            cost = lower - 1.0
        _require(cost >= lower - TOL, f"instance {i}: cost {cost} below lower bound {lower}")
        _require(cost <= indep + TOL, f"instance {i}: cost {cost} above independent pair {indep}")
        _require(cost <= constructive + TOL,
                 f"instance {i}: cost {cost} above constructive {constructive}")
        return repr(cost)

    def expected_calls(self, ids) -> dict:
        return {"transport.transport_exact": len(ids)}


# ---------------------------------------------------------------------------


def criterion5_corpus():
    """Criterion 5's fixtures: 60 laws on Z/64, 40 on four progression shapes."""
    fixtures = []
    g64 = GroupSpec([64])
    rng = random.Random(505)  # criterion 5's seed
    while len(fixtures) < 60:
        size = rng.randrange(16, 65)
        p = fuzz.random_dist(rng, g64, size, 256)
        deficit = math.log(64) - dists.entropy(p)
        if 0.5 <= deficit <= 3.0:
            fixtures.append((f"z64_{len(fixtures):02d}", p, None, math.exp(deficit) + 1))
    z = GroupSpec([0])
    cp_shapes = [
        progressions.CosetProgression(z, [(0,)], (0,), [(1,)], [16]),
        progressions.CosetProgression(z, [(0,)], (5,), [(2,)], [12]),
        progressions.CosetProgression(GroupSpec([0, 0]), [(0, 0)], (0, 0), [(1, 0), (0, 1)], [4, 4]),
        progressions.CosetProgression(GroupSpec([8, 0]), [(0, 0), (4, 0)], (1, 0), [(0, 1)], [6]),
    ]
    count = 0
    while count < 40:
        cp = cp_shapes[count % len(cp_shapes)]
        elements = sorted(cp.enumerate())
        size = rng.randrange(max(4, len(elements) // 3), len(elements) + 1)
        support = sorted(rng.sample(elements, size))
        den = rng.randrange(size, 257)
        cuts = sorted(rng.sample(range(1, den), size - 1)) if size > 1 else []
        edges = [0] + cuts + [den]
        parts = [b - a for a, b in zip(edges, edges[1:])]
        p = dists.Dist(cp.group, {e: Fraction(n, den) for e, n in zip(support, parts)})
        deficit = math.log(len(elements)) - dists.entropy(p)
        if 0.5 <= deficit <= 3.0:
            fixtures.append((f"prog_{count:02d}", p, cp, None))
            count += 1
    return fixtures


class Uniformise(Workload):
    """Uniformisation certificates on criterion 5's fixtures, in seeded order.

    The corpus is criterion 5's own, so every cost is compared with the
    pinned costs; the seed sets the order.  Drawing new fixtures per seed
    spreads throughput by about 20% between seeds, because one Z/64 law in
    ten takes five to ten times the median.
    """

    name = "uniformise"

    def __init__(self, seed: int, work: Path, negative_control: bool = False):
        super().__init__(seed, work, negative_control)
        corpus = criterion5_corpus()
        random.Random(seed).shuffle(corpus)
        self.corpus = corpus
        self.pass_len = len(corpus)
        self.entropies = [dists.entropy(p) for _, p, _, _ in corpus]
        self.pinned = json.loads(PINNED_COSTS.read_text())
        self.uniform64 = set(GroupSpec([64]).elements())

    def warm_up(self) -> None:
        _, p, cp, _ = next(f for f in self.corpus if f[0] == "prog_00")
        transport.uniformise_coset_progression(p, cp)

    def op(self, k: int):
        _, p, cp, k_bound = self.corpus[k % len(self.corpus)]
        if cp is None:
            cert = transport.uniformise_group(p, k_bound)
            target = dists.Dist.uniform(p.group, p.group.elements())
        else:
            cert = transport.uniformise_coset_progression(p, cp)
            target = progressions.uniform_on(cp)
        return cert, target

    def check(self, k: int, out) -> str:
        i = k % len(self.corpus)
        name, p, cp, _ = self.corpus[i]
        cert, target = out
        if self.negative_control and k == 0:
            cert = _tamper_mass(cert)
        try:
            cert.validate(p)
        except Exception as exc:
            raise CheckFailed(f"{name}: certificate invalid: {exc}") from exc
        support = set(cp.enumerate()) if cp is not None else self.uniform64
        mass = Fraction(1, len(support))
        _require(set(target.support()) == support and all(v == mass for v in target.mass.values()),
                 f"{name}: target law is not uniform")
        _require(cert.target == target, f"{name}: certificate target is not the uniform law")
        cost = cert.cost
        lower = dists.entropy(target) - self.entropies[i]
        _require(cost >= lower - TOL, f"{name}: cost {cost} below Ent(target) - Ent(p) = {lower}")
        pin = self.pinned.get(name)
        _require(pin is not None, f"{name}: no pinned cost")
        _require(abs(cost - pin) <= 1e-6 * max(1.0, abs(pin)), f"{name}: cost {cost} != pinned {pin}")
        return f"{name}:{cost!r}"

    def expected_calls(self, ids) -> dict:
        n_prog = sum(1 for k in ids if self.corpus[k % len(self.corpus)][2] is not None)
        return {
            "transport.uniformise_group": len(ids) - n_prog,
            "transport.uniformise_coset_progression": n_prog,
            "progressions.uniform_on": n_prog,
        }


def _tamper_mass(cert):
    """Move one coupling atom to another noise value: pushforward no longer matches."""
    g = cert.target.group
    atoms = dict(cert.coupling.mass)
    (x, z), v = next(iter(atoms.items()))
    del atoms[(x, z)]
    moved = (x, g.add(z, g.reduce((1,) * g.dim)))
    atoms[moved] = atoms.get(moved, Fraction(0)) + v
    return transport.TransportCertificate(dists.JointDist([g, g], atoms), cert.target)


# ---------------------------------------------------------------------------


def _json_lines(objs) -> list:
    return [json.loads(json.dumps(o, sort_keys=True)) for o in objs]


class Cli(Workload):
    """Cold `python -m entsum.cli` calls over a fixed command mix."""

    name = "cli"
    in_process = False
    VARIANTS = 4
    COMMANDS = ("entropy", "doubling", "ruzsa", "check", "bsg", "inverse",
                "construct", "exact")
    CHILD = HERE / "child.py"

    def __init__(self, seed: int, work: Path, negative_control: bool = False):
        super().__init__(seed, work, negative_control)
        self.env = subprocess_env()
        self.child_stats: dict = {}
        self.child_counts: dict = {}
        rng = random.Random(seed)
        self.calls = []  # (command, argv, expected stdout objects, dist files, joint files)
        for v in range(self.VARIANTS):
            for command in self.COMMANDS:
                self.calls.append(self._make(rng, command, v))

    def _dist_file(self, p, tag: str) -> str:
        path = self.work / f"{tag}.json"
        fileio.save_json(path, fileio.dump_dist(p))
        return str(path)

    def _make(self, rng: random.Random, command: str, v: int):
        tag = f"{command}-{v}"
        g = GroupSpec([0]) if rng.randrange(2) else GroupSpec([8])

        def law(i: int, group=g, cap=6):
            path = self._dist_file(fuzz.random_dist(rng, group, cap, 64), f"{tag}-{i}")
            return path, fileio.load_dist(path)

        if command in ("entropy", "doubling", "inverse"):
            path, p = law(0)
            if command == "entropy":
                expected = [{"entropy": dists.entropy(p), "support": len(p)}]
            elif command == "doubling":
                expected = [{"doubling": metrics.doubling_constant(p)}]
            else:
                coset = inverse.detect_coset_uniform(p)
                core = inverse.effective_support_search(p)
                expected = [{
                    "coset": {
                        "is_coset_uniform": coset.is_coset_uniform,
                        "subgroup": sorted(map(list, coset.subgroup)) if coset.subgroup else None,
                        "base": list(coset.base) if coset.base else None,
                        "doubling": coset.doubling,
                    },
                    "core": {
                        "size": len(core.core_set),
                        "mass": float(core.mass),
                        "log_size_gap": core.log_size_gap,
                        "energy_ratio": core.energy_ratio,
                        "C": core.c_value,
                    },
                }]
            return command, [command, path], _json_lines(expected), 1, 0
        if command == "ruzsa":
            (a, p), (b, q) = law(0), law(1)
            expected = [{"ruzsa_distance": metrics.ruzsa_distance(p, q)}]
            return command, [command, a, b], _json_lines(expected), 2, 0
        if command == "check":
            (a, p), (b, q), (c, r) = law(0), law(1), law(2)
            n = 1 + rng.randrange(3)
            expected = [
                {"name": rep.name, "lhs": rep.lhs, "rhs": rep.rhs, "slack": rep.slack,
                 "witness_path": None}
                for rep in metrics.check_ese_suite(p, q, r, n)
            ]
            return command, [command, a, b, c, "--n", str(n)], _json_lines(expected), 3, 0
        if command == "bsg":
            gj = GroupSpec([4]) if rng.randrange(2) else GroupSpec([0])
            path = self.work / f"{tag}.json"
            fileio.save_json(path, fileio.dump_joint(fuzz.random_joint(rng, gj, 6, 64)))
            j = fileio.load_joint(path)
            reports = bsg.verify_bsg(bsg.BsgInstance.from_joint(j))
            return command, [command, str(path)], _json_lines(r.to_json() for r in reports), 0, 1
        if command == "construct":
            g8 = GroupSpec([8])
            a, p = law(0, g8, 6)
            b = self._dist_file(dists.Dist.uniform(g8, g8.elements()), f"{tag}-u")
            expected = [transport.uniformise_group(p, 1e9).to_json()]
            return command, ["transport", a, b, "--construct"], _json_lines(expected), 2, 0
        # "exact": a small instance on Z/4 within the oracle's default cap
        g4 = GroupSpec([4])
        while True:
            p = fuzz.random_dist(rng, g4, 3, 64)
            q = fuzz.random_dist(rng, g4, 3, 64)
            if len(p) * len({g4.sub(y, x) for y in q.support() for x in p.support()}) <= 12:
                break
        a, b = self._dist_file(p, f"{tag}-0"), self._dist_file(q, f"{tag}-1")
        expected = [transport.transport_exact(fileio.load_dist(a), fileio.load_dist(b)).to_json()]
        return command, ["transport", a, b, "--exact"], _json_lines(expected), 2, 0

    def _argv(self, k: int) -> list:
        argv = list(self.calls[k % len(self.calls)][1])
        if self.negative_control and k == 0:
            argv[-1] = str(self.work / "missing.json")
        return argv

    def warm_up(self) -> None:
        subprocess.run([sys.executable, "-m", "entsum.cli", *self.calls[0][1]],
                       capture_output=True, env=self.env, cwd=self.work, timeout=120, check=True)

    def op(self, k: int):
        argv = self._argv(k)
        if not self.traced:
            return subprocess.run([sys.executable, "-m", "entsum.cli", *argv],
                                  capture_output=True, env=self.env, cwd=self.work, timeout=120)
        stats_path = self.work / f"child-{k}.json"
        done = subprocess.run([sys.executable, str(self.CHILD), str(stats_path), *argv],
                              capture_output=True, env=self.env, cwd=self.work, timeout=120)
        payload = json.loads(stats_path.read_text())
        stats_path.unlink()
        merge(self.child_stats, payload["stats"])
        for key, value in payload["counts"].items():
            self.child_counts[key] = self.child_counts.get(key, 0) + value
        return done

    def check(self, k: int, done) -> str:
        command, _, expected, _, _ = self.calls[k % len(self.calls)]
        _require(done.returncode == 0,
                 f"call {k} ({command}): exit code {done.returncode}: {done.stderr.decode()[-200:]}")
        got = [json.loads(line) for line in done.stdout.decode().splitlines() if line.strip()]
        _require(got == expected, f"call {k} ({command}): stdout differs from the in-process result")
        return hashlib.sha256(done.stdout).hexdigest()

    def expected_calls(self, ids) -> dict:
        picked = [self.calls[k % len(self.calls)] for k in ids]
        return {
            "cli.main": len(ids),
            "fileio.load_dist": sum(c[3] for c in picked),
            "fileio.load_joint": sum(c[4] for c in picked),
        }


WORKLOADS = {w.name: w for w in (Fuzz, Oracle, Uniformise, Cli)}
