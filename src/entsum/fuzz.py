"""Property-based fuzz orchestration with a replayable counterexample corpus.

Every registered inequality gets seeded exact-rational instances; violations
are persisted one file per event, named by content hash, and can be replayed
bit-for-bit because instance generation depends only on (seed, check, index).
Identical configs produce byte-identical reports across runs and worker
counts: results are merged with a deterministic sort before serialisation.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from pathlib import Path
from typing import NamedTuple

from . import __version__
from . import bsg as bsg_mod
from .dists import (
    Dist,
    JointDist,
    conditional_entropy,
    convolve,
    entropy,
    independent_joint,
    is_independent,
    joint_entropy,
)
from .errors import CapExceededError, PremiseError, SchemaError
from .fileio import _group, _is_int, _read, require_object
from .groups import GroupSpec
from .metrics import DEFAULT_TOL as TOL
from .metrics import (
    MetricReport,
    check_ese_suite,
    check_lipschitz,
    jensen_level_report,
    ruzsa_distance,
    sumset_increase_report,
    three_sum_bound,
)
from .torsionfree import _unit_abbn


class Counterexample(NamedTuple):
    check: str
    name: str
    index: int
    child_seed: int
    slack: float
    version: str
    witness: dict
    config: dict


def _child_seed(seed: int, check: str, index: int) -> int:
    h = hashlib.blake2b(
        f"{seed}:{check}:{index}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(h, "big")


# ---------------------------------------------------------------------------
# seeded exact-rational generators


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """Positive integers summing to `total` via sorted distinct cut points."""
    if parts == 1:
        return [total]
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    edges = [0] + cuts + [total]
    return [b - a for a, b in zip(edges, edges[1:])]


def _random_counts(rng: random.Random, draw, support_cap: int, den_cap: int) -> tuple[int, dict]:
    """A seeded law's (den, counts): up to `support_cap` distinct atoms from
    `draw()` (at most 400 tries), sorted, with positive counts summing to a den
    drawn from [size, max(den_cap, size)].  `draw` must give reduced atoms,
    since the counts go to `_with_counts` unchecked."""
    size = rng.randrange(1, support_cap + 1)
    atoms = set()
    tries = 0
    while len(atoms) < size and tries < 400:
        atoms.add(draw())
        tries += 1
    atoms = sorted(atoms)
    den = rng.randrange(len(atoms), max(den_cap, len(atoms)) + 1)
    return den, dict(zip(atoms, _composition(rng, den, len(atoms))))


def random_dist(rng: random.Random, g: GroupSpec, support_cap: int, den_cap: int) -> Dist:
    draw = lambda: tuple(rng.randrange(m) if m > 0 else rng.randrange(-8, 9) for m in g.moduli)
    return Dist._with_counts(g, *_random_counts(rng, draw, support_cap, den_cap))


def random_joint(
    rng: random.Random, g: GroupSpec, support_cap: int, den_cap: int, coords: int = 2
) -> JointDist:
    coord = lambda: tuple(rng.randrange(m) if m > 0 else rng.randrange(-4, 5) for m in g.moduli)
    draw = lambda: tuple(coord() for _ in range(coords))
    return JointDist._with_counts((g,) * coords, *_random_counts(rng, draw, support_cap, den_cap))


def _pick_group(rng: random.Random, cfg: FuzzConfig) -> GroupSpec:
    return GroupSpec(cfg.groups[rng.randrange(len(cfg.groups))])


def _laws(rng: random.Random, cfg: FuzzConfig, k: int, g: GroupSpec | None = None) -> list[Dist]:
    """k laws drawn on g, or on one configured group picked first."""
    if g is None:
        g = _pick_group(rng, cfg)
    return [random_dist(rng, g, cfg.support_cap, cfg.denominator_cap) for _ in range(k)]


# ---------------------------------------------------------------------------
# registered checks; each returns a list of MetricReports


def _check_eident(rng, cfg):
    j = random_joint(rng, _pick_group(rng, cfg), cfg.support_cap, cfg.denominator_cap)
    lhs = abs(conditional_entropy(j, [0], [1]) - (j.entropy() - joint_entropy(j, [1])))
    return [MetricReport("conditional_entropy_identity", lhs, 0.0,
                         {"joint_atoms": len(j)})]


def _check_ento(rng, cfg):
    g = _pick_group(rng, cfg)
    independent = rng.randrange(2) == 0
    if independent:
        j = independent_joint(*_laws(rng, cfg, 2, g))
    else:
        j = random_joint(rng, g, cfg.support_cap, cfg.denominator_cap)
    hx = joint_entropy(j, [0])
    hxy = conditional_entropy(j, [0], [1])
    reports = [MetricReport("conditioning_reduces_entropy", hxy, hx, {})]
    near_equal = abs(hx - hxy) <= TOL
    exact_indep = is_independent(j, [0], [1])
    ok = near_equal == exact_indep
    reports.append(
        MetricReport(
            "independence_iff_conditional_equality",
            0.0 if ok else 1.0,
            0.0,
            {"near_equal": near_equal, "independent": exact_indep},
        )
    )
    return reports


def _check_triv(rng, cfg):
    p, q = _laws(rng, cfg, 2)
    reports = [MetricReport("ruzsa_nonnegative", 0.0, ruzsa_distance(p, q), {})]
    s = convolve(p, q, "+")
    reports.append(
        MetricReport("independent_sum_lower", max(entropy(p), entropy(q)), entropy(s), {})
    )
    reports.append(
        MetricReport("sum_upper", entropy(s), entropy(p) + entropy(q), {})
    )
    return reports


def _check_ese(rng, cfg):
    p, q, r = _laws(rng, cfg, 3)
    n = 1 + rng.randrange(3)
    return check_ese_suite(p, q, r, n)


def _check_submodularity(rng, cfg):
    # deterministic-closure fixture: X1=(A,B), X2=(B,C), X0=B, X12=(A,B,C)
    g = GroupSpec([4])
    base = random_joint(rng, g, cfg.support_cap, cfg.denominator_cap, coords=3)
    j = base.push(
        lambda a: (a[1], a[0] + a[1], a[1] + a[2], a[0] + a[1] + a[2]),
        [g, GroupSpec([4, 4]), GroupSpec([4, 4]), GroupSpec([4, 4, 4])],
    )
    return [submodularity_check(j)]


def _check_xysim(rng, cfg):
    p, q = _laws(rng, cfg, 2)
    return [sumset_increase_report(p, q)]


def _check_jensen(rng, cfg):
    size = [8, 16, 32][rng.randrange(3)]
    g = GroupSpec([size])
    ambient = [(i,) for i in range(size)]
    p = random_dist(rng, g, min(cfg.support_cap, size), cfg.denominator_cap)
    deficit = math.log(size) - entropy(p)
    return [jensen_level_report(p, ambient, math.exp(deficit) * (1 + 1e-9))]


def _check_bsg(rng, cfg):
    g = _pick_group(rng, cfg)
    j = random_joint(rng, g, cfg.support_cap, cfg.denominator_cap)
    inst = bsg_mod.BsgInstance.from_joint(j)
    return bsg_mod.verify_bsg(inst)


def _check_mmt(rng, cfg):
    x, y, z = _laws(rng, cfg, 3)
    return [three_sum_bound(x, y, z)]


def _check_lipschitz(rng, cfg):
    g = GroupSpec([4]) if rng.randrange(2) == 0 else GroupSpec([6])
    p_x = random_dist(rng, g, 3, cfg.denominator_cap)
    p_x2 = random_dist(rng, g, 3, cfg.denominator_cap)
    p_y = random_dist(rng, g, 3, cfg.denominator_cap)
    p_y2 = random_dist(rng, g, 3, cfg.denominator_cap)
    return check_lipschitz(p_x, p_x2, p_y, p_y2)


def _check_abbn(rng, cfg):
    def rand_step():
        pieces = rng.randrange(1, 7)
        den = rng.randrange(pieces, 64 + pieces)
        parts = _composition(rng, den, pieces)
        return rng.randrange(-4, 5), den, dict(enumerate(parts))

    return [_unit_abbn(rand_step(), rand_step())]


CHECKS = {
    "eident": _check_eident,
    "ento": _check_ento,
    "triv": _check_triv,
    "ese": _check_ese,
    "submodularity": _check_submodularity,
    "xysim": _check_xysim,
    "jensen": _check_jensen,
    "bsg": _check_bsg,
    "mmt": _check_mmt,
    "lipschitz": _check_lipschitz,
    "abbn": _check_abbn,
}

DEFAULT_CHECKS = tuple(CHECKS)  # taken at import, so later registrations are opt-in


class FuzzConfig(NamedTuple):
    seed: int = 0
    instance_count: int = 100
    support_cap: int = 6
    denominator_cap: int = 64
    groups: tuple = ((0,), (8,))
    inequality_set: tuple = DEFAULT_CHECKS
    workers: int = 1

    @staticmethod
    def from_json(obj) -> "FuzzConfig":
        """Config from a JSON object or file; SchemaError for unknown keys or bad values."""
        obj = _read(obj)
        if not isinstance(obj, dict):
            raise SchemaError(f"fuzz config must be a JSON object, got {obj!r}")
        extra = set(obj) - set(FuzzConfig._fields)
        if extra:
            raise SchemaError(f"unknown config keys: {sorted(extra)}")
        for key in ("seed", "instance_count", "support_cap", "denominator_cap", "workers"):
            if key in obj and not _is_int(obj[key]):
                raise SchemaError(f"config {key!r} must be an int, got {obj[key]!r}")
        if obj.get("support_cap", 1) < 1:
            raise SchemaError(f"config 'support_cap' must be >= 1, got {obj['support_cap']}")
        groups = obj.get("groups", [[0]])
        if not isinstance(groups, list) or not groups:
            raise SchemaError(f"config 'groups' must be a non-empty list of groups, got {groups!r}")
        for g in groups:
            _group(g)
        checks = obj.get("inequality_set", [])
        if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
            raise SchemaError(f"config 'inequality_set' must be a list of names, got {checks!r}")
        return FuzzConfig(**obj)


def submodularity_check(j: JointDist) -> MetricReport:
    """Ent(X12) + Ent(X0) <= Ent(X1) + Ent(X2) for a joint (X0, X1, X2, X12).

    The determination premise (X1 and X2 each determine X0, and (X1, X2)
    determines X12) is verified from the joint support before the bound is
    evaluated; a violated premise is an input error, not a counterexample.
    """
    if j.k != 4:
        raise PremiseError("joint must carry (X0, X1, X2, X12)")
    maps_10: dict = {}
    maps_20: dict = {}
    maps_12: dict = {}
    for x0, x1, x2, x12 in j.counts:
        if maps_10.setdefault(x1, x0) != x0:
            raise PremiseError("X1 does not determine X0")
        if maps_20.setdefault(x2, x0) != x0:
            raise PremiseError("X2 does not determine X0")
        if maps_12.setdefault((x1, x2), x12) != x12:
            raise PremiseError("(X1, X2) does not determine X12")
    lhs = joint_entropy(j, [3]) + joint_entropy(j, [0])
    rhs = joint_entropy(j, [1]) + joint_entropy(j, [2])
    return MetricReport("submodularity", lhs, rhs, {"atoms": len(j)})


# ---------------------------------------------------------------------------
# orchestration


def _run_instances(task: tuple[FuzzConfig, str, int, int]) -> dict:
    """Instances lo..hi-1 of one check under cfg, for task (cfg, check, lo, hi)."""
    cfg, check, lo, hi = task
    fn = CHECKS[check]
    rows = []
    skipped = 0
    for index in range(lo, hi):
        child = _child_seed(cfg.seed, check, index)
        rng = random.Random(child)
        try:
            reports = fn(rng, cfg)
        except CapExceededError:
            skipped += 1
            continue
        rows += [{"check": check, "index": index, "child_seed": child, **rep.to_json()} for rep in reports]
    return {"rows": rows, "skipped": skipped}


def fuzz_run(cfg: FuzzConfig, out_dir) -> dict:
    """Run the configured inequality set; write results and counterexamples.

    Returns a summary dict with per-name statistics and per-check skips; the
    caller maps a positive violation count to a nonzero exit code.
    """
    unknown = [c for c in cfg.inequality_set if c not in CHECKS]
    if unknown:
        raise SchemaError(f"unknown inequality names: {unknown}")
    if cfg.instance_count < 0:
        raise SchemaError(f"instance count must be >= 0, got {cfg.instance_count}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "counterexamples").mkdir(exist_ok=True)

    tasks = []
    workers = max(1, cfg.workers)
    for check in cfg.inequality_set:
        n = cfg.instance_count
        step = max(1, math.ceil(n / workers))
        for lo in range(0, n, step):
            tasks.append((cfg, check, lo, min(n, lo + step)))

    # a forked pool starts all of its processes at the first task, so it gets
    # no more than there are tasks or CPUs; chunking above still follows workers
    procs = min(workers, len(tasks), os.cpu_count() or 1)
    if procs <= 1:
        chunks = list(map(_run_instances, tasks))
    else:
        import concurrent.futures  # loads logging and traceback: only a pool pays for it
        with concurrent.futures.ProcessPoolExecutor(max_workers=procs) as pool:
            chunks = list(pool.map(_run_instances, tasks))

    rows = [row for chunk in chunks for row in chunk["rows"]]
    skips = dict.fromkeys(cfg.inequality_set, 0)  # per check, beside the total
    for (_, check, _, _), chunk in zip(tasks, chunks):
        skips[check] += chunk["skipped"]
    rows.sort(key=lambda r: (r["check"], r["index"], r["name"]))

    violations = 0
    for row in rows:
        row["witness_path"] = None
        if row["kind"] == "bound" and row["slack"] < -TOL:
            violations += 1
            ce = Counterexample(
                check=row["check"],
                name=row["name"],
                index=row["index"],
                child_seed=row["child_seed"],
                slack=row["slack"],
                version=__version__,
                witness=row["witness"],
                # workers does not affect generation; leaving it out keeps
                # counterexample names equal across worker counts
                config={k: v for k, v in cfg._asdict().items() if k != "workers"},
            )
            payload = json.dumps(ce._asdict(), sort_keys=True)
            digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
            rel = f"counterexamples/{row['name']}-{digest}.json"  # relative to out_dir
            (out / rel).write_text(payload + "\n")
            row["witness_path"] = rel
    per_name = _per_name(rows)
    for stats in per_name.values():
        row = stats["argmin"]
        stats["argmin"] = row and {k: row[k] for k in ("check", "index", "child_seed")}

    lines = []
    for row in rows:
        slim = {k: row[k] for k in
                ("check", "index", "name", "lhs", "rhs", "slack", "kind",
                 "witness_path")}
        lines.append(json.dumps(slim, sort_keys=True))
    (out / "results.jsonl").write_text("\n".join(lines) + ("\n" if lines else ""))

    summary = {
        "version": __version__,
        "seed": cfg.seed,
        "instances": cfg.instance_count,
        "violations": violations,
        "skipped": sum(skips.values()),
        "per_name": per_name,
        "stats": {"skipped": skips},
    }
    (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=1) + "\n")
    return summary


def replay(path) -> dict:
    """Recompute a stored counterexample and compare its slack.

    The stored instance is regenerated from its child seed under the stored
    config, so any tampering with the recorded slack (or a version drift that
    changes generation) shows up as a non-reproducing replay.
    """
    fields = {"check": str, "name": str, "child_seed": int, "slack": (int, float),
              "version": str, "config": dict}
    ce = require_object(_read(path), fields, "counterexample file")
    if ce["check"] not in CHECKS:
        raise SchemaError(f"unknown check {ce['check']!r}")
    cfg = FuzzConfig.from_json(ce["config"])
    rng = random.Random(ce["child_seed"])
    reports = CHECKS[ce["check"]](rng, cfg)
    matching = [r for r in reports if r.name == ce["name"]]
    if not matching:
        return {"reproduced": False, "reason": "report name absent", "stored": ce}
    new_slack = matching[0].slack
    reproduced = abs(new_slack - ce["slack"]) <= 1e-12
    out = {
        "reproduced": reproduced,
        "stored_slack": ce["slack"],
        "recomputed_slack": new_slack,
        "name": ce["name"],
        "check": ce["check"],
    }
    if ce["version"] != __version__:
        out["version_warning"] = f"stored {ce['version']}, current {__version__}"
    return out


def _per_name(rows) -> dict[str, dict]:
    """Per report name, in name order: the row count, the least slack, the first
    row attaining it (`argmin`), the number of rows with a witness file
    (`violations`) and the first row's kind."""
    per_name: dict[str, dict] = {}
    for row in rows:
        stats = per_name.setdefault(
            row["name"],
            {"count": 0, "min_slack": math.inf, "argmin": None, "violations": 0,
             "kind": row.get("kind")},
        )
        stats["count"] += 1
        if row["slack"] < stats["min_slack"]:
            stats["min_slack"] = row["slack"]
            stats["argmin"] = row
        stats["violations"] += row.get("witness_path") is not None
    return {k: per_name[k] for k in sorted(per_name)}


def report_render(rows) -> tuple[str, dict]:
    """Human-readable per-inequality table plus a machine summary."""
    for row in rows:
        require_object(row, {"name": str, "slack": (int, float)}, "results row")
    summary = {}
    for name, s in _per_name(rows).items():
        wit = s["argmin"] and s["argmin"].get("witness_path")
        summary[name] = {"count": s["count"], "min_slack": s["min_slack"], "argmin_witness": wit}
    header = f"{'inequality':34} {'count':>7} {'min slack':>14}  argmin witness"
    lines = [header, "-" * len(header)]
    for name, s in summary.items():
        lines.append(f"{name:34} {s['count']:>7} {s['min_slack']:>14.6e}  {s['argmin_witness'] or '-'}")
    return "\n".join(lines), summary
