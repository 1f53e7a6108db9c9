"""Fuzz orchestration: determinism, corpus persistence, replay, rendering."""

import hashlib
import json
import math
import pickle
from fractions import Fraction as F
from pathlib import Path

import pytest

from entsum.dists import Dist, JointDist, independent_joint
from entsum.errors import PremiseError, SchemaError
from entsum.fuzz import (
    DEFAULT_CHECKS,
    Counterexample,
    FuzzConfig,
    fuzz_run,
    replay,
    report_render,
    submodularity_check,
)
from entsum.groups import GroupSpec

Z2 = GroupSpec([2])
SEED1_PIN = Path(__file__).parent / "data" / "fuzz_seed1_results.sha256"
COUNTEREXAMPLES_PIN = Path(__file__).parent / "data" / "fuzz_counterexamples.sha256"


def small_cfg(**kw):
    base = dict(seed=11, instance_count=3)
    base.update(kw)
    return FuzzConfig(**base)


def test_fuzz_clean_run(tmp_path):
    summary = fuzz_run(small_cfg(), tmp_path)
    assert summary["violations"] == 0
    assert (tmp_path / "results.jsonl").exists()
    assert not list((tmp_path / "counterexamples").iterdir())
    for stats in summary["per_name"].values():
        assert stats["count"] >= 1
        if stats["kind"] == "bound":
            assert stats["min_slack"] >= -1e-9


def test_fuzz_empty_run(tmp_path):
    summary = fuzz_run(small_cfg(instance_count=0), tmp_path)
    assert summary["violations"] == 0
    assert (tmp_path / "results.jsonl").read_text() == ""


def test_fuzz_byte_identical(tmp_path):
    fuzz_run(small_cfg(), tmp_path / "a")
    fuzz_run(small_cfg(), tmp_path / "b")
    assert (tmp_path / "a/results.jsonl").read_bytes() == (
        tmp_path / "b/results.jsonl"
    ).read_bytes()


def test_fuzz_seed1_digest_pinned(tmp_path, pin=SEED1_PIN):
    # the results.jsonl bytes of this fixed campaign must not move under a
    # refactor; a missing pin fails rather than passing or being rewritten
    assert pin.exists(), f"pin file {pin} missing"
    fuzz_run(FuzzConfig(seed=1, instance_count=100, workers=1), tmp_path)
    digest = hashlib.sha256((tmp_path / "results.jsonl").read_bytes()).hexdigest()
    assert digest == pin.read_text().strip()


def test_fuzz_seed1_missing_pin_fails(tmp_path):
    with pytest.raises(AssertionError, match="missing"):
        test_fuzz_seed1_digest_pinned(tmp_path / "out", pin=tmp_path / "absent.sha256")
    assert not any(tmp_path.iterdir())


def test_fuzz_counterexample_digest_pinned(tmp_path, monkeypatch, pin=COUNTEREXAMPLES_PIN):
    # with the tolerance pushed past every slack, each bound row is written as
    # a counterexample; the names and bytes of those files, then summary.json,
    # must not move under a refactor, and a missing pin fails
    from entsum import fuzz as fuzz_mod

    assert pin.exists(), f"pin file {pin} missing"
    monkeypatch.setattr(fuzz_mod, "TOL", -math.inf)
    fuzz_run(FuzzConfig(seed=5, instance_count=2), tmp_path)
    h = hashlib.sha256()
    for path in sorted((tmp_path / "counterexamples").iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    h.update((tmp_path / "summary.json").read_bytes())
    assert h.hexdigest() == pin.read_text().strip()


def test_fuzz_counterexample_missing_pin_fails(tmp_path, monkeypatch):
    with pytest.raises(AssertionError, match="missing"):
        test_fuzz_counterexample_digest_pinned(tmp_path / "out", monkeypatch, pin=tmp_path / "absent.sha256")
    assert not any(tmp_path.iterdir())


def test_fuzz_workers_identical(tmp_path):
    fuzz_run(small_cfg(workers=1), tmp_path / "w1")
    fuzz_run(small_cfg(workers=4), tmp_path / "w4")
    assert (tmp_path / "w1/results.jsonl").read_bytes() == (
        tmp_path / "w4/results.jsonl"
    ).read_bytes()


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts no process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize(
    "workers, instances, checks, cpus, size",
    [
        (64, 3, ["eident"], 8, 3),  # 3 tasks on 8 CPUs
        (64, 100, ["eident", "triv"], 4, 4),  # 100 tasks on 4 CPUs
        (10**6, 2, ["eident", "triv", "ento"], 1000, 6),
        (3, 30, ["eident"], None, 1),  # an unknown CPU count runs in-process
        (2, 1, ["eident"], 8, 1),  # one task
    ],
)
def test_fuzz_pool_never_exceeds_tasks_or_cpus(tmp_path, monkeypatch, workers, instances, checks, cpus, size):
    import concurrent.futures

    from entsum import fuzz

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(fuzz.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    cfg = small_cfg(instance_count=instances, inequality_set=checks)
    fuzz_run(FuzzConfig(**{**cfg._asdict(), "workers": workers}), tmp_path / "pool")
    assert _InlinePool.sizes == ([size] if size > 1 else [])
    fuzz_run(cfg, tmp_path / "serial")
    assert (tmp_path / "pool/results.jsonl").read_bytes() == (tmp_path / "serial/results.jsonl").read_bytes()


def test_fuzz_rejects_unknown_names(tmp_path):
    with pytest.raises(SchemaError):
        fuzz_run(small_cfg(inequality_set=["nope"]), tmp_path)


def test_config_from_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 5, "instance_count": 2, "workers": 2}))
    cfg = FuzzConfig.from_json(path)
    assert cfg.seed == 5 and cfg.instance_count == 2
    path.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(SchemaError):
        FuzzConfig.from_json(path)


def test_config_is_a_frozen_value():
    cfg = small_cfg(groups=[[4]])
    with pytest.raises(AttributeError):
        cfg.seed = 12
    assert pickle.loads(pickle.dumps(cfg)) == cfg and cfg.seed == 11
    assert FuzzConfig().groups == ((0,), (8,)) and FuzzConfig().inequality_set == DEFAULT_CHECKS


def test_cli_flags_override_config_file(capsys, tmp_path):
    # --seed and --workers replace those fields of --config; the rest is kept
    from entsum.cli import main

    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 1, "instance_count": 3, "inequality_set": ["eident", "triv"],
                                "groups": [[4]], "workers": 1}))
    argv = ["fuzz", "--config", str(path), "--seed", "7", "--workers", "2", "--out", str(tmp_path / "o")]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 7
    fuzz_run(FuzzConfig.from_json(path)._replace(seed=7, workers=2), tmp_path / "api")
    for name in ("results.jsonl", "summary.json"):
        assert (tmp_path / "o" / name).read_bytes() == (tmp_path / "api" / name).read_bytes(), name


def test_replay_roundtrip(tmp_path):
    # fabricate a counterexample file from a real (passing) instance, then
    # check replay reproduces it, and flags a tampered slack
    from entsum.fuzz import CHECKS, _child_seed
    import random

    cfg = FuzzConfig()
    child = _child_seed(3, "eident", 0)
    rep = CHECKS["eident"](random.Random(child), cfg)[0]
    ce = Counterexample(
        check="eident",
        name=rep.name,
        index=0,
        child_seed=child,
        slack=rep.slack,
        version="0.1.0",
        witness={},
        config=cfg._asdict(),
    )
    path = tmp_path / "ce.json"
    path.write_text(json.dumps(ce._asdict()))
    out = replay(path)
    assert out["reproduced"]

    tampered = ce._asdict()
    tampered["slack"] = -0.1
    path.write_text(json.dumps(tampered))
    out = replay(path)
    assert not out["reproduced"]


def test_replay_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    with pytest.raises(SchemaError):
        replay(path)


def test_report_render(tmp_path):
    text, summary = report_render([])
    assert "inequality" in text
    rows = [
        {"name": "a", "slack": 0.5, "witness_path": None},
        {"name": "a", "slack": 0.2, "witness_path": "w.json"},
        {"name": "b", "slack": 1.0, "witness_path": None},
    ]
    text, summary = report_render(rows)
    assert summary["a"]["count"] == 2
    assert summary["a"]["min_slack"] == 0.2
    assert summary["a"]["argmin_witness"] == "w.json"
    assert list(summary) == ["a", "b"]


# ---------------------------------------------------------------------------
# submodularity


def fair_bit():
    return Dist.uniform(Z2, [(0,), (1,)])


def test_submodularity_product_equality():
    # X1 = (A,B), X2 = (B,C), X0 = B, X12 = (A,B,C) on independent fair bits
    g3 = GroupSpec([2, 2, 2])
    base = independent_joint(fair_bit(), fair_bit(), fair_bit())
    j = base.push(
        lambda a: (a[1], a[0] + a[1], a[1] + a[2], a[0] + a[1] + a[2]),
        [Z2, GroupSpec([2, 2]), GroupSpec([2, 2]), g3],
    )
    rep = submodularity_check(j)
    assert rep.slack == pytest.approx(0.0, abs=1e-12)


def test_submodularity_all_equal():
    j = JointDist(
        [Z2, Z2, Z2, Z2],
        {((0,),) * 4: F(1, 2), ((1,),) * 4: F(1, 2)},
    )
    rep = submodularity_check(j)
    assert rep.slack == pytest.approx(0.0, abs=1e-12)


def test_submodularity_premise_enforced():
    # X1 does not determine X0 here
    j = JointDist(
        [Z2, Z2, Z2, Z2],
        {
            ((0,), (0,), (0,), (0,)): F(1, 2),
            ((1,), (0,), (1,), (0,)): F(1, 2),
        },
    )
    with pytest.raises(PremiseError):
        submodularity_check(j)


def test_violation_path_writes_corpus_and_replays(tmp_path, monkeypatch):
    # inject a deliberately false inequality to exercise persistence + replay
    from entsum import fuzz as fuzz_mod
    from entsum.metrics import MetricReport

    def bogus(rng, cfg):
        return [MetricReport("bogus_bound", 1.0 + rng.random(), 0.5, {"note": "injected"})]

    monkeypatch.setitem(fuzz_mod.CHECKS, "bogus", bogus)
    cfg = FuzzConfig(seed=1, instance_count=3, inequality_set=["bogus"])
    summary = fuzz_run(cfg, tmp_path)
    assert summary["violations"] == 3
    files = list((tmp_path / "counterexamples").iterdir())
    assert len(files) == 3
    out = replay(files[0])
    assert out["reproduced"]  # same seed regenerates the same slack


def test_violation_results_independent_of_out_dir(tmp_path, monkeypatch):
    # witness paths in results.jsonl are relative to the campaign directory,
    # so a campaign with violations writes the same bytes wherever it runs
    from entsum import fuzz as fuzz_mod
    from entsum.metrics import MetricReport

    def bogus(rng, cfg):
        return [MetricReport("bogus_bound", 1.0 + rng.random(), 0.5, {"note": "injected"})]

    monkeypatch.setitem(fuzz_mod.CHECKS, "bogus", bogus)
    cfg = FuzzConfig(seed=1, instance_count=3, inequality_set=["bogus"])
    for out in (tmp_path / "a", tmp_path / "deeper" / "b"):
        assert fuzz_run(cfg, out)["violations"] == 3
    first, second = ((tmp_path / d / "results.jsonl").read_bytes() for d in ("a", "deeper/b"))
    assert first == second
    for line in first.decode().splitlines():
        witness = json.loads(line)["witness_path"]
        assert witness.startswith("counterexamples/") and replay(tmp_path / "a" / witness)["reproduced"]


def test_replay_uses_stored_config(capsys, tmp_path, monkeypatch):
    # instances drawn under a non-default config must replay under that config
    from entsum import fuzz as fuzz_mod
    from entsum.cli import main
    from entsum.metrics import MetricReport

    triv = fuzz_mod.CHECKS["triv"]

    def shifted_triv(rng, cfg):
        ent_sum = triv(rng, cfg)[2].lhs  # Ent(X + Y) of the drawn instance
        return [MetricReport("shifted_sum_entropy", 1.0 + ent_sum, 0.0, {})]

    monkeypatch.setitem(fuzz_mod.CHECKS, "shifted", shifted_triv)
    cfg = FuzzConfig(seed=4, instance_count=5, support_cap=2, denominator_cap=8,
                     groups=[[4]], inequality_set=["shifted"])
    assert fuzz_run(cfg, tmp_path)["violations"] == 5
    files = sorted((tmp_path / "counterexamples").iterdir())
    assert len(files) == 5
    for path in files:
        stored = json.loads(path.read_text())
        assert stored["config"]["support_cap"] == 2 and stored["config"]["groups"] == [[4]]
        assert main(["replay", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["reproduced"]


def test_replay_requires_config(tmp_path):
    path = tmp_path / "ce.json"
    ce = {"check": "triv", "name": "sum_upper", "child_seed": 1, "slack": 0.0,
          "version": "0.1.0"}
    path.write_text(json.dumps(ce))
    with pytest.raises(SchemaError):
        replay(path)
    path.write_text(json.dumps({**ce, "config": {"bogus": 1}}))
    with pytest.raises(SchemaError):
        replay(path)


def test_replay_mistyped_config(capsys, tmp_path):
    from entsum.cli import main

    path = tmp_path / "ce.json"
    ce = {"check": "triv", "name": "sum_upper", "child_seed": 1, "slack": 0.0,
          "version": "0.1.0"}
    for config in ({"support_cap": "x"}, {"groups": [["4"]]}, {"denominator_cap": True}):
        path.write_text(json.dumps({**ce, "config": config}))
        assert main(["replay", str(path)]) == 2, config
        assert "schema error" in capsys.readouterr().err, config


def test_cap_violations_skipped_with_counts(tmp_path, monkeypatch):
    from entsum import fuzz as fuzz_mod
    from entsum.errors import CapExceededError
    from entsum.metrics import MetricReport

    def capped(rng, cfg):
        if rng.random() < 0.5:
            raise CapExceededError("instance too large")
        return [MetricReport("sometimes", 0.0, 1.0, {})]

    monkeypatch.setitem(fuzz_mod.CHECKS, "capped", capped)
    cfg = FuzzConfig(seed=2, instance_count=20, inequality_set=["capped"])
    summary = fuzz_run(cfg, tmp_path)
    assert summary["violations"] == 0
    assert summary["skipped"] > 0
    assert summary["skipped"] + summary["per_name"]["sometimes"]["count"] == 20
    assert summary["stats"]["skipped"] == {"capped": summary["skipped"]}

    # per check, beside an uncapped one; the same summary.json for any worker count
    for workers in (1, 4):
        cfg = FuzzConfig(seed=2, instance_count=20, inequality_set=["capped", "triv"], workers=workers)
        fuzz_run(cfg, tmp_path / f"w{workers}")
    summary = json.loads((tmp_path / "w1" / "summary.json").read_text())
    assert sum(summary["stats"]["skipped"].values()) == summary["skipped"] > 0
    assert summary["stats"]["skipped"]["triv"] == 0
    assert (tmp_path / "w1" / "summary.json").read_bytes() == (tmp_path / "w4" / "summary.json").read_bytes()
    assert (tmp_path / "w1" / "results.jsonl").read_bytes() == (tmp_path / "w4" / "results.jsonl").read_bytes()


def test_forced_abbn_violation_is_written_and_replays(capsys, tmp_path, monkeypatch):
    # with the tolerance pushed past every slack, each abbn instance is a
    # violation; its file must hold a valid witness and replay the slack
    from entsum import fuzz as fuzz_mod
    from entsum.cli import main
    from entsum.torsionfree import PiecewiseDensity, abbn_check

    monkeypatch.setattr(fuzz_mod, "TOL", -math.inf)
    cfg = FuzzConfig(seed=3, instance_count=4, inequality_set=["abbn"])
    assert fuzz_run(cfg, tmp_path)["violations"] == 4
    files = sorted((tmp_path / "counterexamples").iterdir())
    assert len(files) == 4
    for path in files:
        stored = json.loads(path.read_text())
        assert stored["check"] == "abbn" and stored["name"] == "continuous_sum_lower_bound"
        f, g = (PiecewiseDensity(w["breaks"], [tuple(F(x) for x in p) for p in w["pieces"]])
                for w in (stored["witness"][k] for k in "fg"))
        assert abbn_check(f, g).slack == stored["slack"]
        assert main(["replay", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["reproduced"]
