"""The public name table and per-command imports.

`entsum/__init__.py` lists each public name once and resolves it on first
access, and each CLI command imports only the modules it runs; the heavy ones
(numpy, the transport kernel, the torsion-free experiments, the fuzzer) stay
unloaded by the commands that do not need them.  Every record is a
`NamedTuple`, so no command loads `dataclasses`, which would pull in
`inspect`, `ast` and `dis`.
"""

import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from importlib import import_module
from pathlib import Path

import pytest

import entsum
from entsum.dists import Dist, JointDist
from entsum.fileio import dump_dist, dump_joint, save_json
from entsum.groups import GroupSpec

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("numpy", "entsum.transport", "entsum.torsionfree", "entsum.fuzz")
SLOW = ("dataclasses", "inspect")  # 7-13 ms of a cold call; no entsum module imports them
POOL = "concurrent.futures"  # with logging and traceback; only a fuzz run with a process pool loads it
WATCHED = HEAVY + ("entsum.metrics", "entsum.progressions") + SLOW + (POOL,)

# the public names before they moved into one table
PUBLIC = frozenset({
    "GroupSpec", "is_subgroup",
    "Dist", "JointDist", "entropy", "convolve", "iterated_convolve",
    "joint_entropy", "conditional_entropy", "ci_trials",
    "tv_distance", "independent_joint",
    "MetricReport", "ruzsa_distance", "doubling_constant", "check_ese_suite",
    "check_lipschitz", "sumset_increase_lhs", "jensen_level_sets", "three_sum_bound",
    "CosetProgression", "BoxEmbedding", "is_t_proper", "uniform_on", "box_embedding",
    "TransportCertificate", "FlattenTrace", "transport_exact", "transport_split",
    "flatten", "uniformise_group", "uniformise_coset_progression",
    "identity_certificate", "independent_noise_certificate",
    "independent_pair_certificate", "reverse_certificate", "compose_certificates",
    "BsgInstance", "build_path_joint", "verify_bsg",
    "CosetReport", "CoreReport", "detect_coset_uniform", "effective_support",
    "additive_energy", "verify_inverse_fixtures",
    "PiecewiseDensity", "SpectrumReport", "binomial_dist", "binomial_entropy_gap",
    "doubling_experiment", "entxx_explore", "continuous_entropy", "bridge_entropy",
    "abbn_check", "smooth_shift_search",
    "FuzzConfig", "Counterexample", "fuzz_run", "submodularity_check", "replay",
    "report_render",
})


def _loaded_in_fresh_interpreter(*argv) -> list[str]:
    """Run `entsum.cli.main(argv)` (or just `import entsum`) in a new process and
    return which WATCHED modules it loaded that were not loaded before
    `import entsum`, such as by a site hook."""
    code = (
        "import sys, json\n"
        "before = set(sys.modules)\n"
        "import entsum\n"
        "if sys.argv[1:]:\n"
        "    from entsum.cli import main\n"
        "    assert main(sys.argv[1:]) == 0\n"
        f"new = [m for m in {WATCHED!r} if m in sys.modules and m not in before]\n"
        "print(json.dumps(new), file=sys.stderr)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr[-2000:]
    return json.loads(r.stderr.splitlines()[-1])


def test_commands_load_only_their_modules(tmp_path, monkeypatch):
    z8 = GroupSpec([8])
    dist = tmp_path / "p.json"
    save_json(dist, dump_dist(Dist(z8, {(0,): F(1, 2), (3,): F(1, 3), (5,): F(1, 6)})))
    joint = tmp_path / "j.json"
    atoms = {((x,), (y,)): F(1, 4) for x in range(2) for y in range(2)}
    save_json(joint, dump_joint(JointDist([z8, z8], atoms)))
    d = str(dist)
    assert _loaded_in_fresh_interpreter() == []
    for argv in (["entropy", d], ["doubling", d], ["ruzsa", d, d], ["check", d, d, d],
                 ["bsg", str(joint)], ["inverse", d]):
        loaded = _loaded_in_fresh_interpreter(*argv)
        assert not set(loaded) & set(HEAVY + SLOW), (argv, loaded)
    # the exact oracle runs in Python ints: its cold path loads no numpy; and
    # transport loads metrics (for the density levels) only to uniformise
    point = tmp_path / "q.json"
    save_json(point, dump_dist(Dist.point(z8, (1,))))
    uniform = tmp_path / "u.json"
    save_json(uniform, dump_dist(Dist.uniform(z8, z8.elements())))
    for flag in ("--exact", "--construct"):
        assert _loaded_in_fresh_interpreter("transport", d, str(point), flag) == ["entsum.transport"], flag
    assert _loaded_in_fresh_interpreter("transport", d, str(uniform), "--construct") == [
        "entsum.transport", "entsum.metrics"]
    # the experiments load no dataclasses either; smooth-shift's Fourier search
    # loads numpy, which itself imports inspect
    walk = tmp_path / "z.json"
    save_json(walk, dump_dist(Dist(GroupSpec([0]), {(0,): F(1, 2), (3,): F(1, 3), (5,): F(1, 6)})))
    for argv in (["binomial-doubling", "--n", "5"], ["bridge", str(walk)],
                 ["smooth-shift", str(walk), "--mu", "0.5"], ["entxx", "--n", "4", "--k", "2"]):
        loaded = set(_loaded_in_fresh_interpreter("experiment", *argv))
        allowed = {"inspect"} if "numpy" in loaded else set()
        assert not loaded & set(SLOW) - allowed, (argv, loaded)
    # the fuzzer and the commands that read its output load neither, and a
    # one-process campaign loads no process pool
    from entsum import fuzz

    out = tmp_path / "fuzz-out"
    monkeypatch.setattr(fuzz, "TOL", -math.inf)  # every bound row is written as a counterexample
    fuzz.fuzz_run(fuzz.FuzzConfig(seed=1, instance_count=1, inequality_set=["triv"]), tmp_path / "forced")
    witness = min((tmp_path / "forced" / "counterexamples").iterdir())
    for argv in (["fuzz", "--count", "2", "--out", str(out)], ["report", str(out / "results.jsonl")],
                 ["replay", str(witness)]):
        loaded = _loaded_in_fresh_interpreter(*argv)
        assert not set(loaded) & {*SLOW, POOL}, (argv, loaded)


def test_public_names_listed_once():
    assert len(entsum.__all__) == len(set(entsum.__all__)) == 62
    assert set(entsum.__all__) == PUBLIC
    source = (SRC / "entsum" / "__init__.py").read_text()
    code = source[source.index('"""', 3) + 3:]  # after the module docstring
    for name in entsum.__all__:
        assert len(re.findall(rf"\b{name}\b", code)) == 1, name


def test_public_names_resolve_to_defining_module():
    for name in entsum.__all__:
        obj = getattr(entsum, name)
        assert obj.__module__.startswith("entsum."), name
        assert getattr(import_module(obj.__module__), name) is obj, name
    assert not PUBLIC & set(vars(entsum)), "resolved names are not cached in the package"
    namespace = {}
    exec("from entsum import *", namespace)
    assert PUBLIC <= set(namespace)


def test_unknown_names_and_submodules():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        entsum.nonexistent
    from entsum import transport

    assert transport is sys.modules["entsum.transport"]
