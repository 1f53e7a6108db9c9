"""End-to-end CLI coverage: every subcommand, file formats, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from entsum.cli import main
from entsum.fileio import dump_dist, dump_joint, load_dist, load_joint
from entsum.dists import Dist, JointDist, independent_joint
from entsum.errors import SchemaError
from entsum.groups import GroupSpec
from fractions import Fraction as F

Z = GroupSpec([0])
Z2 = GroupSpec([2])
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def dist_file(tmp_path):
    p = Dist(Z, {(0,): F(1, 2), (1,): F(1, 4), (2,): F(1, 4)})
    path = tmp_path / "p.json"
    path.write_text(json.dumps(dump_dist(p)))
    return path


@pytest.fixture
def uniform_z8_file(tmp_path):
    g = GroupSpec([8])
    p = Dist.uniform(g, [(i,) for i in range(8)])
    path = tmp_path / "u8.json"
    path.write_text(json.dumps(dump_dist(p)))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_roundtrip_formats(tmp_path):
    p = Dist(Z, {(0,): F(2, 3), (5,): F(1, 3)})
    assert load_dist(dump_dist(p)) == p
    j = independent_joint(p, p)
    assert load_joint(dump_joint(j)) == j


def test_loader_rejects_unnormalised():
    with pytest.raises(SchemaError):
        load_dist({"group": [0], "atoms": [{"x": [0], "num": 1, "den": 2}]})
    with pytest.raises(SchemaError):
        load_dist({"group": [0], "atoms": [{"x": [0], "value": 1.0}]})


BAD_DISTS = [
    {"group": [0], "atoms": [5]},
    {"group": [0], "atoms": {"x": [0], "num": 1, "den": 1}},
    {"group": [0], "atoms": [{"x": [0], "num": True, "den": 1}]},
    {"group": [0], "atoms": [{"x": [0], "num": 1, "den": True}]},
    {"group": [0], "atoms": [{"x": 0, "num": 1, "den": 1}]},
    {"group": [0], "atoms": [{"x": ["a"], "num": 1, "den": 1}]},
    {"group": [True], "atoms": [{"x": [0], "num": 1, "den": 1}]},
    # negative masses that still sum to 1
    {"group": [0], "atoms": [{"x": [0], "num": -1, "den": 2}, {"x": [1], "num": 3, "den": 2}]},
    # unknown keys at the top level and in an atom
    {"group": [0], "atoms": [{"x": [0], "num": 1, "den": 1}], "name": "p"},
    {"group": [0], "atoms": [{"x": [0], "num": 1, "den": 1, "weight": 1}]},
]
BAD_JOINTS = [
    {"groups": [[0], [0]], "atoms": [5]},
    {"groups": [[0], [0]], "atoms": [{"xs": [[0], [0]], "num": True, "den": 1}]},
    {"groups": [[0], [0]], "atoms": [{"xs": [0, [0]], "num": 1, "den": 1}]},
    {"groups": [[0], [0]], "atoms": [{"xs": [["a"], [0]], "num": 1, "den": 1}]},
    {"groups": [[0], [0]], "atoms": [{"xs": [[0], [0]], "num": -1, "den": 1},
                                     {"xs": [[1], [0]], "num": 2, "den": 1}]},
    {"groups": [[0], [0]], "atoms": [{"xs": [[0], [0]], "num": 1, "den": 1}], "k": 2},
    {"groups": [[0], [0]], "atoms": [{"xs": [[0], [0]], "num": 1, "den": 1, "x": [0]}]},
    # a joint of no coordinates, which the constructor refuses
    {"groups": [], "atoms": [{"xs": [], "num": 1, "den": 1}]},
]


@pytest.mark.parametrize("obj", BAD_DISTS)
def test_load_dist_schema_errors(obj):
    with pytest.raises(SchemaError):
        load_dist(obj)


@pytest.mark.parametrize("obj", BAD_JOINTS)
def test_load_joint_schema_errors(obj):
    with pytest.raises(SchemaError):
        load_joint(obj)


def test_malformed_files_exit_2(capsys, tmp_path):
    # exit 1 is reserved for violations found
    for n, obj in enumerate(BAD_DISTS):
        path = tmp_path / f"d{n}.json"
        path.write_text(json.dumps(obj))
        assert main(["entropy", str(path)]) == 2, obj
    for n, obj in enumerate(BAD_JOINTS):
        path = tmp_path / f"j{n}.json"
        path.write_text(json.dumps(obj))
        assert main(["bsg", str(path)]) == 2, obj
    broken = tmp_path / "broken.json"
    broken.write_text("{\"group\": [0], ")
    assert main(["entropy", str(broken)]) == 2


def test_unreadable_inputs_exit_2(capsys, tmp_path):
    # a directory, bytes that are not UTF-8, an existing file as the output
    # directory and malformed records are usage/schema errors, never a traceback
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"group": [0], "atoms": "\xe9"}')
    record = {"check": "triv", "name": "sum_upper", "child_seed": 1, "slack": 0.0,
              "version": "0.1.0", "config": {}}
    cases = [
        ["entropy", str(tmp_path)],
        ["entropy", str(latin1)],
        ["fuzz", "--config", str(tmp_path), "--out", str(tmp_path / "o")],
        ["fuzz", "--count", "1", "--out", write("existing", "")],
        ["report", write("bad.jsonl", "{not json\n")],
        ["report", str(tmp_path)],
        ["report", write("noname.jsonl", '{"slack": 0.0}\n')],
        ["report", write("list.jsonl", "[1, 2]\n")],
        ["report", write("strslack.jsonl", '{"name": "a", "slack": "x"}\n')],
        ["report", write("boolslack.jsonl", '{"name": "x", "slack": true}\n')],
        ["report", write("nanslack.jsonl", '{"name": "x", "slack": NaN}\n')],
        ["report", write("infslack.jsonl", '{"name": "x", "slack": Infinity}\n')],
        ["report", write("neginfslack.jsonl", '{"name": "x", "slack": -Infinity}\n')],
        ["replay", write("bad.json", "{not json")],
        ["replay", write("five.json", "5")],
        ["replay", write("strseed.json", json.dumps({**record, "child_seed": "1"}))],
        ["replay", write("boolseed.json", json.dumps({**record, "child_seed": True}))],
        ["replay", write("infslack.json", json.dumps({**record, "slack": math.inf}))],
        ["replay", write("listcheck.json", json.dumps({**record, "check": ["triv"]}))],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "error" in err and "Traceback" not in err, argv


ATOM_FIELDS = st.fixed_dictionaries(
    {"x": st.lists(st.integers(-2, 4), min_size=1, max_size=2), "num": st.integers(-1, 2),
     "den": st.integers(0, 2)}
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["group", "atoms", "x", "num", "den"]) | st.text(max_size=2),
                      inner, max_size=4),
    max_leaves=16,
)
NEAR_DISTS = st.fixed_dictionaries(
    {"group": st.lists(st.integers(-1, 4), min_size=1, max_size=1),
     "atoms": st.lists(ATOM_FIELDS, min_size=1, max_size=3)}
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(obj=JSON_VALUES | NEAR_DISTS)
def test_any_json_loads_as_dist_or_schema_error(tmp_path, obj):
    path = tmp_path / "any.json"
    path.write_text(json.dumps(obj))
    try:
        p = load_dist(str(path))
    except SchemaError:
        return
    assert isinstance(p, Dist) and sum(v for _, v in p) == 1


def test_entropy_command(capsys, dist_file):
    code, out = run(capsys, "entropy", str(dist_file))
    assert code == 0
    assert json.loads(out)["entropy"] == pytest.approx(1.5 * math.log(2), abs=1e-9)


def test_doubling_and_ruzsa(capsys, dist_file):
    code, out = run(capsys, "doubling", str(dist_file))
    assert code == 0 and json.loads(out)["doubling"] >= 1.0
    code, out = run(capsys, "ruzsa", str(dist_file), str(dist_file))
    assert code == 0 and json.loads(out)["ruzsa_distance"] >= -1e-9


def test_transport_exact_command(capsys, tmp_path):
    p = Dist(Z2, {(0,): F(3, 4), (1,): F(1, 4)})
    u = Dist.uniform(Z2, [(0,), (1,)])
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    pa.write_text(json.dumps(dump_dist(p)))
    pb.write_text(json.dumps(dump_dist(u)))
    out_path = tmp_path / "cert.json"
    code, out = run(capsys, "transport", str(pa), str(pb), "--exact", "--out", str(out_path))
    assert code == 0
    assert json.loads(out)["cost"] == pytest.approx(0.562335, abs=1e-6)
    cert = json.loads(out_path.read_text())
    assert cert["coupling"]


def test_transport_construct_uniform_target(capsys, tmp_path, uniform_z8_file):
    g = GroupSpec([8])
    p = Dist(g, {(i,): (F(3, 16) if i < 4 else F(1, 16)) for i in range(8)})
    src = tmp_path / "src.json"
    src.write_text(json.dumps(dump_dist(p)))
    code, out = run(capsys, "transport", str(src), str(uniform_z8_file), "--construct")
    assert code == 0
    payload = json.loads(out)
    assert payload["cost"] >= 0.0


def test_transport_construct_wraparound_translate(capsys, tmp_path):
    g = GroupSpec([4])
    p = Dist(g, {(0,): F(1, 3), (3,): F(2, 3)})
    q = p.translate((1,))
    src, dst = tmp_path / "src.json", tmp_path / "dst.json"
    src.write_text(json.dumps(dump_dist(p)))
    dst.write_text(json.dumps(dump_dist(q)))
    code, out = run(capsys, "transport", str(src), str(dst), "--construct")
    assert code == 0
    payload = json.loads(out)
    assert payload["cost"] == 0.0
    assert payload["target"] == dump_dist(q)["atoms"]
    assert {tuple(a["z"]) for a in payload["coupling"]} == {(1,)}


def test_transport_construct_beyond_enumeration_cap(capsys, tmp_path):
    # uniformity of the target is read off q, not off an enumeration of Z/200000
    g = GroupSpec([200_000])
    p = Dist(g, {(0,): F(1, 2), (1,): F(1, 2)})
    q = Dist(g, {(0,): F(1, 3), (5,): F(2, 3)})
    src, dst = tmp_path / "src.json", tmp_path / "dst.json"
    src.write_text(json.dumps(dump_dist(p)))
    dst.write_text(json.dumps(dump_dist(q)))
    code, out = run(capsys, "transport", str(src), str(dst), "--construct")
    assert code == 0
    payload = json.loads(out)
    assert payload["target"] == dump_dist(q)["atoms"]
    assert payload["cost"] >= 0.0


def test_bsg_command(capsys, tmp_path):
    j = JointDist(
        [Z2, Z2],
        {((0,), (0,)): F(1, 2), ((0,), (1,)): F(1, 4), ((1,), (1,)): F(1, 4)},
    )
    path = tmp_path / "j.json"
    path.write_text(json.dumps(dump_joint(j)))
    code, out = run(capsys, "bsg", str(path))
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert {l["name"] for l in lines} == {
        "bsg_first_trial_lower",
        "bsg_second_trial_lower",
        "bsg_weak_difference",
        "bsg_independent_sum",
    }
    assert all(l["slack"] >= -1e-9 for l in lines)


def test_inverse_command(capsys, tmp_path):
    g = GroupSpec([4])
    p = Dist.uniform(g, [(1,), (3,)])
    path = tmp_path / "c.json"
    path.write_text(json.dumps(dump_dist(p)))
    code, out = run(capsys, "inverse", str(path))
    payload = json.loads(out)
    assert code == 0
    assert payload["coset"]["is_coset_uniform"]
    assert payload["coset"]["doubling"] == pytest.approx(1.0, abs=1e-9)


def test_inverse_command_on_trivial_group(capsys, tmp_path):
    # the one element of the trivial group is (), which is falsy but not absent
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"group": [], "atoms": [{"x": [], "num": 1, "den": 1}]}))
    code, out = run(capsys, "inverse", str(path))
    coset = json.loads(out)["coset"]
    assert code == 0
    assert coset["is_coset_uniform"] and coset["base"] == [] and coset["subgroup"] == [[]]


def test_experiment_commands(capsys, dist_file, tmp_path):
    code, out = run(capsys, "experiment", "binomial-doubling", "--n", "16")
    assert code == 0 and json.loads(out)["doubling"] > 1.3
    code, out = run(capsys, "experiment", "bridge", str(dist_file))
    payload = json.loads(out)
    assert code == 0
    assert payload["continuous_entropy"] == pytest.approx(payload["discrete_entropy"], abs=1e-9)
    u16 = Dist.uniform(Z, [(i,) for i in range(16)])
    path = tmp_path / "u16.json"
    path.write_text(json.dumps(dump_dist(u16)))
    code, out = run(capsys, "experiment", "smooth-shift", str(path), "--mu", "0.1")
    assert code == 0 and json.loads(out)["realized_tv"] == pytest.approx(0.125, abs=1e-9)
    code, out = run(capsys, "experiment", "entxx", "--n", "64", "--k", "2")
    assert code == 0 and "gap" in json.loads(out)


def test_fuzz_replay_report_commands(capsys, tmp_path):
    out_dir = tmp_path / "fz"
    code, out = run(
        capsys, "fuzz", "--seed", "3", "--count", "2", "--out", str(out_dir)
    )
    assert code == 0
    assert json.loads(out)["violations"] == 0
    code, out = run(capsys, "report", str(out_dir / "results.jsonl"))
    assert code == 0 and "inequality" in out


def test_usage_errors(capsys, tmp_path):
    assert main(["entropy", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"group": [0], "atoms": [{"x": [0], "num": 1, "den": 2}]}))
    assert main(["entropy", str(bad)]) == 2
    assert main(["transport", str(bad), str(bad)]) == 2  # argparse: missing mode


def test_fuzz_config_flag(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 9, "instance_count": 1,
                                    "inequality_set": ["triv", "eident"]}))
    out_dir = tmp_path / "out"
    code, out = run(capsys, "fuzz", "--config", str(cfg_path), "--out", str(out_dir))
    assert code == 0
    summary = json.loads(out)
    assert summary["seed"] == 9
    names = set(summary["per_name"])
    assert "ruzsa_nonnegative" in names and "conditional_entropy_identity" in names


BAD_FUZZ_CONFIGS = [
    [], "x", {"support_cap": "x"}, {"seed": True}, {"instance_count": 1.5},
    {"denominator_cap": None}, {"workers": "2"}, {"support_cap": 0}, {"groups": []},
    {"groups": [4]}, {"groups": [[4.5]]}, {"groups": [[-1]]}, {"inequality_set": "triv"},
    {"inequality_set": [1]},
]


def test_fuzz_config_schema_errors(capsys, tmp_path):
    # a malformed config is a schema error (exit 2), never a traceback
    cfg_path = tmp_path / "cfg.json"
    out_dir = tmp_path / "out"
    for obj in BAD_FUZZ_CONFIGS:
        cfg_path.write_text(json.dumps(obj))
        assert main(["fuzz", "--config", str(cfg_path), "--out", str(out_dir)]) == 2, obj
        assert "schema error" in capsys.readouterr().err, obj
    cfg_path.write_text("{not json")
    assert main(["fuzz", "--config", str(cfg_path), "--out", str(out_dir)]) == 2
    assert not out_dir.exists()


def test_negative_fuzz_count_exits_2(capsys, tmp_path):
    # a negative instance count is a schema error, from --count or the config
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"instance_count": -3}))
    out_dir = tmp_path / "out"
    for argv in (["--count", "-2"], ["--config", str(cfg_path)],
                 ["--config", str(cfg_path), "--count", "-1"]):
        assert main(["fuzz", *argv, "--out", str(out_dir)]) == 2, argv
        assert "schema error" in capsys.readouterr().err, argv
        assert not (out_dir / "results.jsonl").exists(), argv
    for argv in (["--count", "0"], ["--config", str(cfg_path), "--count", "0"]):
        code, out = run(capsys, "fuzz", *argv, "--out", str(out_dir))
        assert code == 0 and json.loads(out)["instances"] == 0, argv


def test_check_command(capsys, tmp_path):
    p = Dist.uniform(Z, [(0,), (1,)])
    path = tmp_path / "p.json"
    path.write_text(json.dumps(dump_dist(p)))
    out_dir = tmp_path / "wit"
    code, out = run(capsys, "check", str(path), str(path), "--n", "1",
                    "--out", str(out_dir))
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    names = {l["name"] for l in lines}
    assert "ruzsa_triangle" in names and "doubling_chain_bound" in names
    for l in lines:
        assert set(l) == {"name", "lhs", "rhs", "slack", "witness_path"}
        assert (out_dir / f"witness-{l['name']}.json").exists()


def _run_with_closed_stdout(*argv):
    # stdout is a pipe whose read end is closed before the command starts, as
    # when the reader of `entsum ... | head` has already gone away
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "entsum.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    finally:
        os.close(write_end)


def test_closed_stdout_is_not_a_file_error(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(dump_dist(Dist.uniform(Z, [(0,), (3,)]))))
    r = _run_with_closed_stdout("check", str(path), str(path), str(path))
    assert r.returncode == 141, r.stderr
    assert r.stderr == ""


def test_unreadable_input_with_closed_stdout_exits_2(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(dump_dist(Dist.uniform(Z, [(0,), (3,)]))))
    r = _run_with_closed_stdout("check", str(path), str(path), str(tmp_path / "missing.json"))
    assert r.returncode == 2
    assert "file error" in r.stderr and "Traceback" not in r.stderr


def test_global_flags(capsys, tmp_path):
    # fuzz options belong to the fuzz subcommand; the top-level form is a usage error
    out_dir = tmp_path / "gf"
    for flags in (["--seed", "4"], ["--workers", "1"], ["--out", str(out_dir)],
                  ["--config", str(tmp_path / "cfg.json")]):
        assert main([*flags, "fuzz", "--count", "1"]) == 2
    assert not out_dir.exists()


@pytest.mark.parametrize("q", [Dist.uniform(Z2, [(0,), (1,)]), Dist.point(Z, (0,))], ids=["Z/2", "Z"])
def test_transport_endpoints_in_other_groups_exit_2(capsys, tmp_path, q):
    # --construct used to certify a law on Z/4 against the uniform law on Z/4
    # when asked for Z/2, and to die with a traceback when asked for Z
    p = Dist(GroupSpec([4]), {(0,): F(1, 2), (1,): F(1, 4), (3,): F(1, 4)})
    src, dst = tmp_path / "src.json", tmp_path / "dst.json"
    src.write_text(json.dumps(dump_dist(p)))
    dst.write_text(json.dumps(dump_dist(q)))
    for mode in ("--construct", "--exact"):
        assert main(["transport", str(src), str(dst), mode]) == 2, mode
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "share a group" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["binomial-doubling", "--n", "0"],
    ["binomial-doubling", "--n", "1"],
    ["smooth-shift", "DIST", "--mu", "2"],
    ["entxx", "--n", "0", "--k", "2"],
    ["entxx", "--n", "-3", "--k", "2"],
], ids=["n=0", "n=1", "mu=2", "entxx-n=0", "entxx-n=-3"])
def test_experiment_argument_errors_exit_2(capsys, dist_file, argv):
    argv = [str(dist_file) if a == "DIST" else a for a in argv]
    assert main(["experiment", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
