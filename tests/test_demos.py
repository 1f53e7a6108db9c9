"""Every narrative script under demos/ runs to completion and prints its pinned output.

`tests/data/demos_stdout.sha256` holds the sha256 of each demo's stdout, in
`sha256sum` format. A refactor must not move them; a missing pin fails.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PIN = ROOT / "tests" / "data" / "demos_stdout.sha256"


def _pinned(pin=PIN) -> dict:
    assert pin.exists(), f"pin file {pin} missing"
    return {name: digest for digest, name in (line.split() for line in pin.read_text().splitlines())}


def test_demos_present():
    assert DEMOS
    assert set(_pinned()) == {d.name for d in DEMOS}


def test_demos_missing_pin_fails(tmp_path):
    with pytest.raises(AssertionError, match="missing"):
        _pinned(tmp_path / "absent.sha256")


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))  # so that leftovers show up below
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    r = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                       capture_output=True, timeout=300)
    assert r.returncode == 0, r.stderr.decode()[-2000:]
    assert not list(tmp_path.glob("entsum-fuzz-*")), "demo left its campaign directory behind"
    assert hashlib.sha256(r.stdout).hexdigest() == _pinned().get(demo.name), "stdout moved"
