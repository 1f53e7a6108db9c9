"""Smoke test of `scripts/oracle_latency.py` on one tiny source.

The script regenerates README's oracle latency table; this runs its pieces on
a 2-atom source sent to the uniform law on Z/8, one call, so that the table
stays reproducible without timing the full classes in the suite.
"""

import importlib.util
from pathlib import Path

from entsum.dists import Dist
from entsum.groups import GroupSpec

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "oracle_latency.py"


def _script():
    spec = importlib.util.spec_from_file_location("oracle_latency", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_times_one_tiny_source():
    script = _script()
    g = GroupSpec([8])
    (p,) = script.sources(2, 1)
    assert len(p) == 2 and p.group == g
    times = script.latencies([p], Dist.uniform(g, g.elements()), 24, 1)
    assert len(times) == 1 and times[0] > 0
    row = script.table_row(2, 1, "16", times)
    assert row.startswith("| 2 atoms → uniform on Z/8, 1 sources | 16 | median ") and row.endswith(" s |")
