"""Run the property-based verifier over the whole inequality set.

Every registered inequality is a theorem, so a violation is an
implementation bug; the campaign persists any violation as a replayable
counterexample file named by content hash.  This demo writes the campaign
into a temporary directory and removes it at the end.
"""

import json
import tempfile
from pathlib import Path

from entsum import FuzzConfig, fuzz_run, report_render

cfg = FuzzConfig(seed=20260809, instance_count=50, workers=1)
with tempfile.TemporaryDirectory(prefix="entsum-fuzz-") as tmp:
    out = Path(tmp)
    summary = fuzz_run(cfg, out)
    rows = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]

text, _ = report_render(rows)
print(text)
print(f"\nviolations: {summary['violations']}")
