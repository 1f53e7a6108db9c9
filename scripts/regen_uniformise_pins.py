"""Regenerate criterion 5's pinned uniformisation costs.

Criterion 5 compares every fixture's certificate cost with
tests/data/uniformise_costs.json and fails when that file is missing; it never
writes the file itself.  Run this only for a change that is meant to move the
pinned costs, from the repository root:

    python scripts/regen_uniformise_pins.py [--out PATH]

The default output path is the pin file itself.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_acceptance import DATA, _uniformise_costs  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=DATA / "uniformise_costs.json")
    args = ap.parse_args()
    costs, ok = _uniformise_costs()
    if not ok:
        print("a certificate missed its target; pins not written", file=sys.stderr)
        return 1
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(costs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(costs)} costs to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
