"""Regenerate criterion 5's pinned uniformisation costs and certificate digest.

Criterion 5 compares every fixture's certificate cost with
tests/data/uniformise_costs.json, and the sha256 of all 100 certificates'
`to_json()` lines with tests/data/uniformise_certs.sha256; it fails when
either file is missing and never writes them itself.  Run this only for a
change that is meant to move the pinned certificates, from the repository
root:

    python scripts/regen_uniformise_pins.py [--dir DIR]

The default output directory is tests/data, where the pin files live.
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
    ap.add_argument("--dir", type=Path, default=DATA)
    args = ap.parse_args()
    costs, digest, ok = _uniformise_costs()
    if not ok:
        print("a certificate missed its target; pins not written", file=sys.stderr)
        return 1
    args.dir.mkdir(parents=True, exist_ok=True)
    (args.dir / "uniformise_costs.json").write_text(json.dumps(costs, indent=1, sort_keys=True) + "\n")
    (args.dir / "uniformise_certs.sha256").write_text(digest + "\n")
    print(f"wrote {len(costs)} costs and the certificate digest {digest} to {args.dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
