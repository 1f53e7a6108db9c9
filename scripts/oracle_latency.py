"""Time the exact transport oracle on the instances of README's latency table.

Both rows send seeded sources to the uniform law on Z/8.  The sources are
the first draws with exactly k atoms of `random_dist(random.Random(7), Z/8,
k, 64)`, one generator per row:

- 20 sources of 3 atoms at the default cap of 24 coupling variables;
- 8 sources of 4 atoms at `--cap 32` (32 coupling variables).

Each source is timed as the minimum of N calls of `transport_exact`.  The
script prints one README table row per class: the median and the maximum,
or the range.  Run it from the repository root:

    python scripts/oracle_latency.py [--repeat N]
"""

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from entsum.dists import Dist  # noqa: E402
from entsum.fuzz import random_dist  # noqa: E402
from entsum.groups import GroupSpec  # noqa: E402
from entsum.transport import transport_exact  # noqa: E402

Z8 = GroupSpec([8])
# (atoms per source, sources, cap, the table's coupling-variables cell)
ROWS = ((3, 20, 24, "24 (default cap)"), (4, 8, 32, "32 (`--cap 32`)"))


def sources(atoms: int, count: int) -> list[Dist]:
    """The first `count` draws of `random_dist(Random(7), Z/8, atoms, 64)` with `atoms` atoms."""
    rng = random.Random(7)
    out = []
    while len(out) < count:
        p = random_dist(rng, Z8, atoms, 64)
        if len(p) == atoms:
            out.append(p)
    return out


def latencies(ps: list[Dist], q: Dist, cap: int, repeat: int) -> list[float]:
    """Seconds per source: the least of `repeat` calls of transport_exact(p, q, cap)."""
    out = []
    for p in ps:
        best = float("inf")
        for _ in range(repeat):
            t0 = time.perf_counter()
            transport_exact(p, q, cap)
            best = min(best, time.perf_counter() - t0)
        out.append(best)
    return out


def table_row(atoms: int, count: int, variables: str, times: list[float]) -> str:
    spread = f"max {max(times):.3g} s" if count > 10 else f"range {min(times):.3g}–{max(times):.3g} s"
    return (f"| {atoms} atoms → uniform on Z/8, {count} sources | {variables} | "
            f"median {statistics.median(times):.3g} s, {spread} |")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3, help="calls per source; the min is kept")
    args = ap.parse_args()
    q = Dist.uniform(Z8, Z8.elements())
    print("| instance | coupling variables | latency |")
    print("|---|---|---|")
    for atoms, count, cap, variables in ROWS:
        times = latencies(sources(atoms, count), q, cap, args.repeat)
        print(table_row(atoms, count, variables, times), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
