"""Fit and check the one cost rule of the packed products, `dists._packs`.

Four gates choose between a packed Kronecker product and a loop over atom
pairs, each by asking `dists._packs(pairs, slots)`: `dists.convolve`,
`dists.iterated_convolve`, `transport._raw_compose` and
`transport._raw_extend`.  This script runs every gate on fixed corpora:

- convolve: 600 fuzz-like pairs of laws, `random_dist(rng, g, 6, 64)` on Z
  and Z/8 alternating (seed 3), and 200 pairs of wider laws, up to 8, 12, 16
  or 24 atoms on Z/64 and Z alternating (seed 5), where packing pays;
- iterated_convolve: the powers with k >= 2 of
  `test_powers_match_the_loop_on_seeded_laws`;
- _raw_compose and _raw_extend: every call made while uniformising criterion
  5's 100 fixtures.

Run it from the repository root:

    python scripts/fit_pack_rule.py [--repeat N]
    python scripts/fit_pack_rule.py --decisions

The default mode times both sides of every input the gate asks about (the
min of N calls each), forcing the gate's own answer, and prints for each gate
the total time under the current constants, under the fitted ones, with the
faster side always, and with either side always.  The fit is a grid search
over the rule `pairs >= fixed * _PACK_PAIRS + weight * slots`, with weight 1
in `dists._packs`, that minimises the sum over the gates of each gate's
total time over its fastest possible total.  Beside the fitted point it
prints, for each weight, the `_PACK_PAIRS` of every grid point whose sum is
within 2% of the least, so that a flat fit shows as a wide band.
`--decisions` does no timing: it prints how many inputs of each corpus each
gate packs and how many it loops, which is deterministic.
"""

import argparse
import contextlib
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from entsum import dists, transport  # noqa: E402
from entsum.fuzz import random_dist  # noqa: E402
from entsum.groups import GroupSpec  # noqa: E402

GATES = {
    "convolve": (dists, "convolve"),
    "iterated_convolve": (dists, "iterated_convolve"),
    "_raw_compose": (transport, "_raw_compose"),
    "_raw_extend": (transport, "_raw_extend"),
}


def fuzz_like():
    rng = random.Random(3)
    groups = (GroupSpec([0]), GroupSpec([8]))
    for i in range(600):
        g = groups[i % 2]
        yield random_dist(rng, g, 6, 64), random_dist(rng, g, 6, 64)


def wider():
    rng = random.Random(5)
    groups = (GroupSpec([64]), GroupSpec([0]))
    for i in range(200):
        g, cap = groups[i % 2], rng.choice((8, 12, 16, 24))
        yield random_dist(rng, g, cap, 64), random_dist(rng, g, cap, 64)


def powers():
    from test_dists_reference import _law

    rng = random.Random(4)  # the draws of test_powers_match_the_loop_on_seeded_laws
    for g in (GroupSpec([0]), GroupSpec([8]), GroupSpec([4, 4]), GroupSpec([0, 3])):
        for _ in range(60):
            p = _law(rng, g, rng.randrange(1, 7), rng.choice([2, 64, 2**20, 2**64]), reach=rng.choice([2, 8, 1000]))
            k = rng.randrange(1, 9)
            if k > 1:
                yield p, k


def criterion5():
    """The (ad, c1, c2) of every compose and the (ad, c, z) of every extend."""
    from test_acceptance import _uniformise_costs

    calls = {"_raw_compose": [], "_raw_extend": []}
    with contextlib.ExitStack() as stack:
        for name, seen in calls.items():
            stack.enter_context(_patched(transport, name, _recorder(getattr(transport, name), seen)))
        _uniformise_costs()
    return calls


def _recorder(fn, seen):
    def recorded(*args):
        seen.append(args)
        return fn(*args)
    return recorded


def corpora() -> dict:
    """gate -> [(corpus name, [argument tuples])]."""
    c5 = criterion5()
    return {
        "convolve": [("fuzz-like Z, Z/8 (seed 3)", list(fuzz_like())),
                     ("wider Z/64, Z (seed 5)", list(wider()))],
        "iterated_convolve": [("seeded powers (seed 4)", list(powers()))],
        "_raw_compose": [("criterion 5", c5["_raw_compose"])],
        "_raw_extend": [("criterion 5", c5["_raw_extend"])],
    }


@contextlib.contextmanager
def _patched(module, name, value):
    old = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, old)


@contextlib.contextmanager
def asked(gate: str, force=None):
    """Record the (pairs, slots, fixed, answer) of each `_packs` call made by the
    gate's own body, answering `force` when it is given; calls from deeper
    frames, such as the loop of `iterated_convolve`, get the rule's answer."""
    module, name = GATES[gate]
    code = getattr(module, name).__code__
    rule, record = dists._packs, []

    def packs(pairs, slots, fixed=True):
        if sys._getframe(1).f_code is not code:
            return rule(pairs, slots, fixed)
        answer = rule(pairs, slots, fixed) if force is None else force
        record.append((pairs, slots, fixed, answer))
        return answer

    with _patched(dists, "_packs", packs), _patched(transport, "_packs", packs):
        yield record


def _call(gate: str, args):
    module, name = GATES[gate]
    return getattr(module, name)(*args)


def decisions(corp=None) -> dict:
    """(gate, corpus) -> (inputs packed, inputs looped) under the current rule;
    an input the gate never asks about (an extension on a box whose H keeps
    its own table, a power past SUPPORT_CAP) counts as looped."""
    out = {}
    for gate, sets in (corp or corpora()).items():
        for cname, inputs in sets:
            packed = 0
            for args in inputs:
                with asked(gate) as record:
                    _call(gate, args)
                packed += bool(record) and record[-1][-1]
            out[gate, cname] = (packed, len(inputs) - packed)
    return out


def _best_time(gate, args, force, repeat) -> tuple[float, list]:
    best = float("inf")
    for _ in range(repeat):
        with asked(gate, force) as record:
            t0 = time.perf_counter()
            _call(gate, args)
            best = min(best, time.perf_counter() - t0)
    return best, record


def timings(corp, repeat: int) -> dict:
    """gate -> [(pairs, slots, fixed, packed time, loop time)] over the inputs it asks about."""
    out = {}
    for gate, sets in corp.items():
        rows = out[gate] = []
        for _, inputs in sets:
            for args in inputs:
                t_pack, record = _best_time(gate, args, True, repeat)
                if not record:
                    continue
                t_loop, _ = _best_time(gate, args, False, repeat)
                rows.append((*record[-1][:3], t_pack, t_loop))
    return out


def packs(row, pack_pairs: int, weight: float) -> bool:
    pairs, slots, fixed = row[:3]
    return pairs >= pack_pairs * fixed + weight * slots


def total(rows, pack_pairs: int, weight: float) -> float:
    return sum(row[3] if packs(row, pack_pairs, weight) else row[4] for row in rows)


def fastest(rows) -> float:
    return sum(min(row[3:]) for row in rows)


PACK_PAIRS_GRID, WEIGHTS = range(0, 257, 8), (0.25, 0.5, 1, 2, 4)
GRID = [(pack_pairs, weight) for pack_pairs in PACK_PAIRS_GRID for weight in WEIGHTS]
NEAR = 0.02  # a grid point this close to the least objective is in the band


def fit(times: dict) -> tuple[tuple[int, float], list[tuple[int, float]]]:
    """The (_PACK_PAIRS, weight) of the grid with the least sum over the gates
    of total time over fastest total, and the band: every grid point whose sum
    is within NEAR of the least, in grid order."""
    score = {fw: sum(total(rows, *fw) / fastest(rows) for rows in times.values() if rows) for fw in GRID}
    best = min(GRID, key=score.__getitem__)
    return best, [fw for fw in GRID if score[fw] <= (1 + NEAR) * score[best]]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--decisions", action="store_true", help="count each gate's decisions; no timing")
    ap.add_argument("--repeat", type=int, default=5, help="calls per side and input; the min is kept")
    args = ap.parse_args()
    corp = corpora()
    if args.decisions:
        print(f"{'gate':18} {'corpus':28} {'packs':>6} {'loops':>6}")
        for (gate, cname), (packed, looped) in decisions(corp).items():
            print(f"{gate:18} {cname:28} {packed:6d} {looped:6d}")
        return 0
    times = timings(corp, args.repeat)
    now = (dists._PACK_PAIRS, 1)
    fitted, band = fit(times)
    print(f"(_PACK_PAIRS, slot weight): current {now}, fitted {fitted}")
    by_weight: dict = {}
    for pack_pairs, weight in band:
        by_weight.setdefault(weight, []).append(pack_pairs)
    print(f"within {NEAR:.0%} of the fitted objective ({len(band)} of {len(GRID)} grid points):")
    for weight, ps in sorted(by_weight.items()):
        print(f"  weight {weight}: _PACK_PAIRS {min(ps)}-{max(ps)} ({len(ps)} of {len(PACK_PAIRS_GRID)} values)")
    print(f"{'gate':18} {'asked':>6} {'current ms':>11} {'fitted ms':>10} {'faster ms':>10} "
          f"{'loop ms':>9} {'packed ms':>10} {'agree':>6}")
    for gate, rows in times.items():
        agree = sum(packs(row, *now) == (row[3] < row[4]) for row in rows)
        print(f"{gate:18} {len(rows):6d} {1e3 * total(rows, *now):11.2f} {1e3 * total(rows, *fitted):10.2f} "
              f"{1e3 * fastest(rows):10.2f} {1e3 * sum(row[4] for row in rows):9.2f} "
              f"{1e3 * sum(row[3] for row in rows):10.2f} {agree:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
