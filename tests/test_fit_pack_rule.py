"""The decisions of the packed-product cost rule on its fitting corpora.

`scripts/fit_pack_rule.py --decisions` counts, for each of the four gates
that ask `dists._packs`, the inputs of each fixed corpus that pack and those
that loop.  Every gate must reach both sides on its corpora, so that neither
side of any gate is dead code under the fitted constants.  The timing fit
reports, beside its optimum, the band of grid points within 2% of it, so that
a flat fit is seen to be flat.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "fit_pack_rule.py"


def _script():
    spec = importlib.util.spec_from_file_location("fit_pack_rule", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_gate_reaches_both_sides_on_its_corpus():
    script = _script()
    sides: dict = {}
    for (gate, _), (packed, looped) in script.decisions().items():
        total = sides.setdefault(gate, [0, 0])
        total[0] += packed
        total[1] += looped
    assert set(sides) == set(script.GATES)
    for gate, (packed, looped) in sides.items():
        assert packed > 0 and looped > 0, (gate, packed, looped)


def test_fit_reports_the_band_near_its_optimum():
    script = _script()
    # rows (pairs, slots, fixed, packed s, loop s): equal sides fit everywhere
    flat = {"gate": [(pairs, slots, True, 1e-3, 1e-3) for pairs in (0, 50, 300) for slots in (0, 40)]}
    assert script.fit(flat)[1] == script.GRID
    # each wrong side costs 100 times the right one: only pack_pairs = 64 packs
    # (64, 0) and loops (57, 0), and only weight 1 then packs (164, 100) and
    # loops (163, 100)
    sharp = {"gate": [(64, 0, True, 1e-5, 1e-3), (57, 0, True, 1e-3, 1e-5),
                      (164, 100, True, 1e-5, 1e-3), (163, 100, True, 1e-3, 1e-5)]}
    assert script.fit(sharp) == ((64, 1), [(64, 1)])
