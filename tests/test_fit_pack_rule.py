"""The decisions of the packed-product cost rule on its fitting corpora.

`scripts/fit_pack_rule.py --decisions` counts, for each of the four gates
that ask `dists._packs`, the inputs of each fixed corpus that pack and those
that loop.  Every gate must reach both sides on its corpora, so that neither
side of any gate is dead code under the fitted constants.
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
